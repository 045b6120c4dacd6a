// Tests for the shuffle data path: per-mapper partitioned spill
// buffers, the barrier handoff, per-partition heap merges, and the
// bounded-memory group iterator.

#include "exec/shuffle.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "common/faulty_env.h"
#include "common/random.h"
#include "common/strings.h"
#include "mril/assembler.h"
#include "mril/vm.h"
#include "obs/metrics.h"
#include "serde/key_codec.h"
#include "serde/record_codec.h"
#include "tests/test_util.h"

namespace manimal::exec {
namespace {

using testing::TempDir;

std::string Key(int64_t v) {
  std::string out;
  EXPECT_OK(EncodeOrderedKey(Value::I64(v), &out));
  return out;
}

std::string Payload(int64_t v) {
  std::string out;
  EXPECT_OK(EncodeValue(Value::I64(v), &out));
  return out;
}

TEST(ShuffleTest, SingleMapperSinglePartition) {
  TempDir dir("shuffle1");
  Shuffle::Options opts;
  opts.temp_dir = dir.path();
  opts.num_partitions = 1;
  Shuffle shuffle(opts);
  auto mapper = shuffle.NewMapper();
  ASSERT_OK(mapper->Add(0, "b", "2"));
  ASSERT_OK(mapper->Add(0, "a", "1"));
  ASSERT_OK(mapper->Add(0, "c", "3"));
  ASSERT_OK(mapper->Seal());
  ASSERT_OK_AND_ASSIGN(auto stream, shuffle.FinishPartition(0));
  std::string keys;
  while (stream->Valid()) {
    keys += stream->key();
    ASSERT_OK(stream->Next());
  }
  EXPECT_EQ(keys, "abc");
  EXPECT_EQ(shuffle.stats().entries, 3u);
  EXPECT_EQ(shuffle.stats().mappers_sealed, 1u);
  EXPECT_EQ(shuffle.stats().spilled_runs, 0u);
}

TEST(ShuffleTest, ConcurrentMappersSpillAndMergeSorted) {
  TempDir dir("shuffle2");
  Shuffle::Options opts;
  opts.temp_dir = dir.path();
  opts.num_partitions = 3;
  opts.mapper_budget_bytes = 1024;  // force spills from every mapper
  Shuffle shuffle(opts);

  constexpr int kMappers = 4;
  constexpr int kPerMapper = 1500;
  std::vector<std::thread> threads;
  std::mutex expected_mu;
  using Pairs = std::vector<std::pair<std::string, std::string>>;
  std::vector<Pairs> expected(opts.num_partitions);
  for (int m = 0; m < kMappers; ++m) {
    threads.emplace_back([&, m] {
      Rng rng(100 + m);
      auto mapper = shuffle.NewMapper();
      std::vector<Pairs> local(opts.num_partitions);
      for (int i = 0; i < kPerMapper; ++i) {
        int64_t k = static_cast<int64_t>(rng.Uniform(500));
        int p = static_cast<int>(k % opts.num_partitions);
        std::string key = Key(k);
        std::string payload = Payload(m * kPerMapper + i);
        local[p].emplace_back(key, payload);
        ASSERT_OK(mapper->Add(p, key, payload));
      }
      ASSERT_OK(mapper->Seal());
      std::lock_guard<std::mutex> lock(expected_mu);
      for (int p = 0; p < opts.num_partitions; ++p) {
        expected[p].insert(expected[p].end(), local[p].begin(),
                           local[p].end());
      }
    });
  }
  for (auto& t : threads) t.join();

  Shuffle::Stats stats = shuffle.stats();
  EXPECT_EQ(stats.mappers_sealed, static_cast<uint64_t>(kMappers));
  EXPECT_EQ(stats.entries,
            static_cast<uint64_t>(kMappers * kPerMapper));
  EXPECT_GT(stats.spilled_runs, static_cast<uint64_t>(kMappers));

  uint64_t total = 0;
  for (int p = 0; p < opts.num_partitions; ++p) {
    ASSERT_OK_AND_ASSIGN(auto stream, shuffle.FinishPartition(p));
    Pairs got;
    std::string prev;
    while (stream->Valid()) {
      std::string k(stream->key());
      EXPECT_GE(k, prev);  // globally sorted within the partition
      got.emplace_back(k, std::string(stream->payload()));
      prev = k;
      ++total;
      ASSERT_OK(stream->Next());
    }
    // Same multiset of pairs; value order within a key is the heap's
    // tie-break order, not the insertion order.
    std::sort(got.begin(), got.end());
    std::sort(expected[p].begin(), expected[p].end());
    EXPECT_EQ(got, expected[p]) << "partition " << p;
  }
  EXPECT_EQ(total, static_cast<uint64_t>(kMappers * kPerMapper));
}

TEST(ShuffleTest, SpillsPublishMetricsMatchingStats) {
  TempDir dir("shuffle3");
  int64_t runs_before =
      obs::MetricsRegistry::Get().CounterValue("shuffle.spilled_runs");
  Shuffle::Options opts;
  opts.temp_dir = dir.path();
  opts.num_partitions = 2;
  opts.mapper_budget_bytes = 512;
  Shuffle shuffle(opts);
  auto mapper = shuffle.NewMapper();
  for (int i = 0; i < 300; ++i) {
    ASSERT_OK(mapper->Add(i % 2, Key(i), Payload(i)));
  }
  ASSERT_OK(mapper->Seal());
  EXPECT_GT(shuffle.stats().spilled_runs, 0u);
  int64_t runs_after =
      obs::MetricsRegistry::Get().CounterValue("shuffle.spilled_runs");
  EXPECT_EQ(runs_after - runs_before,
            static_cast<int64_t>(shuffle.stats().spilled_runs));
}

TEST(ShuffleTest, RunFilesRemovedOnDestruction) {
  TempDir dir("shuffle4");
  {
    Shuffle::Options opts;
    opts.temp_dir = dir.path();
    opts.num_partitions = 1;
    opts.mapper_budget_bytes = 256;
    Shuffle shuffle(opts);
    auto sealed = shuffle.NewMapper();
    auto abandoned = shuffle.NewMapper();
    for (int i = 0; i < 200; ++i) {
      ASSERT_OK(sealed->Add(0, Key(i), Payload(i)));
      ASSERT_OK(abandoned->Add(0, Key(i), Payload(i)));
    }
    ASSERT_OK(sealed->Seal());
    ASSERT_OK_AND_ASSIGN(auto names, ListDir(dir.path()));
    EXPECT_GT(names.size(), 0u);
    // `abandoned` is never sealed (a map task that bailed): its runs
    // are removed by its own destructor, the sealed mapper's by the
    // shuffle's.
  }
  ASSERT_OK_AND_ASSIGN(auto names, ListDir(dir.path()));
  EXPECT_TRUE(names.empty());
}

TEST(GroupIteratorTest, GroupsKeysAndSortsValuesCanonically) {
  TempDir dir("shuffle5");
  Shuffle::Options opts;
  opts.temp_dir = dir.path();
  opts.num_partitions = 1;
  opts.mapper_budget_bytes = 128;  // groups straddle spilled runs
  Shuffle shuffle(opts);
  auto mapper = shuffle.NewMapper();
  // 40 keys x 5 values, inserted in scrambled order.
  for (int v = 4; v >= 0; --v) {
    for (int k = 39; k >= 0; --k) {
      ASSERT_OK(mapper->Add(0, Key(k), Payload(v * 1000 + k)));
    }
  }
  ASSERT_OK(mapper->Seal());
  ASSERT_OK_AND_ASSIGN(auto stream, shuffle.FinishPartition(0));
  GroupIterator groups(stream.get());
  Value key, values;
  const ValueList* storage = nullptr;
  int64_t expected_key = 0;
  while (true) {
    ASSERT_OK_AND_ASSIGN(bool more, groups.Next(&key, &values));
    if (!more) break;
    EXPECT_EQ(key.i64(), expected_key);
    // Nothing else holds the list, so every group reuses its storage.
    if (storage == nullptr) storage = &values.list();
    EXPECT_EQ(&values.list(), storage);
    ASSERT_EQ(values.list().size(), 5u);
    // Values arrive in canonical (encoded-bytes) order, regardless of
    // the scrambled insertion order above.
    std::vector<std::string> expected_encoded;
    for (int v = 0; v < 5; ++v) {
      expected_encoded.push_back(Payload(v * 1000 + expected_key));
    }
    std::sort(expected_encoded.begin(), expected_encoded.end());
    for (int v = 0; v < 5; ++v) {
      EXPECT_EQ(Payload(values.list()[v].i64()), expected_encoded[v]);
    }
    ++expected_key;
  }
  EXPECT_EQ(expected_key, 40);
}

// A reduce that keeps group strings past their group: it stores the
// key and the first value in members and emits them one group later,
// puts each values list into a hashtable and emits it from there one
// group later, and emits the values list itself.
constexpr char kRetainingReduce[] = R"(
.program retaining-reduce
.value_schema k:str,v:str
.member prev_key str:"none"
.member prev_first str:"none"
.member table null
.member groups i64:0
.func map
  load_param 1
  get_field k
  load_param 1
  get_field v
  emit
  return
.endfunc
.func reduce
  load_member groups
  load_const i64:0
  cmp_eq
  jmp_if_true first
  load_member prev_key
  load_member prev_first
  emit
  load_member prev_key
  load_member table
  load_member prev_key
  call ht.get
  emit
  jmp body
first:
  call ht.new
  store_member table
body:
  load_member table
  load_param 0
  load_param 1
  call ht.put
  pop
  load_param 0
  store_member prev_key
  load_param 1
  load_const i64:0
  call list.get
  store_member prev_first
  load_param 0
  load_param 1
  emit
  load_member groups
  load_const i64:1
  add
  store_member groups
  return
.endfunc
)";

// Runs the reduce over (key, values) groups, retaining every emitted
// pair until `render` turns them into text.
class RetainingRun {
 public:
  explicit RetainingRun(const mril::Program* program) : vm_(program) {
    vm_.set_emit_sink([this](const Value& k, const Value& v) {
      pairs_.emplace_back(k, v);
      return Status::OK();
    });
  }
  Status Reduce(const Value& key, const Value& values) {
    return vm_.InvokeReduce(key, values);
  }
  std::vector<std::string> Render() const {
    std::vector<std::string> out;
    for (const auto& [k, v] : pairs_) {
      out.push_back(k.ToString() + " -> " + v.ToString());
    }
    return out;
  }

 private:
  mril::VmInstance vm_;
  std::vector<std::pair<Value, Value>> pairs_;
};

// Reduce parameters borrow the iterator's group buffers, which the
// next group overwrites in place (every key and every long value has
// the same length). Whatever the reduce keeps — members, hashtable
// entries, emitted pairs held by the sink — must still read as its own
// group, exactly as when the same reduce runs over owned values. Odd
// groups have short (inline) values only, so their emitted list shares
// the group list's storage, which the next group must then not reuse.
TEST(GroupIteratorTest, BorrowedGroupsRunLikeOwned) {
  ASSERT_OK_AND_ASSIGN(mril::Program program,
                       mril::AssembleProgram(kRetainingReduce));
  constexpr int kGroups = 30;
  constexpr int kValues = 4;
  auto key_of = [](int g) { return StrPrintf("group-key-%030d", g); };
  auto value_of = [](int g, int v) {
    return g % 2 == 0
               ? StrPrintf("value-%02d-%02d-of-a-long-borrowed-str", g, v)
               : StrPrintf("short-%02d-%d", g, v);
  };
  TempDir dir("shuffle-borrow");
  Shuffle::Options opts;
  opts.temp_dir = dir.path();
  opts.num_partitions = 1;
  Shuffle shuffle(opts);
  auto mapper = shuffle.NewMapper();
  for (int v = kValues - 1; v >= 0; --v) {
    for (int g = kGroups - 1; g >= 0; --g) {
      std::string key, payload;
      ASSERT_OK(EncodeOrderedKey(Value::Str(key_of(g)), &key));
      ASSERT_OK(EncodeValue(Value::Str(value_of(g, v)), &payload));
      ASSERT_OK(mapper->Add(0, key, payload));
    }
  }
  ASSERT_OK(mapper->Seal());

  RetainingRun borrowed(&program);
  std::vector<std::string> from_borrowed;
  {
    ASSERT_OK_AND_ASSIGN(auto stream, shuffle.FinishPartition(0));
    GroupIterator groups(stream.get());
    Value key, values;
    int g = 0;
    while (true) {
      ASSERT_OK_AND_ASSIGN(bool more, groups.Next(&key, &values));
      if (!more) break;
      // The strings really are views into the group buffers.
      ASSERT_TRUE(key.is_borrowed_str());
      ASSERT_EQ(values.list()[0].is_borrowed_str(), g % 2 == 0);
      ASSERT_OK(borrowed.Reduce(key, values));
      ++g;
    }
    ASSERT_EQ(g, kGroups);
    // Rendered while the buffers still exist: a view that dangles
    // reads the last group's bytes.
    from_borrowed = borrowed.Render();
  }

  RetainingRun owned(&program);
  for (int g = 0; g < kGroups; ++g) {
    ValueList values;
    for (int v = 0; v < kValues; ++v) {
      values.push_back(Value::Str(value_of(g, v)));
    }
    ASSERT_OK(owned.Reduce(Value::Str(key_of(g)), Value::List(values)));
  }
  const std::vector<std::string> from_owned = owned.Render();
  EXPECT_EQ(from_owned.size(), 1u + 3u * (kGroups - 1));
  EXPECT_EQ(from_borrowed, from_owned);
}

// ---------------- fault injection at every spill/merge/seal site ----

// Drains a merged partition stream into (key, payload) pairs.
Result<std::vector<std::pair<std::string, std::string>>> Collect(
    Shuffle* shuffle, int partition) {
  MANIMAL_ASSIGN_OR_RETURN(auto stream,
                           shuffle->FinishPartition(partition));
  std::vector<std::pair<std::string, std::string>> out;
  while (stream->Valid()) {
    out.emplace_back(std::string(stream->key()),
                     std::string(stream->payload()));
    MANIMAL_RETURN_IF_ERROR(stream->Next());
  }
  return out;
}

TEST(ShuffleFaultTest, SpillFaultLeavesBufferIntactAndNoTornRun) {
  // Sweep every IO operation of one spill (open, block writes, close,
  // rename): each must leave the buffer intact and the target path
  // absent, so the caller can simply spill again.
  TempDir dir("shuffle-fault1");
  auto fill = [] {
    index::SpillBuffer buffer;
    for (int i = 0; i < 300; ++i) {
      buffer.Add(Key(i % 37), Payload(i));
    }
    return buffer;
  };

  // Calibrate the number of armed operations in one clean spill.
  uint64_t num_sites = 0;
  {
    index::SpillBuffer buffer = fill();
    FaultyEnv::Config count_only;
    count_only.rate = 0;
    ScopedFaultInjection inject(count_only);
    ScopedFaultArming arm;
    ASSERT_OK(buffer.SpillToFile(dir.file("calibrate.run")).status());
    num_sites = FaultyEnv::Get().stats().evaluated;
  }
  ASSERT_GT(num_sites, 0u);

  for (uint64_t nth = 1; nth <= num_sites; ++nth) {
    SCOPED_TRACE("injection site " + std::to_string(nth));
    index::SpillBuffer buffer = fill();
    const uint64_t entries = buffer.num_entries();
    const std::string path =
        dir.file("run-" + std::to_string(nth) + ".sort");
    {
      FaultyEnv::Config config;
      config.fail_nth = nth;
      ScopedFaultInjection inject(config);
      ScopedFaultArming arm;
      auto result = buffer.SpillToFile(path);
      ASSERT_FALSE(result.ok());
      EXPECT_TRUE(result.status().IsIOError())
          << result.status().ToString();
      EXPECT_EQ(FaultyEnv::Get().stats().injected, 1u);
    }
    // The failed spill is invisible: buffer untouched, no run file,
    // no temp sibling.
    EXPECT_EQ(buffer.num_entries(), entries);
    EXPECT_FALSE(FileExists(path));
    EXPECT_FALSE(FileExists(path + ".tmp"));
    // Retrying the identical spill succeeds and yields a sorted run.
    ASSERT_OK(buffer.SpillToFile(path).status());
    ASSERT_OK_AND_ASSIGN(
        auto stream, index::MergeSortedRuns({path}, {}));
    uint64_t read = 0;
    std::string prev;
    while (stream->Valid()) {
      EXPECT_LE(prev, std::string(stream->key()));
      prev = stream->key();
      ++read;
      ASSERT_OK(stream->Next());
    }
    EXPECT_EQ(read, entries);
  }
}

TEST(ShuffleFaultTest, MapperRetryAfterSpillFaultMatchesFaultFree) {
  // The engine's map-task retry in miniature: a fault anywhere in a
  // mapper's feed (spills happen mid-Add) abandons the mapper — its
  // destructor removes its runs — and a fresh mapper replays the same
  // pairs. The merged partition must equal the fault-free run.
  TempDir dir("shuffle-fault2");
  auto make_options = [&](const std::string& sub) {
    Shuffle::Options opts;
    opts.temp_dir = dir.file(sub);
    EXPECT_OK(CreateDirIfMissing(opts.temp_dir));
    opts.num_partitions = 2;
    opts.mapper_budget_bytes = 1 << 10;  // force frequent spills
    return opts;
  };
  auto feed = [](Shuffle::Mapper* mapper) -> Status {
    for (int i = 0; i < 800; ++i) {
      MANIMAL_RETURN_IF_ERROR(
          mapper->Add(i % 2, Key(i % 53), Payload(i)));
    }
    return Status::OK();
  };

  // Fault-free reference.
  std::vector<std::pair<std::string, std::string>> expect[2];
  {
    Shuffle shuffle(make_options("ref"));
    auto mapper = shuffle.NewMapper();
    ASSERT_OK(feed(mapper.get()));
    ASSERT_OK(mapper->Seal());
    ASSERT_GT(shuffle.stats().spilled_runs, 0u);
    for (int p = 0; p < 2; ++p) {
      ASSERT_OK_AND_ASSIGN(expect[p], Collect(&shuffle, p));
    }
  }

  // Calibrate armed operations during one clean feed.
  uint64_t num_sites = 0;
  {
    Shuffle shuffle(make_options("calibrate"));
    FaultyEnv::Config count_only;
    count_only.rate = 0;
    ScopedFaultInjection inject(count_only);
    ScopedFaultArming arm;
    auto mapper = shuffle.NewMapper();
    ASSERT_OK(feed(mapper.get()));
    ASSERT_OK(mapper->Seal());
    num_sites = FaultyEnv::Get().stats().evaluated;
  }
  ASSERT_GT(num_sites, 0u);

  const uint64_t step = std::max<uint64_t>(1, num_sites / 20);
  for (uint64_t nth = 1; nth <= num_sites; nth += step) {
    SCOPED_TRACE("injection site " + std::to_string(nth));
    Shuffle shuffle(make_options("site-" + std::to_string(nth)));
    {
      FaultyEnv::Config config;
      config.fail_nth = nth;
      ScopedFaultInjection inject(config);
      ScopedFaultArming arm;
      auto mapper = shuffle.NewMapper();
      Status fed = feed(mapper.get());
      if (!fed.ok()) {
        ASSERT_TRUE(fed.IsIOError()) << fed.ToString();
        mapper.reset();  // abandoned attempt cleans its runs
        mapper = shuffle.NewMapper();
        ASSERT_OK(feed(mapper.get()));  // the single fault already fired
      }
      ASSERT_OK(mapper->Seal());
    }
    for (int p = 0; p < 2; ++p) {
      ASSERT_OK_AND_ASSIGN(auto got, Collect(&shuffle, p));
      EXPECT_EQ(got, expect[p]) << "partition " << p;
    }
  }
}

TEST(ShuffleFaultTest, FinishPartitionIsRecallableAfterMergeFault) {
  // A reduce-task retry in miniature: the first merge dies on an
  // injected read fault; calling FinishPartition again re-merges the
  // same runs (they stay owned by the Shuffle) and streams everything.
  TempDir dir("shuffle-fault3");
  Shuffle::Options opts;
  opts.temp_dir = dir.path();
  opts.num_partitions = 1;
  opts.mapper_budget_bytes = 1 << 10;  // force on-disk runs
  Shuffle shuffle(opts);
  auto mapper = shuffle.NewMapper();
  for (int i = 0; i < 800; ++i) {
    ASSERT_OK(mapper->Add(0, Key(i % 53), Payload(i)));
  }
  ASSERT_OK(mapper->Seal());
  ASSERT_GT(shuffle.stats().spilled_runs, 0u);

  {
    FaultyEnv::Config config;
    config.rate = 1.0;  // the first armed read fails immediately
    ScopedFaultInjection inject(config);
    ScopedFaultArming arm;
    auto attempt = [&]() -> Status {
      return Collect(&shuffle, 0).status();
    }();
    ASSERT_FALSE(attempt.ok());
    ASSERT_TRUE(attempt.IsIOError()) << attempt.ToString();
    EXPECT_GT(FaultyEnv::Get().stats().injected, 0u);
  }

  ASSERT_OK_AND_ASSIGN(auto got, Collect(&shuffle, 0));
  EXPECT_EQ(got.size(), 800u);
  for (size_t i = 1; i < got.size(); ++i) {
    EXPECT_LE(got[i - 1].first, got[i].first);
  }
}

}  // namespace
}  // namespace manimal::exec
