// Tests for the index substrates: external sorter (spill + merge),
// disk B+Tree (bulk load, seek, range scan, duplicates, prefix
// compression), and the persistent catalog.

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/coding.h"
#include "common/faulty_env.h"
#include "common/random.h"
#include "index/btree.h"
#include "index/catalog.h"
#include "index/external_sorter.h"
#include "serde/key_codec.h"
#include "tests/test_util.h"

namespace manimal::index {
namespace {

using testing::TempDir;

// ---------------- external sorter ----------------

TEST(ExternalSorterTest, InMemorySort) {
  TempDir dir("sorter");
  ExternalSorter::Options opts;
  opts.temp_dir = dir.path();
  ExternalSorter sorter(opts);
  ASSERT_OK(sorter.Add("b", "2"));
  ASSERT_OK(sorter.Add("a", "1"));
  ASSERT_OK(sorter.Add("c", "3"));
  ASSERT_OK_AND_ASSIGN(auto stream, sorter.Finish());
  std::string keys;
  while (stream->Valid()) {
    keys += stream->key();
    ASSERT_OK(stream->Next());
  }
  EXPECT_EQ(keys, "abc");
  EXPECT_EQ(sorter.stats().spilled_runs, 0);
}

TEST(ExternalSorterTest, SpillsAndMerges) {
  TempDir dir("sorter2");
  ExternalSorter::Options opts;
  opts.temp_dir = dir.path();
  opts.memory_budget_bytes = 1024;  // force many spills
  ExternalSorter sorter(opts);
  Rng rng(5);
  std::multimap<std::string, std::string> expected;
  for (int i = 0; i < 3000; ++i) {
    std::string k = rng.AsciiString(8);
    std::string v = std::to_string(i);
    expected.emplace(k, v);
    ASSERT_OK(sorter.Add(k, v));
  }
  EXPECT_GT(sorter.stats().spilled_runs, 2);
  ASSERT_OK_AND_ASSIGN(auto stream, sorter.Finish());
  std::string prev;
  uint64_t count = 0;
  std::multimap<std::string, std::string> got;
  while (stream->Valid()) {
    std::string k(stream->key());
    EXPECT_GE(k, prev);  // globally sorted
    got.emplace(k, std::string(stream->payload()));
    prev = k;
    ++count;
    ASSERT_OK(stream->Next());
  }
  EXPECT_EQ(count, 3000u);
  EXPECT_EQ(got, expected);  // nothing lost or duplicated
}

TEST(ExternalSorterTest, EmptyInput) {
  TempDir dir("sorter3");
  ExternalSorter::Options opts;
  opts.temp_dir = dir.path();
  ExternalSorter sorter(opts);
  ASSERT_OK_AND_ASSIGN(auto stream, sorter.Finish());
  EXPECT_FALSE(stream->Valid());
}

TEST(ExternalSorterTest, DuplicateKeysAllSurvive) {
  TempDir dir("sorter4");
  ExternalSorter::Options opts;
  opts.temp_dir = dir.path();
  opts.memory_budget_bytes = 512;
  ExternalSorter sorter(opts);
  for (int i = 0; i < 500; ++i) {
    ASSERT_OK(sorter.Add("same-key", std::to_string(i)));
  }
  ASSERT_OK_AND_ASSIGN(auto stream, sorter.Finish());
  int count = 0;
  while (stream->Valid()) {
    EXPECT_EQ(stream->key(), "same-key");
    ++count;
    ASSERT_OK(stream->Next());
  }
  EXPECT_EQ(count, 500);
}

TEST(ExternalSorterTest, MultiRunSpillsPlusInMemoryTail) {
  // A tiny budget forces several spilled runs, and the final
  // additions stay buffered, so the merge combines file runs with an
  // in-memory tail.
  TempDir dir("sorter6");
  ExternalSorter::Options opts;
  opts.temp_dir = dir.path();
  opts.memory_budget_bytes = 512;
  ExternalSorter sorter(opts);
  Rng rng(17);
  std::multimap<std::string, std::string> expected;
  for (int i = 0; i < 2000; ++i) {
    std::string k = rng.AsciiString(6);
    std::string v = std::to_string(i);
    expected.emplace(k, v);
    ASSERT_OK(sorter.Add(k, v));
  }
  ASSERT_GT(sorter.stats().spilled_runs, 2);
  // Some entries never spilled: the budget only trips on Add, so the
  // trailing additions form an in-memory tail.
  uint64_t spilled_payload = 0;
  ASSERT_OK_AND_ASSIGN(auto run_files, ListDir(dir.path()));
  for (const auto& name : run_files) {
    ASSERT_OK_AND_ASSIGN(uint64_t sz,
                         GetFileSize(dir.path() + "/" + name));
    spilled_payload += sz;
  }
  EXPECT_EQ(spilled_payload, sorter.stats().spilled_bytes);

  ASSERT_OK_AND_ASSIGN(auto stream, sorter.Finish());
  std::string prev;
  std::multimap<std::string, std::string> got;
  while (stream->Valid()) {
    std::string k(stream->key());
    EXPECT_GE(k, prev);
    got.emplace(k, std::string(stream->payload()));
    prev = k;
    ASSERT_OK(stream->Next());
  }
  EXPECT_EQ(got, expected);
}

TEST(ExternalSorterTest, DuplicateKeysStraddlingRunBoundaries) {
  // Interleave a handful of hot keys with filler so every spilled run
  // (and the in-memory tail) holds occurrences of the same keys; the
  // merge must surface every occurrence, adjacent per key.
  TempDir dir("sorter7");
  ExternalSorter::Options opts;
  opts.temp_dir = dir.path();
  opts.memory_budget_bytes = 256;
  ExternalSorter sorter(opts);
  Rng rng(23);
  std::map<std::string, int> expected_counts;
  for (int i = 0; i < 1200; ++i) {
    std::string k = "hot-" + std::to_string(i % 3);
    expected_counts[k]++;
    ASSERT_OK(sorter.Add(k, std::to_string(i)));
    if (i % 4 == 0) {
      std::string filler = rng.AsciiString(5);
      expected_counts[filler]++;
      ASSERT_OK(sorter.Add(filler, "f"));
    }
  }
  ASSERT_GT(sorter.stats().spilled_runs, 2);
  ASSERT_OK_AND_ASSIGN(auto stream, sorter.Finish());
  std::map<std::string, int> got_counts;
  std::string prev;
  while (stream->Valid()) {
    std::string k(stream->key());
    EXPECT_GE(k, prev);
    // Occurrences of one key are contiguous in the merged stream.
    if (k != prev) {
      EXPECT_EQ(got_counts.count(k), 0u) << k;
    }
    got_counts[k]++;
    prev = k;
    ASSERT_OK(stream->Next());
  }
  EXPECT_EQ(got_counts, expected_counts);
}

TEST(ExternalSorterTest, TruncatedRunFileIsCorruptionNotSilentEof) {
  TempDir dir("sorter8");
  ExternalSorter::Options opts;
  opts.temp_dir = dir.path();
  opts.memory_budget_bytes = 256;
  ExternalSorter sorter(opts);
  for (int i = 0; i < 400; ++i) {
    ASSERT_OK(sorter.Add("key-" + std::to_string(i), "payload"));
  }
  ASSERT_GT(sorter.stats().spilled_runs, 0);
  // Chop one byte off the first run: its last entry now reads short.
  std::string run_path = dir.file("run-0000.sort");
  ASSERT_OK_AND_ASSIGN(std::string run_bytes, ReadFileToString(run_path));
  ASSERT_OK(WriteStringToFile(
      run_path, run_bytes.substr(0, run_bytes.size() - 1)));

  auto stream_or = sorter.Finish();
  Status st = stream_or.status();
  uint64_t entries_seen = 0;
  if (st.ok()) {
    auto stream = std::move(stream_or).value();
    while (stream->Valid()) {
      ++entries_seen;
      st = stream->Next();
      if (!st.ok()) break;
    }
  }
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_LT(entries_seen, 400u);  // nothing pretended to finish cleanly
}

TEST(ExternalSorterTest, EmptyKeysAndPayloads) {
  TempDir dir("sorter5");
  ExternalSorter::Options opts;
  opts.temp_dir = dir.path();
  ExternalSorter sorter(opts);
  ASSERT_OK(sorter.Add("", ""));
  ASSERT_OK(sorter.Add("x", ""));
  ASSERT_OK(sorter.Add("", "payload"));
  ASSERT_OK_AND_ASSIGN(auto stream, sorter.Finish());
  int count = 0;
  while (stream->Valid()) {
    ++count;
    ASSERT_OK(stream->Next());
  }
  EXPECT_EQ(count, 3);
}

// ---------------- sort order property ----------------

using Entries = std::vector<std::pair<std::string, std::string>>;

// Adversarial key sets for the sort order, chosen against faster
// comparators than memcmp (word-sized prefixes, skipped common
// prefixes): keys shorter than 8 bytes, empty keys, embedded NULs
// ("a" vs "a\0"), bytes above 0x7f, a shared prefix longer than 8
// bytes (with one key equal to it, and suffixes that differ only past
// their first 8 bytes), and all keys equal.
std::vector<std::pair<std::string, std::vector<std::string>>>
AdversarialKeySets() {
  using namespace std::string_literals;
  const std::string alphabet = "\0\1ab\x7f\x80\xff"s;
  Rng rng(77);
  auto random_key = [&](size_t max_len) {
    std::string key(rng.Uniform(max_len + 1), '\0');
    for (char& c : key) c = alphabet[rng.Uniform(alphabet.size())];
    return key;
  };
  std::vector<std::pair<std::string, std::vector<std::string>>> sets;
  std::vector<std::string> keys;
  for (int i = 0; i < 600; ++i) keys.push_back(random_key(7));
  sets.emplace_back("short", keys);

  keys.clear();
  const std::vector<std::string> nul_keys = {
      "", "\0"s, "a", "a\0"s, "a\0\0"s, "a\1"s, "a\0b"s, "b", "\0\0"s};
  for (int i = 0; i < 400; ++i) {
    keys.push_back(nul_keys[rng.Uniform(nul_keys.size())]);
  }
  sets.emplace_back("embedded_nul", keys);

  keys.clear();
  const std::string prefix = "\x04http://www.site";  // 16 bytes
  for (int i = 0; i < 600; ++i) {
    if (rng.OneIn(20)) {
      keys.push_back(prefix);
    } else if (rng.OneIn(3)) {
      // Ties on the 8 bytes after the shared prefix; differs later.
      keys.push_back(prefix + "12345678" + random_key(4));
    } else {
      keys.push_back(prefix + random_key(12));
    }
  }
  sets.emplace_back("long_shared_prefix", keys);

  keys.assign(300, prefix + "42.com/index.html");
  sets.emplace_back("all_equal", keys);

  keys.clear();
  for (int i = 0; i < 600; ++i) keys.push_back(random_key(24));
  sets.emplace_back("mixed_lengths", keys);
  return sets;
}

// Payload = insertion index, so equal keys show their exact order.
Entries Numbered(const std::vector<std::string>& keys) {
  Entries entries;
  for (size_t i = 0; i < keys.size(); ++i) {
    entries.emplace_back(keys[i], std::to_string(i));
  }
  return entries;
}

// std::sort by raw key bytes: the permutation a sorted run must have.
void ByteSort(Entries::iterator begin, Entries::iterator end) {
  std::sort(begin, end,
            [](const auto& a, const auto& b) { return a.first < b.first; });
}

Result<Entries> Drain(SortedStream* stream) {
  Entries out;
  while (stream->Valid()) {
    out.emplace_back(std::string(stream->key()),
                     std::string(stream->payload()));
    MANIMAL_RETURN_IF_ERROR(stream->Next());
  }
  return out;
}

TEST(SpillBufferTest, SortMatchesStdSortOnAdversarialKeys) {
  TempDir dir("spillbuffer");
  for (const auto& [name, keys] : AdversarialKeySets()) {
    SCOPED_TRACE(name);
    Entries expected = Numbered(keys);
    ByteSort(expected.begin(), expected.end());

    SpillBuffer memory;
    for (const auto& [k, v] : Numbered(keys)) memory.Add(k, v);
    const MemoryRun run = memory.TakeSortedRun();
    Entries got;
    for (const MemoryRun::Entry& e : run.entries) {
      got.emplace_back(run.arena.substr(e.key_offset, e.key_len),
                       run.arena.substr(e.payload_offset, e.payload_len));
    }
    EXPECT_EQ(got, expected);

    SpillBuffer spill;
    for (const auto& [k, v] : Numbered(keys)) spill.Add(k, v);
    const std::string path = dir.file(name + ".sort");
    ASSERT_OK(spill.SpillToFile(path).status());
    ASSERT_OK_AND_ASSIGN(auto stream, MergeSortedRuns({path}, {}));
    ASSERT_OK_AND_ASSIGN(Entries from_file, Drain(stream.get()));
    EXPECT_EQ(from_file, expected);
  }
}

TEST(ExternalSorterTest, SpilledSortMatchesStdSortOnAdversarialKeys) {
  for (const auto& [name, keys] : AdversarialKeySets()) {
    SCOPED_TRACE(name);
    TempDir dir("sorter-adversarial");
    ExternalSorter::Options opts;
    opts.temp_dir = dir.path();
    opts.memory_budget_bytes = 300;
    ExternalSorter sorter(opts);
    // The sorter's runs: it spills once a run's bytes reach the
    // budget, and keeps the rest as an in-memory tail.
    const Entries input = Numbered(keys);
    Entries expected;
    size_t run_start = 0;
    uint64_t run_bytes = 0;
    for (size_t i = 0; i < input.size(); ++i) {
      ASSERT_OK(sorter.Add(input[i].first, input[i].second));
      expected.push_back(input[i]);
      run_bytes += input[i].first.size() + input[i].second.size();
      if (run_bytes >= opts.memory_budget_bytes || i + 1 == input.size()) {
        ByteSort(expected.begin() + run_start, expected.end());
        run_start = expected.size();
        run_bytes = 0;
      }
    }
    ASSERT_GT(sorter.stats().spilled_runs, 2);
    // The merge drains equal keys run by run, in run order.
    std::stable_sort(
        expected.begin(), expected.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    ASSERT_OK_AND_ASSIGN(auto stream, sorter.Finish());
    ASSERT_OK_AND_ASSIGN(Entries got, Drain(stream.get()));
    EXPECT_EQ(got, expected);
  }
}

TEST(ExternalSorterTest, CorruptRunLengthIsCorruptionWithinTheFileSize) {
  // A 1 MiB run whose second entry claims a 0xFFFFFFF0-byte key: the
  // reader must hit EOF and report Corruption, not allocate the length
  // the run claims.
  TempDir dir("sorter9");
  const std::string path = dir.file("corrupt.sort");
  std::string run;
  PutVarint32(&run, 3);
  run.append("key");
  PutVarint32(&run, 7);
  run.append("payload");
  PutVarint32(&run, 0xFFFFFFF0u);
  run.append((1u << 20) - run.size(), 'x');
  ASSERT_OK(WriteStringToFile(path, run));

  struct rusage before;
  ASSERT_EQ(getrusage(RUSAGE_SELF, &before), 0);
  ASSERT_OK_AND_ASSIGN(auto stream, MergeSortedRuns({path}, {}));
  ASSERT_TRUE(stream->Valid());
  EXPECT_EQ(stream->key(), "key");
  Status st = stream->Next();
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  struct rusage after;
  ASSERT_EQ(getrusage(RUSAGE_SELF, &after), 0);
  // ru_maxrss is in KiB on Linux.
  EXPECT_LT(after.ru_maxrss - before.ru_maxrss, 64 << 10);
}

// ---------------- B+Tree ----------------

std::string Key(int64_t v) {
  std::string out;
  EXPECT_OK(EncodeOrderedKey(Value::I64(v), &out));
  return out;
}

TEST(BTreeTest, BuildAndPointSeek) {
  TempDir dir("btree");
  std::string path = dir.file("t.idx");
  {
    ASSERT_OK_AND_ASSIGN(auto builder, BTreeBuilder::Create(path));
    for (int i = 0; i < 1000; ++i) {
      ASSERT_OK(builder->Add(Key(i * 2), "v" + std::to_string(i * 2)));
    }
    ASSERT_OK_AND_ASSIGN(uint64_t size, builder->Finish());
    EXPECT_GT(size, 0u);
  }
  ASSERT_OK_AND_ASSIGN(auto reader, BTreeReader::Open(path));
  EXPECT_EQ(reader->num_entries(), 1000u);

  // Exact hit.
  ASSERT_OK_AND_ASSIGN(auto it, reader->Seek(Key(500), true));
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.payload(), "v500");
  // Between keys: lands on next.
  ASSERT_OK_AND_ASSIGN(it, reader->Seek(Key(501), true));
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.payload(), "v502");
  // Past the end.
  ASSERT_OK_AND_ASSIGN(it, reader->Seek(Key(99999), true));
  EXPECT_FALSE(it.Valid());
  // Exclusive skips the equal key.
  ASSERT_OK_AND_ASSIGN(it, reader->Seek(Key(500), false));
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.payload(), "v502");
}

TEST(BTreeTest, FullScanInOrder) {
  TempDir dir("btree2");
  std::string path = dir.file("t.idx");
  {
    ASSERT_OK_AND_ASSIGN(auto builder, BTreeBuilder::Create(path));
    for (int i = 0; i < 5000; ++i) ASSERT_OK(builder->Add(Key(i), "p"));
    ASSERT_OK(builder->Finish().status());
  }
  ASSERT_OK_AND_ASSIGN(auto reader, BTreeReader::Open(path));
  ASSERT_OK_AND_ASSIGN(auto it, reader->SeekToFirst());
  int64_t expected = 0;
  while (it.Valid()) {
    Value key;
    ASSERT_OK(DecodeOrderedKey(it.key(), &key));
    EXPECT_EQ(key.i64(), expected++);
    ASSERT_OK(it.Next());
  }
  EXPECT_EQ(expected, 5000);
  EXPECT_GT(reader->height(), 1);
}

TEST(BTreeTest, DuplicateKeysSpanningLeavesAllFound) {
  TempDir dir("btree3");
  std::string path = dir.file("t.idx");
  const int kDups = 3000;  // guaranteed to span many small leaves
  {
    BTreeBuilder::Options opts;
    opts.target_node_bytes = 256;
    ASSERT_OK_AND_ASSIGN(auto builder, BTreeBuilder::Create(path, opts));
    ASSERT_OK(builder->Add(Key(1), "before"));
    for (int i = 0; i < kDups; ++i) {
      ASSERT_OK(builder->Add(Key(5), "dup" + std::to_string(i)));
    }
    ASSERT_OK(builder->Add(Key(9), "after"));
    ASSERT_OK(builder->Finish().status());
  }
  ASSERT_OK_AND_ASSIGN(auto reader, BTreeReader::Open(path));
  ASSERT_OK_AND_ASSIGN(auto it, reader->Seek(Key(5), true));
  int count = 0;
  while (it.Valid() && std::string_view(it.key()) == Key(5)) {
    ++count;
    ASSERT_OK(it.Next());
  }
  EXPECT_EQ(count, kDups);
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.payload(), "after");
}

TEST(BTreeTest, UnsortedInsertRejected) {
  TempDir dir("btree4");
  ASSERT_OK_AND_ASSIGN(auto builder,
                       BTreeBuilder::Create(dir.file("t.idx")));
  ASSERT_OK(builder->Add(Key(10), "a"));
  EXPECT_TRUE(builder->Add(Key(5), "b").IsInvalidArgument());
}

TEST(BTreeTest, EmptyTree) {
  TempDir dir("btree5");
  std::string path = dir.file("t.idx");
  {
    ASSERT_OK_AND_ASSIGN(auto builder, BTreeBuilder::Create(path));
    ASSERT_OK(builder->Finish().status());
  }
  ASSERT_OK_AND_ASSIGN(auto reader, BTreeReader::Open(path));
  EXPECT_EQ(reader->num_entries(), 0u);
  ASSERT_OK_AND_ASSIGN(auto it, reader->SeekToFirst());
  EXPECT_FALSE(it.Valid());
  ASSERT_OK_AND_ASSIGN(it, reader->Seek(Key(1), true));
  EXPECT_FALSE(it.Valid());
}

TEST(BTreeTest, CorruptFileRejected) {
  TempDir dir("btree6");
  std::string path = dir.file("junk.idx");
  ASSERT_OK(WriteStringToFile(path, "this is not a btree at all"));
  EXPECT_FALSE(BTreeReader::Open(path).ok());
  ASSERT_OK(WriteStringToFile(dir.file("tiny"), "x"));
  EXPECT_FALSE(BTreeReader::Open(dir.file("tiny")).ok());
}

// Property test: random data, compare range scans against std::multimap.
class BTreePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(BTreePropertyTest, RangeScansMatchReferenceModel) {
  TempDir dir("btree-prop");
  std::string path = dir.file("t.idx");
  Rng rng(GetParam());
  std::multimap<std::string, std::string> model;
  std::vector<std::pair<std::string, std::string>> entries;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    std::string k = Key(rng.UniformRange(0, 300));
    std::string v = "v" + std::to_string(i);
    model.emplace(k, v);
    entries.emplace_back(k, v);
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  {
    BTreeBuilder::Options opts;
    opts.target_node_bytes = 512;
    ASSERT_OK_AND_ASSIGN(auto builder, BTreeBuilder::Create(path, opts));
    for (const auto& [k, v] : entries) ASSERT_OK(builder->Add(k, v));
    ASSERT_OK(builder->Finish().status());
  }
  ASSERT_OK_AND_ASSIGN(auto reader, BTreeReader::Open(path));

  for (int trial = 0; trial < 30; ++trial) {
    int64_t lo = rng.UniformRange(-10, 310);
    int64_t hi = lo + rng.UniformRange(0, 100);
    // Model: count entries with lo <= key <= hi.
    auto begin = model.lower_bound(Key(lo));
    auto end = model.upper_bound(Key(hi));
    size_t expected = std::distance(begin, end);

    ASSERT_OK_AND_ASSIGN(auto it, reader->Seek(Key(lo), true));
    size_t got = 0;
    while (it.Valid() && std::string_view(it.key()) <= Key(hi)) {
      ++got;
      ASSERT_OK(it.Next());
    }
    EXPECT_EQ(got, expected) << "range [" << lo << "," << hi << "]";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BTreePropertyTest,
                         ::testing::Values(21, 22, 23, 24));

TEST(BTreeTest, RootChildKeysCoverTree) {
  TempDir dir("btree7");
  std::string path = dir.file("t.idx");
  {
    BTreeBuilder::Options opts;
    opts.target_node_bytes = 512;
    ASSERT_OK_AND_ASSIGN(auto builder, BTreeBuilder::Create(path, opts));
    for (int i = 0; i < 2000; ++i) ASSERT_OK(builder->Add(Key(i), "p"));
    ASSERT_OK(builder->Finish().status());
  }
  ASSERT_OK_AND_ASSIGN(auto reader, BTreeReader::Open(path));
  ASSERT_OK_AND_ASSIGN(auto keys, reader->RootChildKeys());
  ASSERT_GT(keys.size(), 1u);
  // Sorted and within key range.
  for (size_t i = 1; i < keys.size(); ++i) {
    EXPECT_LT(keys[i - 1], keys[i]);
  }
}

// ---------------- catalog ----------------

TEST(CatalogTest, RegisterPersistsAcrossReopen) {
  TempDir dir("catalog");
  std::string path = dir.file("catalog.txt");
  CatalogEntry entry;
  entry.input_file = "/data/visits.msq";
  entry.signature = "v1|schema=a:i64|btree=-|proj=0,3|delta=-|dict=-";
  entry.artifact_path = "/ws/artifacts/seq-abc.msq";
  entry.base_path = "";
  entry.artifact_bytes = 123;
  entry.input_bytes = 1000;
  {
    ASSERT_OK_AND_ASSIGN(Catalog catalog, Catalog::Open(path));
    ASSERT_OK(catalog.Register(entry));
  }
  ASSERT_OK_AND_ASSIGN(Catalog catalog, Catalog::Open(path));
  auto found = catalog.Find(entry.input_file, entry.signature);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->artifact_path, entry.artifact_path);
  EXPECT_EQ(found->artifact_bytes, 123u);
  EXPECT_DOUBLE_EQ(found->SpaceOverhead(), 0.123);
  EXPECT_FALSE(catalog.Find("/other", entry.signature).has_value());
}

TEST(CatalogTest, RegisterReplacesMatchingEntry) {
  TempDir dir("catalog2");
  ASSERT_OK_AND_ASSIGN(Catalog catalog,
                       Catalog::Open(dir.file("c.txt")));
  CatalogEntry e;
  e.input_file = "in";
  e.signature = "sig";
  e.artifact_path = "old";
  ASSERT_OK(catalog.Register(e));
  e.artifact_path = "new";
  ASSERT_OK(catalog.Register(e));
  EXPECT_EQ(catalog.entries().size(), 1u);
  EXPECT_EQ(catalog.Find("in", "sig")->artifact_path, "new");
}

TEST(CatalogTest, FindForInputListsAll) {
  TempDir dir("catalog3");
  ASSERT_OK_AND_ASSIGN(Catalog catalog,
                       Catalog::Open(dir.file("c.txt")));
  for (int i = 0; i < 3; ++i) {
    CatalogEntry e;
    e.input_file = "in";
    e.signature = "sig" + std::to_string(i);
    ASSERT_OK(catalog.Register(e));
  }
  CatalogEntry other;
  other.input_file = "other";
  other.signature = "sig0";
  ASSERT_OK(catalog.Register(other));
  EXPECT_EQ(catalog.FindForInput("in").size(), 3u);
  EXPECT_EQ(catalog.FindForInput("other").size(), 1u);
}

TEST(CatalogTest, FieldsWithTabsSurviveEscaping) {
  TempDir dir("catalog4");
  CatalogEntry e;
  e.input_file = "weird\tname\nwith newline";
  e.signature = "sig\\with\\backslashes";
  {
    ASSERT_OK_AND_ASSIGN(Catalog catalog,
                         Catalog::Open(dir.file("c.txt")));
    ASSERT_OK(catalog.Register(e));
  }
  ASSERT_OK_AND_ASSIGN(Catalog catalog, Catalog::Open(dir.file("c.txt")));
  EXPECT_TRUE(catalog.Find(e.input_file, e.signature).has_value());
}

TEST(CatalogTest, CorruptManifestRejected) {
  TempDir dir("catalog5");
  ASSERT_OK(WriteStringToFile(dir.file("c.txt"), "only\ttwo\n"));
  EXPECT_FALSE(Catalog::Open(dir.file("c.txt")).ok());
}

TEST(CatalogTest, FingerprintColumnRoundTripsAndOlderLayoutsLoad) {
  TempDir dir("catalog7");
  CatalogEntry e;
  e.input_file = "in";
  e.signature = "sig";
  e.input_fingerprint = "4096-1700000000000000000-00000000deadbeef";
  {
    ASSERT_OK_AND_ASSIGN(Catalog catalog, Catalog::Open(dir.file("c.txt")));
    ASSERT_OK(catalog.Register(e));
  }
  ASSERT_OK_AND_ASSIGN(Catalog catalog, Catalog::Open(dir.file("c.txt")));
  ASSERT_TRUE(catalog.Find("in", "sig").has_value());
  EXPECT_EQ(catalog.Find("in", "sig")->input_fingerprint,
            e.input_fingerprint);

  // The pre-stats 7-column layout loads with no fingerprint (and so
  // is stale to the optimizer), and a missing stats file is no error.
  ASSERT_OK(WriteStringToFile(dir.file("old.txt"),
                              "in\tsig\ta.idx\t\t\t100\t400\n"
                              "in\tsig2\tb.idx\t\t\t100\t400\tnone.json\n"));
  ASSERT_OK_AND_ASSIGN(Catalog old, Catalog::Open(dir.file("old.txt")));
  ASSERT_EQ(old.entries().size(), 2u);
  EXPECT_EQ(old.entries()[0].input_fingerprint, "");
  EXPECT_EQ(old.StatsFor("in"), nullptr);
}

TEST(CatalogTest, TornSaveLeavesPreviousCatalogReadable) {
  // Fail each filesystem operation of one Register in turn (open,
  // write — possibly torn short — close, rename, then steps past the
  // last site). Whatever fails, the manifest on disk must stay the
  // previous one or become the new one: never unreadable, never
  // missing an entry that was already committed.
  TempDir dir("catalog6");
  CatalogEntry old_entry;
  old_entry.input_file = "in";
  old_entry.signature = "old";
  old_entry.artifact_path = "/ws/artifacts/old.idx";
  CatalogEntry new_entry = old_entry;
  new_entry.signature = "new";
  new_entry.artifact_path = "/ws/artifacts/new.idx";
  for (uint64_t nth = 1; nth <= 8; ++nth) {
    SCOPED_TRACE("fail_nth " + std::to_string(nth));
    const std::string path =
        dir.file("catalog-" + std::to_string(nth) + ".txt");
    ASSERT_OK_AND_ASSIGN(Catalog catalog, Catalog::Open(path));
    ASSERT_OK(catalog.Register(old_entry));
    Status registered;
    {
      FaultyEnv::Config config;
      config.fail_nth = nth;
      ScopedFaultInjection inject(config);
      ScopedFaultArming arm;
      registered = catalog.Register(new_entry);
    }
    ASSERT_OK_AND_ASSIGN(Catalog reopened, Catalog::Open(path));
    EXPECT_TRUE(reopened.Find("in", "old").has_value());
    if (registered.ok()) {
      EXPECT_TRUE(reopened.Find("in", "new").has_value());
    }
  }
}

}  // namespace
}  // namespace manimal::index
