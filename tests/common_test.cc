// Unit and property tests for src/common: coding, strings, RNG/Zipf,
// env, thread pool.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <thread>

#include "common/coding.h"
#include "common/faulty_env.h"
#include "common/random.h"
#include "common/strings.h"
#include "common/threadpool.h"
#include "tests/test_util.h"

namespace manimal {
namespace {

using testing::TempDir;

// ---------------- coding ----------------

TEST(CodingTest, Varint64RoundtripBoundaries) {
  const uint64_t cases[] = {0,
                            1,
                            127,
                            128,
                            16383,
                            16384,
                            (1ull << 32) - 1,
                            1ull << 32,
                            UINT64_MAX};
  for (uint64_t v : cases) {
    std::string buf;
    PutVarint64(&buf, v);
    EXPECT_EQ(static_cast<int>(buf.size()), VarintLength(v));
    std::string_view in = buf;
    uint64_t out = 0;
    ASSERT_OK(GetVarint64(&in, &out));
    EXPECT_EQ(out, v);
    EXPECT_TRUE(in.empty());
  }
}

TEST(CodingTest, Varint32RejectsOverflow) {
  std::string buf;
  PutVarint64(&buf, (1ull << 33));
  std::string_view in = buf;
  uint32_t out = 0;
  EXPECT_FALSE(GetVarint32(&in, &out).ok());
}

TEST(CodingTest, VarintTruncatedIsCorruption) {
  std::string buf;
  PutVarint64(&buf, 300);
  std::string_view in(buf.data(), 1);  // drop the final byte
  uint64_t out = 0;
  EXPECT_TRUE(GetVarint64(&in, &out).IsCorruption());
}

TEST(CodingTest, ZigzagRoundtrip) {
  const int64_t cases[] = {0, -1, 1, -2, 2, INT64_MAX, INT64_MIN, -12345};
  for (int64_t v : cases) {
    EXPECT_EQ(ZigzagDecode(ZigzagEncode(v)), v) << v;
  }
}

TEST(CodingTest, ZigzagSmallMagnitudesEncodeSmall) {
  // The property delta compression rests on: small |v| -> few bytes.
  std::string buf;
  PutVarintSigned(&buf, -3);
  EXPECT_EQ(buf.size(), 1u);
  buf.clear();
  PutVarintSigned(&buf, 1000000);
  EXPECT_GE(buf.size(), 3u);
}

TEST(CodingTest, LengthPrefixedRoundtrip) {
  std::string buf;
  PutLengthPrefixed(&buf, "hello");
  PutLengthPrefixed(&buf, "");
  PutLengthPrefixed(&buf, std::string(1000, 'x'));
  std::string_view in = buf;
  std::string_view a, b, c;
  ASSERT_OK(GetLengthPrefixed(&in, &a));
  ASSERT_OK(GetLengthPrefixed(&in, &b));
  ASSERT_OK(GetLengthPrefixed(&in, &c));
  EXPECT_EQ(a, "hello");
  EXPECT_EQ(b, "");
  EXPECT_EQ(c.size(), 1000u);
  EXPECT_TRUE(in.empty());
}

TEST(CodingTest, LengthPrefixedTruncated) {
  std::string buf;
  PutLengthPrefixed(&buf, "hello");
  std::string_view in(buf.data(), 3);
  std::string_view out;
  EXPECT_TRUE(GetLengthPrefixed(&in, &out).IsCorruption());
}

TEST(CodingTest, FixedRoundtrip) {
  std::string buf;
  PutFixed32(&buf, 0xDEADBEEF);
  PutFixed64(&buf, 0x0123456789ABCDEFull);
  PutDouble(&buf, 3.14159);
  std::string_view in = buf;
  uint32_t a;
  uint64_t b;
  double d;
  ASSERT_OK(GetFixed32(&in, &a));
  ASSERT_OK(GetFixed64(&in, &b));
  ASSERT_OK(GetDouble(&in, &d));
  EXPECT_EQ(a, 0xDEADBEEF);
  EXPECT_EQ(b, 0x0123456789ABCDEFull);
  EXPECT_DOUBLE_EQ(d, 3.14159);
}

// Property sweep: random values roundtrip.
class VarintPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(VarintPropertyTest, RandomRoundtrip) {
  Rng rng(GetParam());
  std::string buf;
  std::vector<int64_t> values;
  for (int i = 0; i < 500; ++i) {
    int64_t v = static_cast<int64_t>(rng.Next() >> rng.Uniform(63));
    if (rng.OneIn(2)) v = -v;
    values.push_back(v);
    PutVarintSigned(&buf, v);
  }
  std::string_view in = buf;
  for (int64_t expected : values) {
    int64_t out = 0;
    ASSERT_OK(GetVarintSigned(&in, &out));
    EXPECT_EQ(out, expected);
  }
  EXPECT_TRUE(in.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, VarintPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

// ---------------- strings ----------------

TEST(StringsTest, SplitJoin) {
  EXPECT_EQ(SplitString("a,b,c", ','),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(SplitString("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(SplitString("a,,b", ','),
            (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(JoinStrings({"a", "b"}, "-"), "a-b");
  EXPECT_EQ(JoinStrings({}, "-"), "");
}

TEST(StringsTest, EscapeRoundtrip) {
  const std::string cases[] = {"plain", "tab\there", "nl\nhere",
                               "back\\slash", "\t\n\\", ""};
  for (const std::string& s : cases) {
    EXPECT_EQ(UnescapeField(EscapeField(s)), s);
    // Escaped form is single-line and tab-free.
    std::string esc = EscapeField(s);
    EXPECT_EQ(esc.find('\t'), std::string::npos);
    EXPECT_EQ(esc.find('\n'), std::string::npos);
  }
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("http://x", "http://"));
  EXPECT_FALSE(StartsWith("htt", "http://"));
  EXPECT_TRUE(EndsWith("file.idx", ".idx"));
  EXPECT_FALSE(EndsWith("idx", ".idx"));
}

TEST(StringsTest, StrPrintfAndHumanBytes) {
  EXPECT_EQ(StrPrintf("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(HumanBytes(512), "512.00 B");
  EXPECT_EQ(HumanBytes(1024), "1.00 KB");
  EXPECT_EQ(HumanBytes(3u << 20), "3.00 MB");
}

// ---------------- random ----------------

TEST(RandomTest, Deterministic) {
  Rng a(42), b(42), c(43);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RandomTest, UniformInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.Uniform(17);
    EXPECT_LT(v, 17u);
  }
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RandomTest, UniformCoversRange) {
  Rng rng(2);
  std::set<uint64_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.Uniform(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RandomTest, IpAddressShape) {
  Rng rng(3);
  for (int i = 0; i < 20; ++i) {
    std::string ip = rng.IpAddress();
    auto parts = SplitString(ip, '.');
    ASSERT_EQ(parts.size(), 4u) << ip;
    for (const std::string& p : parts) {
      int v = std::stoi(p);
      EXPECT_GE(v, 0);
      EXPECT_LE(v, 255);
    }
  }
}

TEST(RandomTest, ZipfSkewsTowardLowRanks) {
  Rng rng(4);
  ZipfSampler zipf(1000, 0.8);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 20000; ++i) counts[zipf.Sample(&rng)]++;
  // Rank 1 must be sampled far more often than rank >= 500.
  int head = counts[1];
  int tail = 0;
  for (auto& [rank, n] : counts) {
    if (rank >= 500) tail = std::max(tail, n);
  }
  EXPECT_GT(head, tail * 5);
  // All samples in range.
  for (auto& [rank, n] : counts) {
    EXPECT_GE(rank, 1u);
    EXPECT_LE(rank, 1000u);
  }
}

// ---------------- env ----------------

TEST(EnvTest, WriteReadRoundtrip) {
  TempDir dir("env");
  std::string path = dir.file("f.bin");
  std::string payload(100000, 'z');
  payload[5] = '\0';
  ASSERT_OK(WriteStringToFile(path, payload));
  ASSERT_OK_AND_ASSIGN(std::string back, ReadFileToString(path));
  EXPECT_EQ(back, payload);
  ASSERT_OK_AND_ASSIGN(uint64_t size, GetFileSize(path));
  EXPECT_EQ(size, payload.size());
}

TEST(EnvTest, RandomAccessReadAt) {
  TempDir dir("env2");
  std::string path = dir.file("f.bin");
  ASSERT_OK(WriteStringToFile(path, "0123456789"));
  ASSERT_OK_AND_ASSIGN(auto file, RandomAccessFile::Open(path));
  std::string out;
  ASSERT_OK(file->ReadAt(3, 4, &out));
  EXPECT_EQ(out, "3456");
  EXPECT_TRUE(file->ReadAt(8, 4, &out).IsCorruption());
}

TEST(EnvTest, MissingFileIsNotFound) {
  EXPECT_TRUE(ReadFileToString("/nonexistent/manimal-xyz").status()
                  .IsNotFound());
  EXPECT_FALSE(FileExists("/nonexistent/manimal-xyz"));
}

TEST(EnvTest, RemoveDirSafetyRail) {
  // Refuses to recursively remove paths without "manimal" in them.
  EXPECT_TRUE(RemoveDirRecursively("/tmp/definitely-not-ours")
                  .IsInvalidArgument());
}

// ---------------- thread pool ----------------

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, WaitCanBeReused) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.Submit([&count] { count.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(count.load(), 1);
  pool.Submit([&count] { count.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(count.load(), 2);
}

TEST(ThreadPoolTest, ParallelismIsReal) {
  ThreadPool pool(4);
  std::atomic<int> concurrent{0};
  std::atomic<int> peak{0};
  for (int i = 0; i < 8; ++i) {
    pool.Submit([&] {
      int now = concurrent.fetch_add(1) + 1;
      int old_peak = peak.load();
      while (now > old_peak &&
             !peak.compare_exchange_weak(old_peak, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      concurrent.fetch_sub(1);
    });
  }
  pool.Wait();
  EXPECT_GT(peak.load(), 1);
}

// ---------------- status ----------------

TEST(StatusTest, Basics) {
  EXPECT_TRUE(Status::OK().ok());
  Status s = Status::NotFound("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.ToString(), "NotFound: missing thing");
}

TEST(StatusTest, ResultHoldsValueOrStatus) {
  Result<int> ok_result = 7;
  EXPECT_TRUE(ok_result.ok());
  EXPECT_EQ(*ok_result, 7);
  Result<int> err_result = Status::Internal("boom");
  EXPECT_FALSE(err_result.ok());
  EXPECT_EQ(err_result.status().code(), StatusCode::kInternal);
}

// ---------------- fault injection plumbing ----------------

TEST(FaultyEnvTest, DisabledAndUnarmedInjectNothing) {
  // Disabled entirely.
  EXPECT_FALSE(FaultyEnv::Active());
  EXPECT_OK(FaultyEnv::Get().MaybeInject(FaultOp::kWrite, "/x"));
  // Enabled but this thread never armed: still inert.
  FaultyEnv::Config config;
  config.rate = 1.0;
  ScopedFaultInjection inject(config);
  EXPECT_FALSE(FaultyEnv::Active());
  EXPECT_EQ(FaultyEnv::Get().stats().evaluated, 0u);
}

TEST(FaultyEnvTest, ScheduleIsDeterministicForASeed) {
  auto decisions = [](uint64_t seed) {
    FaultyEnv::Config config;
    config.seed = seed;
    config.rate = 0.3;
    ScopedFaultInjection inject(config);
    ScopedFaultArming arm;
    std::string out;
    for (int i = 0; i < 64; ++i) {
      out += FaultyEnv::Get()
                     .MaybeInject(FaultOp::kWrite, "/some/file")
                     .ok()
                 ? '.'
                 : 'X';
    }
    return out;
  };
  const std::string a = decisions(7);
  EXPECT_EQ(a, decisions(7));       // same seed: same schedule
  EXPECT_NE(a, decisions(8));       // different seed: different one
  EXPECT_NE(a.find('X'), std::string::npos);
  EXPECT_NE(a.find('.'), std::string::npos);
}

TEST(FaultyEnvTest, FailNthFiresExactlyOnce) {
  FaultyEnv::Config config;
  config.fail_nth = 3;
  ScopedFaultInjection inject(config);
  ScopedFaultArming arm;
  int failures = 0;
  for (int i = 0; i < 10; ++i) {
    Status s = FaultyEnv::Get().MaybeInject(FaultOp::kRead, "/f");
    if (!s.ok()) {
      EXPECT_TRUE(s.IsIOError());
      EXPECT_EQ(i, 2);  // the third evaluation
      ++failures;
    }
  }
  EXPECT_EQ(failures, 1);
  EXPECT_EQ(FaultyEnv::Get().stats().injected, 1u);
  EXPECT_EQ(FaultyEnv::Get().stats().evaluated, 10u);
}

TEST(FaultyEnvTest, ShortWritePersistsAPrefix) {
  FaultyEnv::Config config;
  config.rate = 1.0;
  config.seed = 11;
  ScopedFaultInjection inject(config);
  ScopedFaultArming arm;
  size_t prefix = 999;
  Status s = FaultyEnv::Get().MaybeInjectWrite("/f", 100, &prefix);
  ASSERT_FALSE(s.ok());
  EXPECT_LT(prefix, 100u);  // a torn write never persists everything
}

TEST(FaultyEnvTest, ArmingNestsAndRestores) {
  FaultyEnv::Config config;
  config.rate = 0;
  ScopedFaultInjection inject(config);
  EXPECT_FALSE(FaultyEnv::Active());
  {
    ScopedFaultArming outer;
    EXPECT_TRUE(FaultyEnv::Active());
    {
      ScopedFaultArming inner;
      EXPECT_TRUE(FaultyEnv::Active());
    }
    EXPECT_TRUE(FaultyEnv::Active());
  }
  EXPECT_FALSE(FaultyEnv::Active());
}

// Helper threads copy their caller's arming: ThreadArmed reports it,
// a new thread starts unarmed, and ScopedFaultArming(false) disarms
// for its scope only.
TEST(FaultyEnvTest, ThreadArmedIsPassedToHelperThreads) {
  EXPECT_FALSE(ScopedFaultArming::ThreadArmed());
  ScopedFaultArming outer;
  ASSERT_TRUE(ScopedFaultArming::ThreadArmed());
  const bool caller_armed = ScopedFaultArming::ThreadArmed();
  bool fresh = true, copied = false;
  std::thread helper([&] {
    fresh = ScopedFaultArming::ThreadArmed();
    ScopedFaultArming arm(caller_armed);
    copied = ScopedFaultArming::ThreadArmed();
  });
  helper.join();
  EXPECT_FALSE(fresh);
  EXPECT_TRUE(copied);
  {
    ScopedFaultArming off(false);
    EXPECT_FALSE(ScopedFaultArming::ThreadArmed());
  }
  EXPECT_TRUE(ScopedFaultArming::ThreadArmed());
}

TEST(FaultyEnvTest, ConfigFromEnvOverridesDefaults) {
  FaultyEnv::Config defaults;
  defaults.seed = 1;
  defaults.rate = 0.5;
  setenv("MANIMAL_FAULT_SEED", "42", 1);
  setenv("MANIMAL_FAULT_RATE", "0.25", 1);
  FaultyEnv::Config config = FaultyEnv::ConfigFromEnv(defaults);
  unsetenv("MANIMAL_FAULT_SEED");
  unsetenv("MANIMAL_FAULT_RATE");
  EXPECT_EQ(config.seed, 42u);
  EXPECT_DOUBLE_EQ(config.rate, 0.25);
}

TEST(FaultyEnvTest, RealIoFailsUnderInjectionAndRecovers) {
  testing::TempDir dir("faultyenv");
  const std::string path = dir.file("f");
  {
    FaultyEnv::Config config;
    config.rate = 1.0;
    ScopedFaultInjection inject(config);
    ScopedFaultArming arm;
    auto file = WritableFile::Create(path);
    EXPECT_FALSE(file.ok());  // open itself is a fault site
  }
  // Injection gone: the same call succeeds.
  ASSERT_OK_AND_ASSIGN(auto file, WritableFile::Create(path));
  ASSERT_OK(file->Append("hello"));
  ASSERT_OK(file->Close());
  ASSERT_OK_AND_ASSIGN(std::string data, ReadFileToString(path));
  EXPECT_EQ(data, "hello");
}

}  // namespace
}  // namespace manimal
