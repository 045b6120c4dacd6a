// Tests for the execution fabric: pair files, input planning (seqscan
// and both B+Tree layouts), the MapReduce engine, and index builds.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "analyzer/analyzer.h"
#include "common/faulty_env.h"
#include "exec/engine.h"
#include "exec/index_build.h"
#include "exec/pairfile.h"
#include "mril/builder.h"
#include "obs/metrics.h"
#include "optimizer/optimizer.h"
#include "tests/test_util.h"
#include "workloads/datagen.h"
#include "workloads/pavlo.h"
#include "workloads/schemas.h"

namespace manimal::exec {
namespace {

using testing::TempDir;

// ---------------- pair files ----------------

TEST(PairFileTest, Roundtrip) {
  TempDir dir("pairs");
  std::string path = dir.file("out.prs");
  {
    ASSERT_OK_AND_ASSIGN(auto writer, PairFileWriter::Create(path));
    ASSERT_OK(writer->Append(Value::Str("k1"), Value::I64(1)));
    ASSERT_OK(writer->Append(Value::I64(2), Value::List({Value::I64(3)})));
    ASSERT_OK(writer->Finish().status());
  }
  ASSERT_OK_AND_ASSIGN(auto pairs, ReadAllPairs(path));
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_EQ(pairs[0].first.str(), "k1");
  EXPECT_EQ(pairs[1].second.list()[0].i64(), 3);
}

TEST(PairFileTest, CanonicalFormIsOrderInsensitive) {
  TempDir dir("pairs2");
  auto write = [&dir](const std::string& name, bool reversed) {
    auto writer =
        std::move(PairFileWriter::Create(dir.file(name))).value();
    std::vector<std::pair<Value, Value>> pairs = {
        {Value::Str("a"), Value::I64(1)}, {Value::Str("b"), Value::I64(2)}};
    if (reversed) std::reverse(pairs.begin(), pairs.end());
    for (auto& [k, v] : pairs) EXPECT_OK(writer->Append(k, v));
    EXPECT_OK(writer->Finish().status());
  };
  write("fwd.prs", false);
  write("rev.prs", true);
  ASSERT_OK_AND_ASSIGN(auto a, ReadCanonicalPairs(dir.file("fwd.prs")));
  ASSERT_OK_AND_ASSIGN(auto b, ReadCanonicalPairs(dir.file("rev.prs")));
  EXPECT_EQ(a, b);
}

TEST(PairFileTest, RejectsGarbage) {
  TempDir dir("pairs3");
  ASSERT_OK(WriteStringToFile(dir.file("bad"), "garbage here"));
  EXPECT_FALSE(ReadAllPairs(dir.file("bad")).ok());
}

TEST(PairFileTest, CorruptFooterCountFailsWithoutHugeAllocation) {
  // A valid magic plus an absurd footer count must surface Corruption
  // instead of reserving footer-count entries up front.
  TempDir dir("pairs4");
  std::string data = "MPRS";
  uint64_t bogus_count = 1ull << 60;
  data.append(reinterpret_cast<const char*>(&bogus_count), 8);
  ASSERT_OK(WriteStringToFile(dir.file("bad.prs"), data));
  auto result = ReadAllPairs(dir.file("bad.prs"));
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCorruption())
      << result.status().ToString();
}

TEST(PairFileTest, TruncatedFileWithInflatedCountIsCorruption) {
  // Write a real two-pair file, then hand-append a footer claiming
  // far more pairs than the payload holds.
  TempDir dir("pairs5");
  std::string path = dir.file("out.prs");
  {
    ASSERT_OK_AND_ASSIGN(auto writer, PairFileWriter::Create(path));
    ASSERT_OK(writer->Append(Value::Str("k1"), Value::I64(1)));
    ASSERT_OK(writer->Append(Value::Str("k2"), Value::I64(2)));
    ASSERT_OK(writer->Finish().status());
  }
  ASSERT_OK_AND_ASSIGN(std::string data, ReadFileToString(path));
  uint64_t inflated = 1ull << 50;
  data.resize(data.size() - 8);
  data.append(reinterpret_cast<const char*>(&inflated), 8);
  ASSERT_OK(WriteStringToFile(path, data));
  auto result = ReadAllPairs(path);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCorruption())
      << result.status().ToString();
}

// ---------------- engine fixtures ----------------

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() : dir_("engine") {
    workloads::WebPagesOptions gen;
    gen.num_pages = 3000;
    gen.content_len = 64;
    gen.rank_range = 100;
    auto stats =
        workloads::GenerateWebPages(dir_.file("pages.msq"), gen);
    EXPECT_TRUE(stats.ok());
  }

  JobConfig Config(const std::string& out_name) {
    JobConfig config;
    config.map_parallelism = 3;
    config.num_partitions = 3;
    config.temp_dir = dir_.file("tmp-" + out_name);
    config.output_path = dir_.file(out_name);
    config.simulated_startup_seconds = 0;
    config.simulated_disk_bytes_per_sec = 0;
    return config;
  }

  ExecutionDescriptor Baseline(const mril::Program& program) {
    return optimizer::BaselineDescriptor(program, dir_.file("pages.msq"));
  }

  TempDir dir_;
};

TEST_F(EngineTest, MapOnlyJobEmitsFilteredPairs) {
  // rank > 49 keeps about half the rows.
  mril::Program program = workloads::ProjectionQuery(49);
  ASSERT_OK_AND_ASSIGN(JobResult result,
                       RunJob(Baseline(program), Config("out.prs")));
  EXPECT_EQ(result.counters.input_records, 3000u);
  EXPECT_EQ(result.counters.map_invocations, 3000u);
  EXPECT_GT(result.counters.output_records, 1000u);
  EXPECT_LT(result.counters.output_records, 2000u);
  ASSERT_OK_AND_ASSIGN(auto pairs, ReadAllPairs(dir_.file("out.prs")));
  EXPECT_EQ(pairs.size(), result.counters.output_records);
  for (const auto& [url, rank] : pairs) {
    EXPECT_GT(rank.i64(), 49);
  }
}

TEST_F(EngineTest, ReduceJobGroupsAndSums) {
  // count per rank: ranks in [0,100) over 3000 rows.
  mril::Program program = workloads::SelectionCountQuery(-1);
  ASSERT_OK_AND_ASSIGN(JobResult result,
                       RunJob(Baseline(program), Config("out.prs")));
  ASSERT_OK_AND_ASSIGN(auto pairs, ReadAllPairs(dir_.file("out.prs")));
  EXPECT_EQ(pairs.size(), result.counters.reduce_groups);
  int64_t total = 0;
  std::set<int64_t> seen_ranks;
  for (const auto& [rank, count] : pairs) {
    total += count.i64();
    EXPECT_TRUE(seen_ranks.insert(rank.i64()).second)
        << "duplicate group key";
  }
  EXPECT_EQ(total, 3000);  // every record counted exactly once
}

TEST_F(EngineTest, DeterministicAcrossRuns) {
  mril::Program program = workloads::SelectionCountQuery(20);
  ASSERT_OK(RunJob(Baseline(program), Config("a.prs")).status());
  ASSERT_OK(RunJob(Baseline(program), Config("b.prs")).status());
  ASSERT_OK_AND_ASSIGN(auto a, ReadCanonicalPairs(dir_.file("a.prs")));
  ASSERT_OK_AND_ASSIGN(auto b, ReadCanonicalPairs(dir_.file("b.prs")));
  EXPECT_EQ(a, b);
}

TEST_F(EngineTest, PartitionCountDoesNotChangeOutput) {
  mril::Program program = workloads::SelectionCountQuery(20);
  JobConfig one = Config("one.prs");
  one.num_partitions = 1;
  JobConfig many = Config("many.prs");
  many.num_partitions = 7;
  ASSERT_OK(RunJob(Baseline(program), one).status());
  ASSERT_OK(RunJob(Baseline(program), many).status());
  ASSERT_OK_AND_ASSIGN(auto a, ReadCanonicalPairs(dir_.file("one.prs")));
  ASSERT_OK_AND_ASSIGN(auto b, ReadCanonicalPairs(dir_.file("many.prs")));
  EXPECT_EQ(a, b);
}

TEST_F(EngineTest, UserErrorFailsTheJob) {
  // map divides by a field that is zero for some rows.
  mril::ProgramBuilder b("boom");
  b.SetValueSchema(workloads::WebPagesSchema());
  auto& m = b.Map();
  m.LoadI64(100).LoadParam(1).GetField("rank").Div();
  m.LoadI64(0).Emit().Ret();
  mril::Program program = b.Build();
  auto result = RunJob(Baseline(program), Config("out.prs"));
  EXPECT_FALSE(result.ok());  // some row has rank == 0
}

TEST_F(EngineTest, ReduceGroupErrorFailsTheJobCleanly) {
  // reduce(rank, ones) emits 100 / rank and then spins, so every group
  // takes a while. Group 0 is the first group of its partition: it
  // raises while the reduce tasks of the other partitions run, and
  // those bail out at their next group. The job must fail with group
  // 0's error, not with a bail-out, and leave no output and no task
  // part files.
  mril::ProgramBuilder b("reduce-boom");
  b.SetValueSchema(workloads::WebPagesSchema());
  b.Map().LoadParam(1).GetField("rank").LoadI64(1).Emit().Ret();
  auto& r = b.Reduce();
  const int i = r.NewLocal();
  r.LoadParam(0).LoadI64(100).LoadParam(0).Div().Emit();
  r.LoadI64(0).StoreLocal(i);
  r.Label("spin").LoadLocal(i).LoadI64(20000).CmpGe().JmpIfTrue("done");
  r.LoadLocal(i).LoadI64(1).Add().StoreLocal(i).Jmp("spin");
  r.Label("done").Ret();
  JobConfig config = Config("reduce-boom.prs");
  config.num_partitions = 8;
  auto result = RunJob(Baseline(b.Build()), config);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("integer division by 0"),
            std::string::npos)
      << result.status().ToString();
  EXPECT_FALSE(FileExists(config.output_path));
  EXPECT_FALSE(FileExists(config.output_path + ".inprogress"));
  ASSERT_OK_AND_ASSIGN(auto leftovers, ListDir(config.temp_dir));
  for (const std::string& name : leftovers) {
    EXPECT_NE(name.rfind("part-", 0), 0u) << "leaked task part " << name;
  }
}

TEST_F(EngineTest, LogMessagesAreCounted) {
  mril::ProgramBuilder b("logger");
  b.SetValueSchema(workloads::WebPagesSchema());
  auto& m = b.Map();
  m.LoadParam(1).GetField("rank").Log();
  m.LoadParam(0).LoadI64(1).Emit().Ret();
  ASSERT_OK_AND_ASSIGN(JobResult result,
                       RunJob(Baseline(b.Build()), Config("out.prs")));
  EXPECT_EQ(result.counters.log_messages, 3000u);
}

TEST_F(EngineTest, SimulatedCostsAppearInReportedTime) {
  mril::Program program = workloads::ProjectionQuery(1000);  // emits none
  JobConfig config = Config("out.prs");
  config.simulated_startup_seconds = 2.5;
  config.simulated_disk_bytes_per_sec = 1u << 20;
  ASSERT_OK_AND_ASSIGN(JobResult result,
                       RunJob(Baseline(program), config));
  EXPECT_GT(result.simulated_io_seconds, 0.0);
  EXPECT_GE(result.reported_seconds,
            2.5 + result.simulated_io_seconds);
}

TEST_F(EngineTest, PhaseBreakdownCoversWallTime) {
  mril::Program program = workloads::SelectionCountQuery(-1);
  ASSERT_OK_AND_ASSIGN(JobResult result,
                       RunJob(Baseline(program), Config("out.prs")));
  ASSERT_FALSE(result.phase_breakdown.empty());
  EXPECT_TRUE(result.phase_breakdown.count("plan"));
  EXPECT_TRUE(result.phase_breakdown.count("map"));
  EXPECT_TRUE(result.phase_breakdown.count("reduce"));
  double sum = 0;
  for (const auto& [name, stat] : result.phase_breakdown) {
    EXPECT_GE(stat.seconds, 0.0) << name;
    sum += stat.seconds;
  }
  // The phases are contiguous stopwatch regions of the job, so their
  // sum tracks the measured wall time closely.
  EXPECT_NEAR(sum, result.wall_seconds,
              0.05 * result.wall_seconds + 0.01);
  // The map phase moved at least the input bytes.
  EXPECT_GE(result.phase_breakdown["map"].bytes,
            result.counters.input_bytes);
}

TEST_F(EngineTest, MapOnlyJobStillReportsPhases) {
  mril::Program program = workloads::ProjectionQuery(49);
  ASSERT_OK_AND_ASSIGN(JobResult result,
                       RunJob(Baseline(program), Config("out.prs")));
  EXPECT_FALSE(result.phase_breakdown.empty());
  EXPECT_TRUE(result.phase_breakdown.count("map"));
}

TEST_F(EngineTest, ShuffleSpillEventsMatchJobCounters) {
  // Emit the whole content column through the shuffle into a single
  // partition with the minimum sort budget (the engine floors each
  // mapper's share at 64 KiB) so spilling is forced.
  TempDir dir("spill");
  workloads::WebPagesOptions gen;
  gen.num_pages = 20000;
  gen.content_len = 128;
  gen.rank_range = 100;
  ASSERT_TRUE(
      workloads::GenerateWebPages(dir.file("pages.msq"), gen).ok());

  mril::ProgramBuilder b("spiller");
  b.SetKeyType(FieldType::kI64)
      .SetValueSchema(workloads::WebPagesSchema());
  auto& m = b.Map();
  m.LoadParam(1).GetField("rank");
  m.LoadParam(1).GetField("content");
  m.Emit().Ret();
  auto& r = b.Reduce();
  r.LoadParam(0);
  r.LoadParam(1).Call("list.len");
  r.Emit().Ret();
  mril::Program program = b.Build();

  JobConfig config;
  config.map_parallelism = 2;
  config.num_partitions = 1;
  config.sort_buffer_bytes = 1;  // floored to 64 KiB per mapper
  config.temp_dir = dir.file("tmp");
  config.output_path = dir.file("out.prs");
  config.simulated_startup_seconds = 0;
  config.simulated_disk_bytes_per_sec = 0;

  int64_t runs_before =
      obs::MetricsRegistry::Get().CounterValue("shuffle.spilled_runs");
  ASSERT_OK_AND_ASSIGN(
      JobResult result,
      RunJob(optimizer::BaselineDescriptor(program,
                                           dir.file("pages.msq")),
             config));
  int64_t runs_after =
      obs::MetricsRegistry::Get().CounterValue("shuffle.spilled_runs");

  EXPECT_GT(result.counters.shuffle_spilled_runs, 0u);
  // The registry counter advanced by exactly the spills this job saw.
  EXPECT_EQ(runs_after - runs_before,
            static_cast<int64_t>(result.counters.shuffle_spilled_runs));
}

TEST_F(EngineTest, MissingInputIsAnError) {
  mril::Program program = workloads::ProjectionQuery(1);
  ExecutionDescriptor d =
      optimizer::BaselineDescriptor(program, dir_.file("nope.msq"));
  EXPECT_FALSE(RunJob(d, Config("out.prs")).ok());
}

TEST_F(EngineTest, NonPositiveParallelismIsNormalized) {
  // Regression: map_parallelism <= 0 used to reach PlanInput as a
  // non-positive split hint while the pools clamped separately. The
  // engine now normalizes the knobs once, so degenerate configs run
  // and produce the same output.
  mril::Program program = workloads::SelectionCountQuery(20);
  ASSERT_OK(RunJob(Baseline(program), Config("ref.prs")).status());

  JobConfig degenerate = Config("deg.prs");
  degenerate.map_parallelism = 0;
  degenerate.num_partitions = -3;
  ASSERT_OK_AND_ASSIGN(JobResult result,
                       RunJob(Baseline(program), degenerate));
  EXPECT_EQ(result.counters.input_records, 3000u);

  JobConfig negative = Config("neg.prs");
  negative.map_parallelism = -7;
  ASSERT_OK(RunJob(Baseline(program), negative).status());

  ASSERT_OK_AND_ASSIGN(auto ref, ReadCanonicalPairs(dir_.file("ref.prs")));
  ASSERT_OK_AND_ASSIGN(auto deg, ReadCanonicalPairs(dir_.file("deg.prs")));
  ASSERT_OK_AND_ASSIGN(auto neg, ReadCanonicalPairs(dir_.file("neg.prs")));
  EXPECT_EQ(ref, deg);
  EXPECT_EQ(ref, neg);
}

TEST_F(EngineTest, OutOfRangeKeptFieldsFailCleanly) {
  // Regression: an out-of-range output_kept_fields entry used to be
  // an unchecked record[f] read at every append; it must fail at
  // writer creation instead.
  mril::Program program = workloads::ProjectionQuery(49);
  JobConfig config = Config("out.msq");
  config.output_schema =
      Schema({{"url", FieldType::kStr}, {"rank", FieldType::kI64}});
  config.output_kept_fields = {0, 5};
  auto result = RunJob(Baseline(program), config);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument())
      << result.status().ToString();

  JobConfig negative = Config("out2.msq");
  negative.output_schema = config.output_schema;
  negative.output_kept_fields = {-1};
  EXPECT_TRUE(RunJob(Baseline(program), negative)
                  .status()
                  .IsInvalidArgument());
}

TEST(EngineSpillTest, ForcedSpillsDoNotChangeOutput) {
  // The full data path — per-mapper spill buffers, run files, heap
  // merge, streaming reduce — against the no-spill in-memory path.
  TempDir dir("spill-equiv");
  workloads::WebPagesOptions gen;
  gen.num_pages = 20000;
  gen.content_len = 128;
  gen.rank_range = 100;
  ASSERT_TRUE(
      workloads::GenerateWebPages(dir.file("pages.msq"), gen).ok());

  // emit(rank, content); reduce(rank, contents) -> count.
  mril::ProgramBuilder b("spill-equiv");
  b.SetKeyType(FieldType::kI64)
      .SetValueSchema(workloads::WebPagesSchema());
  auto& m = b.Map();
  m.LoadParam(1).GetField("rank");
  m.LoadParam(1).GetField("content");
  m.Emit().Ret();
  auto& r = b.Reduce();
  r.LoadParam(0);
  r.LoadParam(1).Call("list.len");
  r.Emit().Ret();
  mril::Program program = b.Build();
  ExecutionDescriptor d =
      optimizer::BaselineDescriptor(program, dir.file("pages.msq"));

  auto config = [&](const std::string& out) {
    JobConfig c;
    c.map_parallelism = 4;
    c.num_partitions = 3;
    c.temp_dir = dir.file("tmp-" + out);
    c.output_path = dir.file(out);
    c.simulated_startup_seconds = 0;
    c.simulated_disk_bytes_per_sec = 0;
    return c;
  };

  ASSERT_OK_AND_ASSIGN(JobResult in_memory,
                       RunJob(d, config("mem.prs")));
  EXPECT_EQ(in_memory.counters.shuffle_spilled_runs, 0u);

  JobConfig spilling = config("spill.prs");
  spilling.sort_buffer_bytes = 1;  // floored to 64 KiB per mapper
  ASSERT_OK_AND_ASSIGN(JobResult spilled, RunJob(d, spilling));
  EXPECT_GT(spilled.counters.shuffle_spilled_runs, 4u);

  ASSERT_OK_AND_ASSIGN(auto a, ReadCanonicalPairs(dir.file("mem.prs")));
  ASSERT_OK_AND_ASSIGN(auto b2, ReadCanonicalPairs(dir.file("spill.prs")));
  EXPECT_EQ(a, b2);
}

// ---------------- index build + btree input plans ----------------

class IndexedExecTest : public ::testing::Test {
 protected:
  IndexedExecTest() : dir_("idxexec") {
    workloads::WebPagesOptions gen;
    gen.num_pages = 4000;
    gen.content_len = 64;
    gen.rank_range = 1000;
    EXPECT_TRUE(
        workloads::GenerateWebPages(dir_.file("pages.msq"), gen).ok());
  }

  // Builds the given spec and returns the catalog entry.
  IndexBuildResult Build(const analyzer::IndexGenProgram& spec) {
    auto result =
        BuildIndexArtifact(spec, dir_.file("pages.msq"),
                           dir_.file("artifacts"), dir_.file("idxtmp"));
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(result).value();
  }

  JobConfig Config(const std::string& out_name) {
    JobConfig config;
    config.map_parallelism = 3;
    config.num_partitions = 2;
    config.temp_dir = dir_.file("tmp-" + out_name);
    config.output_path = dir_.file(out_name);
    config.simulated_startup_seconds = 0;
    config.simulated_disk_bytes_per_sec = 0;
    return config;
  }

  TempDir dir_;
};

TEST_F(IndexedExecTest, LocatorBTreeMatchesBaseline) {
  mril::Program program = workloads::SelectionCountQuery(900);
  ASSERT_OK_AND_ASSIGN(auto report, analyzer::Analyze(program));
  auto specs = analyzer::SynthesizeIndexPrograms(program, report);
  // Find the locator-only btree spec.
  const analyzer::IndexGenProgram* spec = nullptr;
  for (const auto& s : specs) {
    if (s.btree && !s.clustered && !s.projection) spec = &s;
  }
  ASSERT_NE(spec, nullptr);
  IndexBuildResult build = Build(*spec);
  EXPECT_EQ(build.entry.base_path, dir_.file("pages.msq"));
  // A locator index is much smaller than the data.
  EXPECT_LT(build.entry.artifact_bytes, build.entry.input_bytes / 3);

  ASSERT_OK(RunJob(optimizer::BaselineDescriptor(program,
                                                 dir_.file("pages.msq")),
                   Config("base.prs"))
                .status());

  ExecutionDescriptor d;
  d.access_path = AccessPath::kBTree;
  d.data_path = build.entry.artifact_path;
  d.base_path = build.entry.base_path;
  d.intervals = report.selection->intervals;
  d.program = program;
  ASSERT_OK_AND_ASSIGN(JobResult optimized,
                       RunJob(d, Config("opt.prs")));

  ASSERT_OK_AND_ASSIGN(auto a, ReadCanonicalPairs(dir_.file("base.prs")));
  ASSERT_OK_AND_ASSIGN(auto b, ReadCanonicalPairs(dir_.file("opt.prs")));
  EXPECT_EQ(a, b);
  // ~10% selectivity: far fewer map invocations than records.
  EXPECT_LT(optimized.counters.map_invocations, 1000u);
}

TEST_F(IndexedExecTest, ClusteredBTreeMatchesBaseline) {
  mril::Program program = workloads::SelectionCountQuery(250);
  ASSERT_OK_AND_ASSIGN(auto report, analyzer::Analyze(program));
  auto specs = analyzer::SynthesizeIndexPrograms(program, report);
  const analyzer::IndexGenProgram* spec = nullptr;
  for (const auto& s : specs) {
    if (s.btree && s.clustered && !s.projection) spec = &s;
  }
  ASSERT_NE(spec, nullptr);
  IndexBuildResult build = Build(*spec);
  EXPECT_TRUE(build.entry.base_path.empty());  // self-contained

  ASSERT_OK(RunJob(optimizer::BaselineDescriptor(program,
                                                 dir_.file("pages.msq")),
                   Config("base.prs"))
                .status());

  ExecutionDescriptor d;
  d.access_path = AccessPath::kBTree;
  d.clustered = true;
  d.data_path = build.entry.artifact_path;
  d.intervals = report.selection->intervals;
  d.program = program;
  d.artifact_meta = columnar::PlainMeta(program.value_schema);
  ASSERT_OK_AND_ASSIGN(JobResult optimized,
                       RunJob(d, Config("opt.prs")));

  ASSERT_OK_AND_ASSIGN(auto a, ReadCanonicalPairs(dir_.file("base.prs")));
  ASSERT_OK_AND_ASSIGN(auto b, ReadCanonicalPairs(dir_.file("opt.prs")));
  EXPECT_EQ(a, b);
}

TEST_F(IndexedExecTest, ProjectedArtifactPreservesKeysAndFields) {
  mril::Program program = workloads::ProjectionQuery(500);
  ASSERT_OK_AND_ASSIGN(auto report, analyzer::Analyze(program));
  auto specs = analyzer::SynthesizeIndexPrograms(program, report);
  const analyzer::IndexGenProgram* spec = nullptr;
  for (const auto& s : specs) {
    if (s.projection && !s.btree && !s.delta) spec = &s;
  }
  ASSERT_NE(spec, nullptr);
  IndexBuildResult build = Build(*spec);
  EXPECT_LT(build.entry.artifact_bytes, build.entry.input_bytes);

  ASSERT_OK(RunJob(optimizer::BaselineDescriptor(program,
                                                 dir_.file("pages.msq")),
                   Config("base.prs"))
                .status());

  ExecutionDescriptor d;
  d.access_path = AccessPath::kSeqScan;
  d.data_path = build.entry.artifact_path;
  d.program = program;
  d.field_remap = {0, 1, -1};  // url, rank kept; content dropped
  ASSERT_OK_AND_ASSIGN(JobResult optimized,
                       RunJob(d, Config("opt.prs")));
  ASSERT_OK_AND_ASSIGN(auto a, ReadCanonicalPairs(dir_.file("base.prs")));
  ASSERT_OK_AND_ASSIGN(auto b, ReadCanonicalPairs(dir_.file("opt.prs")));
  EXPECT_EQ(a, b);
  EXPECT_LT(optimized.counters.input_bytes,
            build.entry.input_bytes / 2);
}

TEST_F(IndexedExecTest, BuildRejectsMismatchedSchema) {
  analyzer::IndexGenProgram spec;
  spec.projection = true;
  spec.kept_fields = {0};
  spec.input_schema = "other:i64";
  EXPECT_FALSE(BuildIndexArtifact(spec, dir_.file("pages.msq"),
                                  dir_.file("artifacts"),
                                  dir_.file("idxtmp"))
                   .ok());
}

TEST_F(IndexedExecTest, BuildRejectsForbiddenCombos) {
  ASSERT_OK_AND_ASSIGN(auto report, analyzer::Analyze(
                                        workloads::SelectionCountQuery(1)));
  analyzer::IndexGenProgram spec;
  spec.btree = true;
  spec.delta = true;
  spec.key_expr = report.selection->indexed_expr;
  spec.delta_fields = {1};
  spec.input_schema = workloads::WebPagesSchema().ToString();
  EXPECT_TRUE(BuildIndexArtifact(spec, dir_.file("pages.msq"),
                                 dir_.file("artifacts"),
                                 dir_.file("idxtmp"))
                  .status()
                  .IsNotSupported());
}

// ---------------- fault injection / task retry ----------------

// Small fixture of its own: the crash-recovery sweep runs dozens of
// whole jobs, so the input stays small.
class EngineFaultTest : public ::testing::Test {
 protected:
  EngineFaultTest() : dir_("engine-fault") {
    workloads::WebPagesOptions gen;
    gen.num_pages = 600;
    gen.content_len = 48;
    gen.rank_range = 100;
    EXPECT_TRUE(
        workloads::GenerateWebPages(dir_.file("pages.msq"), gen).ok());
  }

  JobConfig Config(const std::string& out_name) {
    JobConfig config;
    config.map_parallelism = 2;
    config.num_partitions = 2;
    config.temp_dir = dir_.file("tmp-" + out_name);
    config.output_path = dir_.file(out_name);
    config.simulated_startup_seconds = 0;
    config.simulated_disk_bytes_per_sec = 0;
    config.retry_backoff_ms = 0;
    return config;
  }

  ExecutionDescriptor Baseline(const mril::Program& program) {
    return optimizer::BaselineDescriptor(program, dir_.file("pages.msq"));
  }

  TempDir dir_;
};

TEST_F(EngineFaultTest, EveryInjectionSiteIsSurvivable) {
  // Parameterized over the injection site: fail the Nth armed IO
  // operation — input block reads, spill writes and merges, part-file
  // writes and the renames that commit them — and the retried job
  // must still produce the fault-free output. One job has a reduce;
  // the other is map-only, so a map attempt's own commit (its
  // part-file rename) is failed too.
  for (const mril::Program& program : {workloads::SelectionCountQuery(50),
                                       workloads::ProjectionQuery(50)}) {
    SCOPED_TRACE(program.name);
    const std::string prefix = program.name + "-";
    ASSERT_OK_AND_ASSIGN(
        JobResult clean,
        RunJob(Baseline(program), Config(prefix + "clean.prs")));
    ASSERT_OK_AND_ASSIGN(auto canonical,
                         ReadCanonicalPairs(clean.output_path));
    ASSERT_FALSE(canonical.empty());

    // Calibrate: count the armed operations of one fault-free job.
    uint64_t num_sites = 0;
    {
      FaultyEnv::Config count_only;
      count_only.rate = 0;
      ScopedFaultInjection inject(count_only);
      ASSERT_OK(
          RunJob(Baseline(program), Config(prefix + "count.prs")).status());
      num_sites = FaultyEnv::Get().stats().evaluated;
    }
    ASSERT_GT(num_sites, 0u);

    // Sweep up to 40 sites spread across the whole job (every site
    // when there are fewer).
    const uint64_t step = std::max<uint64_t>(1, num_sites / 40);
    for (uint64_t nth = 1; nth <= num_sites; nth += step) {
      SCOPED_TRACE("injection site " + std::to_string(nth) + " of " +
                   std::to_string(num_sites));
      FaultyEnv::Config config;
      config.fail_nth = nth;
      ScopedFaultInjection inject(config);
      const std::string out =
          prefix + "site-" + std::to_string(nth) + ".prs";
      ASSERT_OK_AND_ASSIGN(JobResult result,
                           RunJob(Baseline(program), Config(out)));
      EXPECT_EQ(FaultyEnv::Get().stats().injected, 1u);
      EXPECT_GE(result.counters.task_retries, 1u);
      ASSERT_OK_AND_ASSIGN(auto pairs,
                           ReadCanonicalPairs(result.output_path));
      EXPECT_EQ(pairs, canonical);
    }
  }
}

TEST_F(EngineFaultTest, RateInjectionIsMaskedAndCounted) {
  mril::Program program = workloads::SelectionCountQuery(50);
  ASSERT_OK_AND_ASSIGN(JobResult clean,
                       RunJob(Baseline(program), Config("clean.prs")));
  ASSERT_OK_AND_ASSIGN(auto canonical,
                       ReadCanonicalPairs(clean.output_path));

  auto* retries_metric =
      obs::MetricsRegistry::Get().GetCounter("engine.task_retries");
  const int64_t retries_before = retries_metric->Value();

  // The schedule is keyed by (seed, path, ordinal) and paths include a
  // per-run temp directory, so whether a given seed fires varies per
  // process. Sweep seeds until at least one fault lands; every faulted
  // run must still produce canonical output.
  bool fired = false;
  for (uint64_t seed = 1; seed <= 12 && !fired; ++seed) {
    FaultyEnv::Config fault;
    fault.seed = seed;
    fault.rate = 0.05;
    ScopedFaultInjection inject(fault);
    JobConfig config =
        Config("faulted-" + std::to_string(seed) + ".prs");
    config.max_task_attempts = 16;
    ASSERT_OK_AND_ASSIGN(JobResult result,
                         RunJob(Baseline(program), config));
    if (FaultyEnv::Get().stats().injected > 0) {
      fired = true;
      EXPECT_GE(result.counters.task_retries, 1u);
      EXPECT_EQ(result.counters.tasks_failed, 0u);
      EXPECT_GT(retries_metric->Value(), retries_before);
    }
    ASSERT_OK_AND_ASSIGN(auto pairs,
                         ReadCanonicalPairs(result.output_path));
    EXPECT_EQ(pairs, canonical);
  }
  EXPECT_TRUE(fired) << "no seed in 1..12 injected a fault";
}

TEST_F(EngineFaultTest, ExhaustedRetryBudgetFailsTheJobCleanly) {
  mril::Program program = workloads::SelectionCountQuery(50);
  FaultyEnv::Config fault;
  fault.rate = 1.0;  // every armed operation fails
  ScopedFaultInjection inject(fault);
  JobConfig config = Config("doomed.prs");
  config.max_task_attempts = 3;
  auto result = RunJob(Baseline(program), config);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsIOError()) << result.status().ToString();
  // Clean abort: no output, no in-progress file, no task parts.
  EXPECT_FALSE(FileExists(config.output_path));
  EXPECT_FALSE(FileExists(config.output_path + ".inprogress"));
  ASSERT_OK_AND_ASSIGN(auto leftovers, ListDir(config.temp_dir));
  for (const std::string& name : leftovers) {
    EXPECT_NE(name.rfind("part-", 0), 0u) << "leaked task part " << name;
  }
}

TEST_F(EngineFaultTest, FailedJobRemovesPartialOutput) {
  // Same invariant for a plain user error (no injection): the map
  // divides by a field that is zero for some rows.
  mril::ProgramBuilder b("boom");
  b.SetValueSchema(workloads::WebPagesSchema());
  auto& m = b.Map();
  m.LoadI64(100).LoadParam(1).GetField("rank").Div();
  m.LoadI64(0).Emit().Ret();
  JobConfig config = Config("boom.prs");
  ASSERT_FALSE(RunJob(Baseline(b.Build()), config).ok());
  EXPECT_FALSE(FileExists(config.output_path));
  EXPECT_FALSE(FileExists(config.output_path + ".inprogress"));
}

}  // namespace
}  // namespace manimal::exec
