// The differential plan-equivalence harness (docs/testing.md): seeded
// random MRIL programs are executed through the naive full-scan
// baseline AND through every optimizer-selected plan (each synthesized
// index artifact gets its own fresh catalog so the optimizer actually
// picks it), and the outputs must be byte-identical as sorted pair
// multisets — with and without fault injection. A mismatch means some
// optimization changed program semantics; a job failure under
// injection means task retry failed to mask a fault.
//
// Reproduce a failure locally with the seed from the test name /
// failure message, e.g.:
//   MANIMAL_FAULT_SEED=3 ctest -R DifferentialFault --output-on-failure

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "analyzer/analyzer.h"
#include "analyzer/index_gen.h"
#include "columnar/seqfile.h"
#include "common/env.h"
#include "common/faulty_env.h"
#include "core/manimal.h"
#include "exec/pairfile.h"
#include "mril/assembler.h"
#include "mril/builder.h"
#include "mril/verifier.h"
#include "optimizer/explain.h"
#include "workloads/schemas.h"
#include "tests/mril_gen.h"
#include "tests/test_util.h"
#include "workloads/datagen.h"
#include "workloads/pavlo.h"

namespace manimal {
namespace {

using testing::GeneratedProgram;
using testing::TempDir;

constexpr int64_t kRankRange = 1000;

// Pins an environment variable for one scope, restoring the previous
// value (or absence) on exit.
class ScopedEnvVar {
 public:
  ScopedEnvVar(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) {
      had_old_ = true;
      old_ = old;
    }
    setenv(name, value, 1);
  }
  ~ScopedEnvVar() {
    if (had_old_) {
      setenv(name_, old_.c_str(), 1);
    } else {
      unsetenv(name_);
    }
  }

 private:
  const char* name_;
  bool had_old_ = false;
  std::string old_;
};

// Shared input file: generating WebPages once keeps the harness fast.
class DifferentialHarness : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = new TempDir("differential");
    workloads::WebPagesOptions gen;
    gen.num_pages = 1500;
    gen.content_len = 48;
    gen.rank_range = kRankRange;
    ASSERT_OK(
        workloads::GenerateWebPages(input_path(), gen).status());
  }
  static void TearDownTestSuite() {
    delete dir_;
    dir_ = nullptr;
  }
  static std::string input_path() { return dir_->file("pages.msq"); }

  static core::ManimalSystem::Options SystemOptions(
      const std::string& workspace) {
    core::ManimalSystem::Options options;
    options.workspace_dir = workspace;
    options.map_parallelism = 2;
    options.num_partitions = 2;
    options.simulated_startup_seconds = 0;
    options.simulated_disk_bytes_per_sec = 0;
    // Under injection a task may need many attempts before it sees a
    // fault-free window; backoff off keeps the harness fast.
    options.max_task_attempts = 16;
    options.retry_backoff_ms = 0;
    return options;
  }

  // Runs `seed`'s generated program through the baseline and through
  // one plan per synthesized index artifact, asserting byte-identical
  // canonical output each time. `backend` is applied to the optimized
  // submissions only — RunBaseline pins the VM internally, so the
  // ground truth never depends on it. When `native_jobs` is non-null
  // it accumulates how many submissions actually resolved to the
  // native backend; native_reduce_groups_ accumulates the groups the
  // submissions folded natively.
  void RunSeed(uint64_t seed, const TempDir& scratch,
               exec::Backend backend = exec::Backend::kVm,
               int* native_jobs = nullptr) {
    GeneratedProgram gen =
        testing::GenerateWebPagesProgram(seed, kRankRange);
    SCOPED_TRACE("seed " + std::to_string(seed) + " shape:" +
                 gen.description);
    RunProgram(gen.program, "s" + std::to_string(seed), scratch,
               backend, native_jobs);
  }

  void RunProgram(const mril::Program& program, const std::string& tag,
                  const TempDir& scratch,
                  exec::Backend backend = exec::Backend::kVm,
                  int* native_jobs = nullptr) {
    ASSERT_OK(mril::VerifyProgram(program));
    // Naive full scan: the ground truth.
    std::vector<std::string> canonical;
    {
      ASSERT_OK_AND_ASSIGN(
          auto system, core::ManimalSystem::Open(SystemOptions(
                           scratch.file(tag + "-ws-baseline"))));
      core::ManimalSystem::Submission job;
      job.program = program;
      job.input_path = input_path();
      job.output_path = scratch.file(tag + "-baseline.prs");
      ASSERT_OK(system->RunBaseline(job).status());
      ASSERT_OK_AND_ASSIGN(canonical,
                           exec::ReadCanonicalPairs(job.output_path));
    }

    // Plan 0: the optimizer over an empty catalog (map-side rewrites
    // only). Plans 1..N: one per synthesized index artifact, each in
    // a fresh workspace so the optimizer considers exactly that
    // artifact.
    ASSERT_OK_AND_ASSIGN(auto report, analyzer::Analyze(program));
    std::vector<analyzer::IndexGenProgram> specs =
        analyzer::SynthesizeIndexPrograms(program, report);
    for (size_t plan = 0; plan <= specs.size(); ++plan) {
      SCOPED_TRACE("plan " + std::to_string(plan) + " of " +
                   std::to_string(specs.size()));
      const std::string plan_tag = tag + "-p" + std::to_string(plan);
      core::ManimalSystem::Options options =
          SystemOptions(scratch.file(plan_tag + "-ws"));
      options.backend = backend;
      ASSERT_OK_AND_ASSIGN(auto system,
                           core::ManimalSystem::Open(options));
      if (plan > 0) {
        ASSERT_OK(
            system->BuildIndex(specs[plan - 1], input_path()).status());
      }
      core::ManimalSystem::Submission job;
      job.program = program;
      job.input_path = input_path();
      job.output_path = scratch.file(plan_tag + ".prs");
      ASSERT_OK_AND_ASSIGN(auto outcome, system->Submit(job));
      if (native_jobs != nullptr && outcome.job.backend == "native") {
        ++*native_jobs;
      }
      native_reduce_groups_ += outcome.job.counters.native_reduce_groups;
      ASSERT_OK_AND_ASSIGN(auto pairs,
                           exec::ReadCanonicalPairs(job.output_path));
      EXPECT_EQ(pairs, canonical)
          << "plan '" << outcome.plan.explanation
          << "' (backend " << outcome.job.backend << ", "
          << outcome.job.backend_detail
          << ") changed the output multiset";
    }
  }

  // For a program the conventional run rejects: every plan (plan 0
  // and one per synthesized artifact) must fail with the baseline's
  // status code, never succeed by skipping the records the VM raises
  // on. Returns the synthesized specs.
  std::vector<analyzer::IndexGenProgram> ExpectEveryPlanFailsLikeBaseline(
      const mril::Program& program, const std::string& tag,
      const TempDir& scratch) {
    EXPECT_OK(mril::VerifyProgram(program));
    core::ManimalSystem::Submission job;
    job.program = program;
    job.input_path = input_path();
    job.output_path = scratch.file(tag + "-baseline.prs");
    auto baseline_system = core::ManimalSystem::Open(
        SystemOptions(scratch.file(tag + "-ws-baseline")));
    EXPECT_OK(baseline_system.status());
    if (!baseline_system.ok()) return {};
    const Status baseline = (*baseline_system)->RunBaseline(job).status();
    EXPECT_FALSE(baseline.ok()) << "the conventional run must reject it";

    auto report = analyzer::Analyze(program);
    EXPECT_OK(report.status());
    if (!report.ok()) return {};
    std::vector<analyzer::IndexGenProgram> specs =
        analyzer::SynthesizeIndexPrograms(program, *report);
    for (size_t plan = 0; plan <= specs.size(); ++plan) {
      SCOPED_TRACE("plan " + std::to_string(plan) + " of " +
                   std::to_string(specs.size()));
      const std::string plan_tag = tag + "-p" + std::to_string(plan);
      auto system = core::ManimalSystem::Open(
          SystemOptions(scratch.file(plan_tag + "-ws")));
      EXPECT_OK(system.status());
      if (!system.ok()) continue;
      if (plan > 0) {
        EXPECT_OK(
            (*system)->BuildIndex(specs[plan - 1], input_path()).status());
      }
      job.output_path = scratch.file(plan_tag + ".prs");
      auto outcome = (*system)->Submit(job);
      EXPECT_FALSE(outcome.ok())
          << "plan '" << outcome->plan.explanation << "' returned OK with "
          << outcome->job.counters.map_output_records
          << " output records; " << outcome->job.counters.blocks_skipped
          << " blocks skipped";
      if (!outcome.ok()) {
        EXPECT_EQ(outcome.status().code(), baseline.code())
            << outcome.status().ToString() << " vs baseline "
            << baseline.ToString();
      }
    }
    return specs;
  }

  static TempDir* dir_;
  uint64_t native_reduce_groups_ = 0;
};

TempDir* DifferentialHarness::dir_ = nullptr;

// map: if (rank < "abc") if (rank >= <past every rank>) emit(...). The
// first comparison raises in the VM on every record (i64 vs str), so
// the conventional run fails. The second refutes every block's skip
// frame and every B+Tree key; neither may be used to skip records
// ahead of the first. `emit_content` reads every field, which leaves
// a B+Tree as the only artifact a broken analyzer would offer.
mril::Program IncomparableRankGuard(bool emit_content) {
  mril::ProgramBuilder b("incomparable-rank-guard");
  b.SetValueSchema(workloads::WebPagesSchema());
  mril::FunctionBuilder& m = b.Map();
  m.LoadParam(1).GetField("rank").LoadStr("abc").CmpLt();
  m.JmpIfFalse("end");
  m.LoadParam(1).GetField("rank").LoadI64(kRankRange).CmpGe();
  m.JmpIfFalse("end");
  m.LoadParam(1).GetField("url");
  m.LoadParam(1).GetField(emit_content ? "content" : "rank");
  m.Emit();
  m.Label("end").Ret();
  return b.Build();
}

TEST_F(DifferentialHarness, IncomparableTermSkipsNoBlockOfProjection) {
  TempDir scratch("diff-incomparable-skip");
  std::vector<analyzer::IndexGenProgram> specs =
      ExpectEveryPlanFailsLikeBaseline(
          IncomparableRankGuard(/*emit_content=*/false), "skip", scratch);
  bool projected = false;
  for (const analyzer::IndexGenProgram& spec : specs) {
    EXPECT_FALSE(spec.btree) << spec.Describe();
    projected |= spec.projection;
  }
  EXPECT_TRUE(projected) << "no projection artifact: the skip-frame "
                            "plan was never tried";
}

TEST_F(DifferentialHarness, IncomparableTermDerivesNoBTreeRange) {
  TempDir scratch("diff-incomparable-btree");
  for (const analyzer::IndexGenProgram& spec :
       ExpectEveryPlanFailsLikeBaseline(
           IncomparableRankGuard(/*emit_content=*/true), "btree",
           scratch)) {
    EXPECT_FALSE(spec.btree) << spec.Describe();
  }
}

TEST_F(DifferentialHarness, PlansMatchBaseline) {
  TempDir scratch("diff-plain");
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    RunSeed(seed, scratch);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST_F(DifferentialHarness, PlansMatchBaselineUnderFaultInjection) {
  // Defaults overridable via MANIMAL_FAULT_SEED / MANIMAL_FAULT_RATE
  // (the CI fault matrix sweeps the seed).
  FaultyEnv::Config defaults;
  defaults.seed = 1;
  defaults.rate = 0.02;
  const FaultyEnv::Config config = FaultyEnv::ConfigFromEnv(defaults);
  ASSERT_GT(config.rate, 0.0);

  TempDir scratch("diff-fault");
  {
    ScopedFaultInjection inject(config);
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      RunSeed(seed, scratch);
      if (::testing::Test::HasFatalFailure()) break;
    }
    // The schedule must have actually fired: a passing run with zero
    // injected faults would prove nothing.
    const FaultyEnv::Stats stats = FaultyEnv::Get().stats();
    EXPECT_GT(stats.evaluated, 0u);
    EXPECT_GT(stats.injected, 0u)
        << "fault schedule never fired; raise MANIMAL_FAULT_RATE";
  }

  // The retries that masked those faults are visible in telemetry.
  const std::string metrics = core::ManimalSystem::DumpMetricsJson();
  EXPECT_NE(metrics.find("engine.task_retries"), std::string::npos);
  EXPECT_NE(metrics.find("engine.tasks_failed"), std::string::npos);
}

// ---------------------------------------------------------------
// Native-backend legs: the same every-plan sweep with the codegen
// tier armed. `auto` must route every admitted map through a native
// kernel (asserted via JobResult::backend) and still match the
// VM-pinned baseline byte-for-byte on every plan.

TEST_F(DifferentialHarness, NativeBackendPlansMatchBaseline) {
  TempDir scratch("diff-native");
  int native_jobs = 0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    RunSeed(seed, scratch, exec::Backend::kAuto, &native_jobs);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // The leg is only meaningful if the native tier actually engaged,
  // in both phases.
  EXPECT_GE(native_jobs, 1)
      << "auto backend never resolved to a native kernel";
  EXPECT_GT(native_reduce_groups_, 0u) << "no reduce group was folded";
  const std::string metrics = core::ManimalSystem::DumpMetricsJson();
  EXPECT_NE(metrics.find("engine.native_tasks"), std::string::npos);
}

TEST_F(DifferentialHarness,
       NativeBackendPlansMatchBaselineUnderFaultInjection) {
  FaultyEnv::Config defaults;
  defaults.seed = 2;
  defaults.rate = 0.02;
  const FaultyEnv::Config config = FaultyEnv::ConfigFromEnv(defaults);
  ASSERT_GT(config.rate, 0.0);

  TempDir scratch("diff-native-fault");
  int native_jobs = 0;
  {
    ScopedFaultInjection inject(config);
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      RunSeed(seed, scratch, exec::Backend::kAuto, &native_jobs);
      if (::testing::Test::HasFatalFailure()) break;
    }
    const FaultyEnv::Stats stats = FaultyEnv::Get().stats();
    EXPECT_GT(stats.evaluated, 0u);
    EXPECT_GT(stats.injected, 0u)
        << "fault schedule never fired; raise MANIMAL_FAULT_RATE";
  }
  EXPECT_GE(native_jobs, 1)
      << "auto backend never resolved to a native kernel";
  EXPECT_GT(native_reduce_groups_, 0u) << "no reduce group was folded";
}

// The VM-pinned runs fold nothing: RunBaseline (the ground truth) and
// a Submit under MANIMAL_BACKEND=vm run every reduce group on the VM,
// while the same Submit under auto folds them, with the same output.
TEST_F(DifferentialHarness, VmPinnedRunsFoldNoGroup) {
  TempDir scratch("diff-vm-pinned");
  ASSERT_OK_AND_ASSIGN(
      auto system,
      core::ManimalSystem::Open(SystemOptions(scratch.file("ws"))));
  core::ManimalSystem::Submission job;
  job.program = workloads::SelectionCountQuery(kRankRange / 2);
  job.input_path = input_path();

  job.output_path = scratch.file("baseline.prs");
  ASSERT_OK_AND_ASSIGN(exec::JobResult baseline, system->RunBaseline(job));
  EXPECT_EQ(baseline.reduce_backend, "vm");
  EXPECT_EQ(baseline.counters.native_reduce_groups, 0u);
  EXPECT_GT(baseline.counters.reduce_groups, 0u);
  ASSERT_OK_AND_ASSIGN(auto canonical,
                       exec::ReadCanonicalPairs(job.output_path));

  for (const char* backend : {"vm", "auto"}) {
    SCOPED_TRACE(std::string("MANIMAL_BACKEND=") + backend);
    ScopedEnvVar env("MANIMAL_BACKEND", backend);
    job.output_path = scratch.file(std::string(backend) + ".prs");
    ASSERT_OK_AND_ASSIGN(auto outcome, system->Submit(job));
    const exec::JobResult& result = outcome.job;
    if (std::string(backend) == "vm") {
      EXPECT_EQ(result.reduce_backend, "vm");
      EXPECT_EQ(result.reduce_backend_detail, "vm requested");
      EXPECT_EQ(result.counters.native_reduce_groups, 0u);
    } else {
      EXPECT_EQ(result.reduce_backend, "native")
          << result.reduce_backend_detail;
      EXPECT_EQ(result.counters.native_reduce_groups,
                result.counters.reduce_groups);
    }
    EXPECT_EQ(result.counters.reduce_bailout_groups, 0u);
    ASSERT_OK_AND_ASSIGN(auto pairs,
                         exec::ReadCanonicalPairs(job.output_path));
    EXPECT_EQ(pairs, canonical);
  }
}

// `auto` on a map the admission gate rejects must degrade silently to
// the VM — job succeeds, and the decision is visible in the job
// result and the EXPLAIN ANALYZE report.
TEST_F(DifferentialHarness, AutoBackendFallsBackToVmVisibly) {
  TempDir scratch("diff-fallback");
  // A log call is a side effect: provably outside the native tier.
  mril::ProgramBuilder b("fallback");
  b.SetKeyType(FieldType::kStr);
  b.SetValueSchema(workloads::WebPagesSchema());
  mril::FunctionBuilder& m = b.Map();
  m.LoadParam(1).GetField("url").Log();
  m.LoadParam(1).GetField("url");
  m.LoadParam(1).GetField("rank");
  m.Emit().Ret();

  core::ManimalSystem::Options options =
      SystemOptions(scratch.file("ws"));
  options.backend = exec::Backend::kAuto;
  options.explain = optimizer::ExplainMode::kAnalyze;
  ASSERT_OK_AND_ASSIGN(auto system, core::ManimalSystem::Open(options));
  core::ManimalSystem::Submission job;
  job.program = b.Build();
  job.input_path = input_path();
  job.output_path = scratch.file("out.prs");
  ASSERT_OK_AND_ASSIGN(auto outcome, system->Submit(job));

  EXPECT_EQ(outcome.job.backend, "vm");
  EXPECT_NE(outcome.job.backend_detail.find("vm fallback"),
            std::string::npos)
      << outcome.job.backend_detail;
  ASSERT_TRUE(outcome.explain.has_value());
  EXPECT_FALSE(outcome.explain->plan.native_eligible);
  EXPECT_NE(outcome.explain->plan.native_detail, "");
  EXPECT_EQ(outcome.explain->backend, "vm");
  EXPECT_EQ(outcome.explain->counters.native_tasks, 0u);
  // Both renderings carry the decision.
  EXPECT_NE(outcome.explain->ToText().find("native: eligible=no"),
            std::string::npos)
      << outcome.explain->ToText();
  EXPECT_NE(outcome.explain->ToJson().find("\"native_eligible\""),
            std::string::npos);
}

// An explicitly requested native backend on an admitted map must
// engage (no silent fallback) and match the baseline.
TEST_F(DifferentialHarness, ExplicitNativeBackendRunsAdmittedMap) {
  TempDir scratch("diff-explicit-native");
  mril::ProgramBuilder b("explicit");
  b.SetKeyType(FieldType::kStr);
  b.SetValueSchema(workloads::WebPagesSchema());
  mril::FunctionBuilder& m = b.Map();
  m.LoadParam(1).GetField("rank").LoadI64(kRankRange / 2).CmpGe();
  m.JmpIfFalse("end");
  m.LoadParam(1).GetField("url");
  m.LoadParam(1).GetField("rank");
  m.Emit();
  m.Label("end").Ret();
  mril::Program program = b.Build();

  std::vector<std::string> canonical;
  {
    ASSERT_OK_AND_ASSIGN(auto system,
                         core::ManimalSystem::Open(SystemOptions(
                             scratch.file("ws-baseline"))));
    core::ManimalSystem::Submission job;
    job.program = program;
    job.input_path = input_path();
    job.output_path = scratch.file("baseline.prs");
    ASSERT_OK(system->RunBaseline(job).status());
    ASSERT_OK_AND_ASSIGN(canonical,
                         exec::ReadCanonicalPairs(job.output_path));
  }

  core::ManimalSystem::Options options =
      SystemOptions(scratch.file("ws-native"));
  options.backend = exec::Backend::kNative;
  options.explain = optimizer::ExplainMode::kAnalyze;
  ASSERT_OK_AND_ASSIGN(auto system, core::ManimalSystem::Open(options));
  core::ManimalSystem::Submission job;
  job.program = program;
  job.input_path = input_path();
  job.output_path = scratch.file("native.prs");
  ASSERT_OK_AND_ASSIGN(auto outcome, system->Submit(job));

  EXPECT_EQ(outcome.job.backend, "native");
  EXPECT_GE(outcome.job.counters.native_tasks, 1u);
  ASSERT_TRUE(outcome.explain.has_value());
  EXPECT_TRUE(outcome.explain->plan.native_eligible);
  EXPECT_EQ(outcome.explain->backend, "native");
  ASSERT_OK_AND_ASSIGN(auto pairs,
                       exec::ReadCanonicalPairs(job.output_path));
  EXPECT_EQ(pairs, canonical);
}

// ---------------------------------------------------------------
// Codec legs: the every-plan sweep over mlz-compressed (v2) artifacts,
// once with direct predicate evaluation on compressed blocks enabled
// and once forced to decode-then-evaluate. Every (plan x direct
// on/off) combination must reproduce the baseline byte-for-byte — the
// exactness contract of the skip path.

#ifndef MANIMAL_TEST_CORPUS_DIR
#define MANIMAL_TEST_CORPUS_DIR "tests/corpus"
#endif

TEST_F(DifferentialHarness,
       CompressedArtifactsMatchBaselineDirectEvalOnAndOff) {
  for (int direct = 0; direct <= 1; ++direct) {
    SCOPED_TRACE("direct " + std::to_string(direct));
    ScopedEnvVar direct_eval("MANIMAL_DIRECT_EVAL", direct ? "1" : "0");
    TempDir scratch(std::string("diff-codec-") + (direct ? "on" : "off"));
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      RunSeed(seed, scratch);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST_F(DifferentialHarness,
       CompressedArtifactsMatchBaselineUnderFaultInjection) {
  FaultyEnv::Config defaults;
  defaults.seed = 3;
  defaults.rate = 0.02;
  const FaultyEnv::Config config = FaultyEnv::ConfigFromEnv(defaults);
  ASSERT_GT(config.rate, 0.0);

  for (int direct = 0; direct <= 1; ++direct) {
    SCOPED_TRACE("direct " + std::to_string(direct));
    ScopedEnvVar direct_eval("MANIMAL_DIRECT_EVAL", direct ? "1" : "0");
    TempDir scratch(std::string("diff-codec-fault-") +
                    std::to_string(direct));
    ScopedFaultInjection inject(config);
    for (uint64_t seed = 1; seed <= 2; ++seed) {
      RunSeed(seed, scratch);
      if (::testing::Test::HasFatalFailure()) return;
    }
    const FaultyEnv::Stats stats = FaultyEnv::Get().stats();
    EXPECT_GT(stats.injected, 0u)
        << "fault schedule never fired; raise MANIMAL_FAULT_RATE";
  }
}

// The regression corpus programs through the same codec sweep: fixed
// hand-written plans (not just generator shapes) must also survive
// compressed-direct evaluation.
TEST_F(DifferentialHarness, CorpusProgramsMatchBaselineUnderCodecs) {
  std::vector<std::string> files;
  ASSERT_OK_AND_ASSIGN(auto names, ListDir(MANIMAL_TEST_CORPUS_DIR));
  for (const std::string& name : names) {
    if (name.size() > 5 &&
        name.compare(name.size() - 5, 5, ".mril") == 0) {
      files.push_back(std::string(MANIMAL_TEST_CORPUS_DIR) + "/" + name);
    }
  }
  std::sort(files.begin(), files.end());
  ASSERT_GE(files.size(), 4u)
      << "corpus missing at " << MANIMAL_TEST_CORPUS_DIR;

  for (int direct = 0; direct <= 1; ++direct) {
    SCOPED_TRACE("direct " + std::to_string(direct));
    ScopedEnvVar direct_eval("MANIMAL_DIRECT_EVAL", direct ? "1" : "0");
    TempDir scratch(std::string("diff-codec-corpus-") +
                    std::to_string(direct));
    for (size_t i = 0; i < files.size(); ++i) {
      SCOPED_TRACE(files[i]);
      ASSERT_OK_AND_ASSIGN(std::string text, ReadFileToString(files[i]));
      ASSERT_OK_AND_ASSIGN(mril::Program program,
                           mril::AssembleProgram(text));
      RunProgram(program, "c" + std::to_string(i), scratch);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// ---------------------------------------------------------------
// Inputs rewritten after indexing. A B+Tree built over one version of
// UserVisits must never answer for another: the optimizer compares the
// input's fingerprint with the one the catalog recorded, runs the plain
// scan while they differ, and uses the tree again once it is rebuilt.
// The rewrite keeps the row count (old locators still resolve, to other
// records) or shrinks it (old locators point past the file). Job faults
// come from MANIMAL_FAULT_SEED / MANIMAL_FAULT_RATE; task retry must
// mask them.

class StaleInputDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StaleInputDifferential, RewrittenInputMatchesBaseline) {
  TempDir dir("diff-stale");
  const std::string input = dir.file("visits.msq");
  workloads::UserVisitsOptions gen;
  gen.num_visits = 30000;
  gen.num_pages = 20000;
  gen.seed = 1;
  ASSERT_OK(workloads::GenerateUserVisits(input, gen).status());
  // B3's date-range selection over 1% of the range.
  const mril::Program program = workloads::Benchmark3Join(
      gen.date_epoch, gen.date_epoch + gen.date_range / 100 - 1);

  core::ManimalSystem::Options options;
  options.workspace_dir = dir.file("ws");
  options.simulated_startup_seconds = 0;
  options.simulated_disk_bytes_per_sec = 0;
  options.max_task_attempts = 16;
  options.retry_backoff_ms = 0;
  options.explain = optimizer::ExplainMode::kPlan;
  ASSERT_OK_AND_ASSIGN(auto system, core::ManimalSystem::Open(options));
  ASSERT_OK_AND_ASSIGN(auto report, analyzer::Analyze(program));
  const analyzer::IndexGenProgram* tree = nullptr;
  const auto specs = analyzer::SynthesizeIndexPrograms(program, report);
  for (const analyzer::IndexGenProgram& spec : specs) {
    if (spec.btree && !spec.clustered && !spec.projection) tree = &spec;
  }
  ASSERT_NE(tree, nullptr);
  ASSERT_OK(system->BuildIndex(*tree, input).status());

  gen.seed = 777;
  gen.num_visits = GetParam();
  ASSERT_OK(workloads::GenerateUserVisits(input, gen).status());

  FaultyEnv::Config defaults;
  defaults.seed = 1;
  defaults.rate = 0.02;
  // Submits `program` under job-level fault injection and returns its
  // output, which must equal the conventional run's.
  auto submit_matching_baseline =
      [&](const std::string& tag) -> core::ManimalSystem::SubmitOutcome {
    core::ManimalSystem::Submission job;
    job.program = program;
    job.input_path = input;
    job.output_path = dir.file(tag + "-baseline.prs");
    ScopedFaultInjection inject(FaultyEnv::ConfigFromEnv(defaults));
    EXPECT_OK(system->RunBaseline(job).status());
    auto baseline = exec::ReadCanonicalPairs(job.output_path);
    EXPECT_OK(baseline.status());
    job.output_path = dir.file(tag + ".prs");
    auto outcome = system->Submit(job);
    EXPECT_OK(outcome.status());
    if (!outcome.ok() || !baseline.ok()) return {};
    auto pairs = exec::ReadCanonicalPairs(job.output_path);
    EXPECT_OK(pairs.status());
    if (pairs.ok()) {
      EXPECT_EQ(*pairs, *baseline)
          << "plan '" << outcome->plan.explanation << "' changed the output";
    }
    return std::move(outcome).value();
  };
  auto verdict = [&](const core::ManimalSystem::SubmitOutcome& outcome) {
    for (const optimizer::CandidateExplain& c :
         outcome.plan.explain.candidates) {
      if (c.describe == tree->Describe()) return c.verdict;
    }
    return std::string();
  };

  const auto stale = submit_matching_baseline("stale");
  EXPECT_EQ(verdict(stale), "stale");
  EXPECT_NE(stale.plan.descriptor.access_path, exec::AccessPath::kBTree);

  ASSERT_OK(system->BuildIndex(*tree, input).status());
  const auto rebuilt = submit_matching_baseline("rebuilt");
  EXPECT_EQ(verdict(rebuilt), "chosen");
  EXPECT_EQ(rebuilt.plan.descriptor.access_path, exec::AccessPath::kBTree);
}

INSTANTIATE_TEST_SUITE_P(RewrittenRows, StaleInputDifferential,
                         ::testing::Values(30000, 20000));

// Sweeps fail_nth over rebuilds of `spec`, already cataloged for
// `input`: the nth armed filesystem operation of the rebuild fails
// (short writes included), until a rebuild runs past the last one.
// After every failed rebuild the cataloged artifact must still be
// planned (`path`) and `job`'s Submit output must equal `baseline`.
// Returns the failed rebuilds' statuses.
std::vector<Status> SweepFailedRebuilds(
    core::ManimalSystem* system, const analyzer::IndexGenProgram& spec,
    const std::string& input, core::ManimalSystem::Submission job,
    exec::AccessPath path, const std::vector<std::string>& baseline,
    const TempDir& dir) {
  FaultyEnv::Config defaults;
  defaults.seed = 1;
  FaultyEnv::Config config = FaultyEnv::ConfigFromEnv(defaults);
  config.rate = 0;
  std::vector<Status> failed;
  for (uint64_t nth = 1;; ++nth) {
    SCOPED_TRACE("fail_nth " + std::to_string(nth));
    config.fail_nth = nth;
    Status rebuilt;
    {
      ScopedFaultInjection inject(config);
      ScopedFaultArming arm;
      rebuilt = system->BuildIndex(spec, input).status();
    }
    job.output_path = dir.file("opt-" + std::to_string(nth) + ".prs");
    auto outcome = system->Submit(job);
    EXPECT_OK(outcome.status());
    if (!outcome.ok()) break;
    EXPECT_EQ(outcome->plan.descriptor.access_path, path);
    EXPECT_NE(outcome->plan.descriptor.data_path, input);
    auto pairs = exec::ReadCanonicalPairs(job.output_path);
    EXPECT_OK(pairs.status());
    if (!pairs.ok()) break;
    EXPECT_EQ(*pairs, baseline) << "after: " << rebuilt.ToString();
    if (*pairs != baseline) break;
    if (rebuilt.ok()) break;  // past the last injection site
    failed.push_back(rebuilt);
    if (nth >= 10000) {
      ADD_FAILURE() << "rebuild never completed";
      break;
    }
  }
  return failed;
}

// Opens a system over `dir`/ws, catalogs the first synthesized spec of
// `program` matching `pred` for `input`, and runs the conventional job
// into *baseline.
template <typename Pred>
std::unique_ptr<core::ManimalSystem> OpenWithArtifact(
    const TempDir& dir, const mril::Program& program,
    const std::string& input, Pred pred, analyzer::IndexGenProgram* spec,
    core::ManimalSystem::Submission* job,
    std::vector<std::string>* baseline) {
  core::ManimalSystem::Options options;
  options.workspace_dir = dir.file("ws");
  options.simulated_startup_seconds = 0;
  auto system = core::ManimalSystem::Open(options);
  EXPECT_OK(system.status());
  auto report = analyzer::Analyze(program);
  EXPECT_OK(report.status());
  if (!system.ok() || !report.ok()) return nullptr;
  bool found = false;
  for (const analyzer::IndexGenProgram& s :
       analyzer::SynthesizeIndexPrograms(program, *report)) {
    if (!found && pred(s)) {
      *spec = s;
      found = true;
    }
  }
  EXPECT_TRUE(found) << "no matching spec for " << program.name;
  if (!found) return nullptr;
  EXPECT_OK((*system)->BuildIndex(*spec, input).status());
  job->program = program;
  job->input_path = input;
  job->output_path = dir.file("baseline.prs");
  EXPECT_OK((*system)->RunBaseline(*job).status());
  auto pairs = exec::ReadCanonicalPairs(job->output_path);
  EXPECT_OK(pairs.status());
  if (!pairs.ok()) return nullptr;
  *baseline = std::move(pairs).value();
  return std::move(system).value();
}

// Column-group artifacts commit by temp + rename. A rebuild of the same
// spec on the same input reuses the artifact's paths; failing it at any
// one filesystem operation (fail_nth sweeps every site, short writes
// included) must leave the cataloged artifact readable and its output
// equal to the conventional run's.
TEST(ColumnGroupTornRebuild, FailedRebuildKeepsCatalogedArtifact) {
  TempDir dir("diff-cg-torn");
  const std::string input = dir.file("pages.msq");
  workloads::WebPagesOptions gen;
  gen.num_pages = 1500;
  gen.content_len = 48;
  gen.rank_range = kRankRange;
  ASSERT_OK(workloads::GenerateWebPages(input, gen).status());

  analyzer::IndexGenProgram groups;
  core::ManimalSystem::Submission job;
  std::vector<std::string> baseline;
  auto system = OpenWithArtifact(
      dir, workloads::ProjectionQuery(kRankRange / 2), input,
      [](const analyzer::IndexGenProgram& s) { return s.column_groups; },
      &groups, &job, &baseline);
  ASSERT_NE(system, nullptr);
  const std::vector<Status> failed =
      SweepFailedRebuilds(system.get(), groups, input, job,
                          exec::AccessPath::kColumnGroups, baseline, dir);
  EXPECT_GE(failed.size(), 5u) << "the sweep never reached the sibling files";
}

// The same sweep over the rebuilds whose scan runs on parallel workers
// (map_parallelism 4, the default): a locator B+Tree and a re-encoded
// (projected) SeqFile, over an input of more than 16 blocks. The
// workers read the input armed exactly when the caller is, so the
// sweep must also fail the workers' block reads: at least half as many
// input reads as the input has blocks.
enum class RebuiltArtifact { kBTree, kReencoded };

class ParallelTornRebuild
    : public ::testing::TestWithParam<RebuiltArtifact> {};

TEST_P(ParallelTornRebuild, FailedRebuildKeepsCatalogedArtifact) {
  TempDir dir("diff-parallel-torn");
  const std::string input = dir.file("pages.msq");
  workloads::WebPagesOptions gen;
  gen.num_pages = 3000;
  gen.content_len = 64;
  gen.rank_range = kRankRange;
  ASSERT_OK(workloads::GenerateWebPages(input, gen).status());
  ASSERT_OK_AND_ASSIGN(auto reader, columnar::SeqFileReader::Open(input));
  const uint64_t blocks = reader->num_blocks();
  ASSERT_GE(blocks, 16u);

  const bool tree = GetParam() == RebuiltArtifact::kBTree;
  analyzer::IndexGenProgram spec;
  core::ManimalSystem::Submission job;
  std::vector<std::string> baseline;
  auto system =
      tree ? OpenWithArtifact(
                 dir, workloads::SelectionCountQuery(kRankRange / 20), input,
                 [](const analyzer::IndexGenProgram& s) {
                   return s.btree && !s.clustered && !s.projection;
                 },
                 &spec, &job, &baseline)
           : OpenWithArtifact(
                 dir, workloads::ProjectionQuery(kRankRange / 2), input,
                 [](const analyzer::IndexGenProgram& s) {
                   return s.projection && !s.btree && !s.column_groups;
                 },
                 &spec, &job, &baseline);
  ASSERT_NE(system, nullptr);
  ASSERT_EQ(system->options().map_parallelism, 4);
  const std::vector<Status> failed = SweepFailedRebuilds(
      system.get(), spec, input, job,
      tree ? exec::AccessPath::kBTree : exec::AccessPath::kSeqScan, baseline,
      dir);
  const std::string input_read = "injected fault: read " + input;
  uint64_t input_reads = 0;
  for (const Status& status : failed) {
    if (status.ToString().find(input_read) != std::string::npos) {
      ++input_reads;
    }
  }
  EXPECT_GE(2 * input_reads, blocks)
      << "only " << input_reads << " of " << failed.size()
      << " failed rebuilds failed on an input read";
}

INSTANTIATE_TEST_SUITE_P(
    Artifacts, ParallelTornRebuild,
    ::testing::Values(RebuiltArtifact::kBTree, RebuiltArtifact::kReencoded),
    [](const ::testing::TestParamInfo<RebuiltArtifact>& info) {
      return std::string(info.param == RebuiltArtifact::kBTree ? "BTree"
                                                               : "Reencoded");
    });

}  // namespace
}  // namespace manimal
