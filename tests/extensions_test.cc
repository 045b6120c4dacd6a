// Tests for the paper's extension features: "safe mode" (footnote 2 —
// never perturb side effects) and the Appendix E reduce-side
// GROUP-BY/WHERE filter (delete map output before the shuffle when the
// reduce provably discards the group).

#include <gtest/gtest.h>

#include "analyzer/analyzer.h"
#include "analyzer/expr_eval.h"
#include "analyzer/reduce_filter.h"
#include "core/manimal.h"
#include "exec/pairfile.h"
#include "mril/builder.h"
#include "tests/test_util.h"
#include "workloads/datagen.h"
#include "workloads/pavlo.h"
#include "workloads/schemas.h"

namespace manimal::analyzer {
namespace {

using mril::FunctionBuilder;
using mril::Program;
using mril::ProgramBuilder;
using testing::TempDir;

// A GROUP-BY with a WHERE on the aggregate's key: count per rank, but
// only report ranks above `key_threshold`. The reduce aggregates in a
// loop first — the filter analysis must survive the cycle.
Program CountPerRankWhereKeyAbove(int64_t key_threshold) {
  ProgramBuilder b("count-where-key");
  b.SetKeyType(FieldType::kI64)
      .SetValueSchema(workloads::WebPagesSchema());
  auto& m = b.Map();
  m.LoadParam(1).GetField("rank");
  m.LoadI64(1);
  m.Emit().Ret();
  auto& r = b.Reduce();
  int i = r.NewLocal(), n = r.NewLocal(), sum = r.NewLocal();
  r.LoadI64(0).StoreLocal(i).LoadI64(0).StoreLocal(sum);
  r.LoadParam(1).Call("list.len").StoreLocal(n);
  r.Label("loop");
  r.LoadLocal(i).LoadLocal(n).CmpGe().JmpIfTrue("done");
  r.LoadLocal(sum).LoadParam(1).LoadLocal(i).Call("list.get").Add()
      .StoreLocal(sum);
  r.LoadLocal(i).LoadI64(1).Add().StoreLocal(i);
  r.Jmp("loop");
  r.Label("done");
  // WHERE key > threshold
  r.LoadParam(0).LoadI64(key_threshold).CmpGt().JmpIfFalse("end");
  r.LoadParam(0).LoadLocal(sum).Emit();
  r.Label("end").Ret();
  return b.Build();
}

// ---------------- reduce filter detection ----------------

TEST(ReduceFilterTest, DetectsKeyGuardDespiteAggregationLoop) {
  Program p = CountPerRankWhereKeyAbove(500);
  ReduceFilterResult r = FindReduceKeyFilter(p);
  ASSERT_TRUE(r.descriptor.has_value()) << r.miss_reason;
  ASSERT_EQ(r.descriptor->required.terms.size(), 1u);
  const SelectTerm& term = r.descriptor->required.terms[0];
  EXPECT_TRUE(term.polarity);
  EXPECT_EQ(term.expr->ToString(), "(param0 cmp_gt i64:500)");
  // The literal holds exactly when the key passes.
  for (int64_t key : {0, 500, 501, 999}) {
    ASSERT_OK_AND_ASSIGN(
        Value v, EvalExpr(term.expr, Value::I64(key), Value::Null()));
    EXPECT_EQ(v.bool_value(), key > 500);
  }
}

TEST(ReduceFilterTest, UnguardedReduceHasNoFilter) {
  ReduceFilterResult r =
      FindReduceKeyFilter(workloads::Benchmark2Aggregation());
  EXPECT_FALSE(r.descriptor.has_value());
  EXPECT_TRUE(r.miss_reason.empty());  // not a failure, just nothing
}

TEST(ReduceFilterTest, ValueDependentGuardIsNotKeyOnly) {
  // WHERE sum > 10 is not a key predicate; no filter may be derived.
  ProgramBuilder b("sum-guard");
  b.SetValueSchema(workloads::WebPagesSchema());
  b.Map().LoadParam(1).GetField("rank").LoadI64(1).Emit().Ret();
  auto& r = b.Reduce();
  int n = r.NewLocal();
  r.LoadParam(1).Call("list.len").StoreLocal(n);
  r.LoadLocal(n).LoadI64(10).CmpGt().JmpIfFalse("end");
  r.LoadParam(0).LoadLocal(n).Emit();
  r.Label("end").Ret();
  ReduceFilterResult result = FindReduceKeyFilter(b.Build());
  EXPECT_FALSE(result.descriptor.has_value());
}

TEST(ReduceFilterTest, MemberWritingReduceIsVetoed) {
  ProgramBuilder b("stateful-reduce");
  b.SetValueSchema(workloads::WebPagesSchema());
  b.AddMember("groups", Value::I64(0));
  b.Map().LoadParam(1).GetField("rank").LoadI64(1).Emit().Ret();
  auto& r = b.Reduce();
  r.LoadMember("groups").LoadI64(1).Add().StoreMember("groups");
  r.LoadParam(0).LoadI64(5).CmpGt().JmpIfFalse("end");
  r.LoadParam(0).LoadMember("groups").Emit();
  r.Label("end").Ret();
  ReduceFilterResult result = FindReduceKeyFilter(b.Build());
  EXPECT_FALSE(result.descriptor.has_value());
  EXPECT_NE(result.miss_reason.find("member"), std::string::npos);
}

TEST(ReduceFilterTest, PartialGuardIsNotDerived) {
  // One emit guarded by the key, another unconditional: no key
  // predicate covers all emits, so no filtering.
  ProgramBuilder b("partial-guard");
  b.SetValueSchema(workloads::WebPagesSchema());
  b.Map().LoadParam(1).GetField("rank").LoadI64(1).Emit().Ret();
  auto& r = b.Reduce();
  r.LoadParam(0).LoadI64(5).CmpGt().JmpIfFalse("skip");
  r.LoadParam(0).LoadI64(1).Emit();
  r.Label("skip");
  r.LoadParam(0).LoadI64(2).Emit();  // always emits
  r.Ret();
  ReduceFilterResult result = FindReduceKeyFilter(b.Build());
  EXPECT_FALSE(result.descriptor.has_value());
}

// ---------------- reduce filter end-to-end ----------------

TEST(ReduceFilterTest, EndToEndPrunesShuffleAndPreservesOutput) {
  TempDir dir("reduce-filter");
  workloads::WebPagesOptions gen;
  gen.num_pages = 8000;
  gen.content_len = 64;
  gen.rank_range = 1000;
  ASSERT_OK(
      workloads::GenerateWebPages(dir.file("pages.msq"), gen).status());

  core::ManimalSystem::Options options;
  options.workspace_dir = dir.file("ws");
  options.simulated_startup_seconds = 0;
  ASSERT_OK_AND_ASSIGN(auto system, core::ManimalSystem::Open(options));

  Program program = CountPerRankWhereKeyAbove(900);  // keep top 10%
  core::ManimalSystem::Submission job;
  job.program = program;
  job.input_path = dir.file("pages.msq");

  // Baseline: everything shuffles; the reduce discards 90% of groups.
  job.output_path = dir.file("base.prs");
  ASSERT_OK_AND_ASSIGN(exec::JobResult baseline,
                       system->RunBaseline(job));
  EXPECT_EQ(baseline.counters.map_output_filtered, 0u);

  // Submit: the optimizer attaches the filter even with no artifacts.
  job.output_path = dir.file("opt.prs");
  ASSERT_OK_AND_ASSIGN(auto outcome, system->Submit(job));
  EXPECT_TRUE(outcome.plan.optimized) << outcome.plan.explanation;
  ASSERT_TRUE(outcome.report.reduce_filter.has_value());
  EXPECT_GT(outcome.job.counters.map_output_filtered,
            baseline.counters.map_output_records / 2);
  EXPECT_LT(outcome.job.counters.map_output_records,
            baseline.counters.map_output_records / 4);

  ASSERT_OK_AND_ASSIGN(auto a,
                       exec::ReadCanonicalPairs(dir.file("base.prs")));
  ASSERT_OK_AND_ASSIGN(auto b,
                       exec::ReadCanonicalPairs(dir.file("opt.prs")));
  EXPECT_EQ(a, b);
  EXPECT_GT(a.size(), 0u);
}

// The filter's literal is evaluated outside the VM, so it must raise
// where the reduce raises. Here the map keys by url (str) and the
// reduce orders the key against an i64: RunBaseline fails, and Submit
// must fail the same way instead of ranking str above i64 and quietly
// dropping every pair.
TEST(ReduceFilterTest, IncomparableKeyFailsLikeBaseline) {
  TempDir dir("reduce-filter-kind");
  workloads::WebPagesOptions gen;
  gen.num_pages = 200;
  ASSERT_OK(
      workloads::GenerateWebPages(dir.file("pages.msq"), gen).status());

  ProgramBuilder b("url-where-key-below-5");
  b.SetValueSchema(workloads::WebPagesSchema());
  b.Map().LoadParam(1).GetField("url").LoadParam(1).GetField("rank")
      .Emit().Ret();
  auto& r = b.Reduce();
  r.LoadParam(0).LoadI64(5).CmpLt().JmpIfFalse("end");
  r.LoadParam(0).LoadI64(1).Emit();
  r.Label("end").Ret();

  core::ManimalSystem::Options options;
  options.workspace_dir = dir.file("ws");
  options.simulated_startup_seconds = 0;
  options.retry_backoff_ms = 0;
  ASSERT_OK_AND_ASSIGN(auto system, core::ManimalSystem::Open(options));
  core::ManimalSystem::Submission job;
  job.program = b.Build();
  job.input_path = dir.file("pages.msq");

  job.output_path = dir.file("base.prs");
  const Status baseline = system->RunBaseline(job).status();
  ASSERT_FALSE(baseline.ok());
  EXPECT_EQ(baseline.code(), StatusCode::kInvalidArgument)
      << baseline.ToString();

  job.output_path = dir.file("opt.prs");
  auto outcome = system->Submit(job);
  ASSERT_FALSE(outcome.ok())
      << "Submit returned OK: "
      << outcome->job.counters.map_output_records << " output records, "
      << outcome->job.counters.map_output_filtered << " pairs filtered";
  EXPECT_EQ(outcome.status().code(), baseline.code())
      << outcome.status().ToString();
  ASSERT_OK_AND_ASSIGN(AnalysisReport report, Analyze(job.program));
  EXPECT_TRUE(report.reduce_filter.has_value())
      << "no filter: the literal was never evaluated outside the VM";
}

// The reduce exits on its size check before it tests the key, so the
// filter literal (str key > i64) is one the reduce never evaluates:
// the conventional run succeeds with no output, and the filter must
// keep every pair it cannot evaluate rather than fail the job.
TEST(ReduceFilterTest, IncomparableKeyUnreachedPassesLikeBaseline) {
  TempDir dir("reduce-filter-unreached");
  workloads::WebPagesOptions gen;
  gen.num_pages = 200;
  ASSERT_OK(
      workloads::GenerateWebPages(dir.file("pages.msq"), gen).status());

  ProgramBuilder b("url-exits-before-key-test");
  b.SetValueSchema(workloads::WebPagesSchema());
  b.Map().LoadParam(1).GetField("url").LoadI64(1).Emit().Ret();
  auto& r = b.Reduce();
  r.LoadParam(1).Call("list.len").LoadI64(1).CmpGe().JmpIfFalse("test");
  r.Ret();
  r.Label("test");
  r.LoadParam(0).LoadI64(5).CmpGt().JmpIfFalse("end");
  r.LoadParam(0).LoadI64(1).Emit();
  r.Label("end").Ret();

  core::ManimalSystem::Options options;
  options.workspace_dir = dir.file("ws");
  options.simulated_startup_seconds = 0;
  options.retry_backoff_ms = 0;
  ASSERT_OK_AND_ASSIGN(auto system, core::ManimalSystem::Open(options));
  core::ManimalSystem::Submission job;
  job.program = b.Build();
  job.input_path = dir.file("pages.msq");
  ASSERT_OK_AND_ASSIGN(AnalysisReport report, Analyze(job.program));
  ASSERT_TRUE(report.reduce_filter.has_value());
  EXPECT_EQ(report.reduce_filter->required.terms.at(0).expr->ToString(),
            "(param0 cmp_gt i64:5)");

  job.output_path = dir.file("base.prs");
  ASSERT_OK_AND_ASSIGN(exec::JobResult baseline, system->RunBaseline(job));
  EXPECT_EQ(baseline.counters.output_records, 0u);

  job.output_path = dir.file("opt.prs");
  ASSERT_OK_AND_ASSIGN(auto outcome, system->Submit(job));
  EXPECT_EQ(outcome.job.counters.map_output_filtered, 0u);
  ASSERT_OK_AND_ASSIGN(std::string base_bytes,
                       ReadFileToString(dir.file("base.prs")));
  ASSERT_OK_AND_ASSIGN(std::string opt_bytes,
                       ReadFileToString(dir.file("opt.prs")));
  EXPECT_EQ(opt_bytes, base_bytes);
}

// ---------------- safe mode ----------------

TEST(SafeModeTest, LoggingMapLosesSelection) {
  ProgramBuilder b("logging-filter");
  b.SetValueSchema(workloads::WebPagesSchema());
  auto& m = b.Map();
  m.LoadParam(1).GetField("url").Log();  // side effect
  m.LoadParam(1).GetField("rank").LoadI64(10).CmpGt().JmpIfFalse("end");
  m.LoadParam(0).LoadI64(1).Emit();
  m.Label("end").Ret();
  Program p = b.Build();

  ASSERT_OK_AND_ASSIGN(AnalysisReport normal, Analyze(p));
  EXPECT_TRUE(normal.selection.has_value());

  AnalyzeOptions options;
  options.safe_mode = true;
  ASSERT_OK_AND_ASSIGN(AnalysisReport safe, Analyze(p, options));
  EXPECT_FALSE(safe.selection.has_value());
  bool saw_reason = false;
  for (const auto& miss : safe.misses) {
    if (miss.optimization == "selection" &&
        miss.reason.find("safe mode") != std::string::npos) {
      saw_reason = true;
    }
  }
  EXPECT_TRUE(saw_reason);
}

TEST(SafeModeTest, LogFedFieldsStayLiveUnderSafeMode) {
  // content feeds only a log: normal mode projects it away; safe mode
  // keeps it.
  ProgramBuilder b("log-field");
  b.SetValueSchema(workloads::WebPagesSchema());
  auto& m = b.Map();
  m.LoadParam(1).GetField("content").Log();
  m.LoadParam(1).GetField("url");
  m.LoadI64(1);
  m.Emit().Ret();
  Program p = b.Build();

  ASSERT_OK_AND_ASSIGN(AnalysisReport normal, Analyze(p));
  ASSERT_TRUE(normal.projection.has_value());
  EXPECT_EQ(normal.projection->unneeded_fields,
            (std::vector<int>{1, 2}));

  AnalyzeOptions options;
  options.safe_mode = true;
  ASSERT_OK_AND_ASSIGN(AnalysisReport safe, Analyze(p, options));
  ASSERT_TRUE(safe.projection.has_value());
  // content (2) is now live; rank (1) is still droppable.
  EXPECT_EQ(safe.projection->unneeded_fields, (std::vector<int>{1}));
}

TEST(SafeModeTest, SideEffectFreeProgramsAreUnaffected) {
  AnalyzeOptions options;
  options.safe_mode = true;
  ASSERT_OK_AND_ASSIGN(AnalysisReport safe,
                       Analyze(workloads::SelectionCountQuery(10),
                               options));
  EXPECT_TRUE(safe.selection.has_value());
  EXPECT_TRUE(safe.projection.has_value());
}

TEST(SafeModeTest, LoggingReduceLosesFilter) {
  ProgramBuilder b("logging-reduce");
  b.SetValueSchema(workloads::WebPagesSchema());
  b.Map().LoadParam(1).GetField("rank").LoadI64(1).Emit().Ret();
  auto& r = b.Reduce();
  r.LoadParam(0).Log();  // reduce-side debug output
  r.LoadParam(0).LoadI64(5).CmpGt().JmpIfFalse("end");
  r.LoadParam(0).LoadI64(1).Emit();
  r.Label("end").Ret();
  Program p = b.Build();

  ASSERT_OK_AND_ASSIGN(AnalysisReport normal, Analyze(p));
  EXPECT_TRUE(normal.reduce_filter.has_value());

  AnalyzeOptions options;
  options.safe_mode = true;
  ASSERT_OK_AND_ASSIGN(AnalysisReport safe, Analyze(p, options));
  EXPECT_FALSE(safe.reduce_filter.has_value());
}

TEST(ReduceFilterTest, CanBeDisabled) {
  AnalyzeOptions options;
  options.enable_reduce_filter = false;
  ASSERT_OK_AND_ASSIGN(
      AnalysisReport report,
      Analyze(CountPerRankWhereKeyAbove(5), options));
  EXPECT_FALSE(report.reduce_filter.has_value());
}

}  // namespace
}  // namespace manimal::analyzer
