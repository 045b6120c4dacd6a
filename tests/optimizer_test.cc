// Tests for the optimizer: plan selection against the catalog, the
// hard-coded ranking rules, field remaps, and the direct-operation
// program patching.

#include <gtest/gtest.h>

#include "core/manimal.h"
#include "exec/pairfile.h"
#include "optimizer/optimizer.h"
#include "tests/test_util.h"
#include "workloads/datagen.h"
#include "workloads/pavlo.h"
#include "workloads/schemas.h"
#include "mril/builder.h"

namespace manimal::optimizer {
namespace {

using core::ManimalSystem;
using testing::TempDir;

class OptimizerTest : public ::testing::Test {
 protected:
  OptimizerTest() : dir_("optimizer") {
    workloads::UserVisitsOptions gen;
    gen.num_visits = 5000;
    gen.num_pages = 500;
    EXPECT_TRUE(
        workloads::GenerateUserVisits(dir_.file("visits.msq"), gen).ok());
    ManimalSystem::Options options;
    options.workspace_dir = dir_.file("ws");
    options.simulated_startup_seconds = 0;
    auto system_or = ManimalSystem::Open(options);
    EXPECT_TRUE(system_or.ok());
    system_ = std::move(system_or).value();
  }

  std::string input() { return dir_.file("visits.msq"); }

  TempDir dir_;
  std::unique_ptr<ManimalSystem> system_;
};

TEST_F(OptimizerTest, NoArtifactsMeansBaseline) {
  mril::Program program = workloads::Benchmark2Aggregation();
  ASSERT_OK_AND_ASSIGN(auto report, analyzer::Analyze(program));
  ASSERT_OK_AND_ASSIGN(
      Plan plan, BuildPlan(program, input(), report, system_->catalog()));
  EXPECT_FALSE(plan.optimized);
  EXPECT_EQ(plan.descriptor.access_path, exec::AccessPath::kSeqScan);
  EXPECT_EQ(plan.descriptor.data_path, input());
  EXPECT_NE(plan.explanation.find("index-generation program available"),
            std::string::npos);
}

TEST_F(OptimizerTest, NoOptimizationsMeansBaselineWithoutIndexHint) {
  mril::Program program = workloads::Benchmark4UdfAggregation();
  ASSERT_OK_AND_ASSIGN(auto report, analyzer::Analyze(program));
  ASSERT_OK_AND_ASSIGN(
      Plan plan, BuildPlan(program, input(), report, system_->catalog()));
  EXPECT_FALSE(plan.optimized);
  EXPECT_NE(plan.explanation.find("no optimizations detected"),
            std::string::npos);
}

TEST_F(OptimizerTest, MaximalArtifactWinsWhenAvailable) {
  mril::Program program = workloads::Benchmark2Aggregation();
  ASSERT_OK_AND_ASSIGN(auto report, analyzer::Analyze(program));
  auto specs = analyzer::SynthesizeIndexPrograms(program, report);
  // Build everything; the maximal (first) must win.
  for (const auto& spec : specs) {
    ASSERT_OK(system_->BuildIndex(spec, input()).status());
  }
  ASSERT_OK_AND_ASSIGN(
      Plan plan, BuildPlan(program, input(), report, system_->catalog()));
  EXPECT_TRUE(plan.optimized);
  ASSERT_GE(plan.descriptor.applied.size(), 2u);  // projection + delta
}

TEST_F(OptimizerTest, FallsBackToLesserArtifact) {
  mril::Program program = workloads::Benchmark2Aggregation();
  ASSERT_OK_AND_ASSIGN(auto report, analyzer::Analyze(program));
  auto specs = analyzer::SynthesizeIndexPrograms(program, report);
  // Build only the delta-only artifact (the last-ranked candidate).
  const analyzer::IndexGenProgram* delta_only = nullptr;
  for (const auto& s : specs) {
    if (s.delta && !s.projection && !s.btree) delta_only = &s;
  }
  ASSERT_NE(delta_only, nullptr);
  ASSERT_OK(system_->BuildIndex(*delta_only, input()).status());
  ASSERT_OK_AND_ASSIGN(
      Plan plan, BuildPlan(program, input(), report, system_->catalog()));
  EXPECT_TRUE(plan.optimized);
  // delta-compression, plus the block codec of the re-encoded
  // artifact.
  ASSERT_EQ(plan.descriptor.applied.size(), 2u);
  EXPECT_NE(plan.descriptor.applied[0].find("delta"), std::string::npos);
  EXPECT_EQ(plan.descriptor.applied[1], "codec(mlz)");
}

TEST_F(OptimizerTest, ProjectionPlanCarriesFieldRemap) {
  mril::Program program = workloads::Benchmark2Aggregation();
  ASSERT_OK_AND_ASSIGN(auto report, analyzer::Analyze(program));
  auto specs = analyzer::SynthesizeIndexPrograms(program, report);
  ASSERT_OK(system_->BuildIndex(specs[0], input()).status());
  ASSERT_OK_AND_ASSIGN(
      Plan plan, BuildPlan(program, input(), report, system_->catalog()));
  ASSERT_TRUE(plan.optimized);
  // sourceIP (0) -> slot 0, adRevenue (3) -> slot 1, others dropped.
  ASSERT_EQ(plan.descriptor.field_remap.size(), 9u);
  EXPECT_EQ(plan.descriptor.field_remap[0], 0);
  EXPECT_EQ(plan.descriptor.field_remap[3], 1);
  EXPECT_EQ(plan.descriptor.field_remap[1], -1);
}

TEST_F(OptimizerTest, DirectOpPatchesConstantsThroughDictionary) {
  // Program comparing countryCode against "USA" and using duration.
  mril::ProgramBuilder b("const-eq");
  b.SetValueSchema(workloads::UserVisitsSchema());
  auto& m = b.Map();
  m.LoadParam(1).GetField("countryCode").LoadStr("USA").CmpEq()
      .JmpIfFalse("end");
  m.LoadParam(1).GetField("duration");
  m.LoadI64(1);
  m.Emit();
  m.Label("end").Ret();
  // Reduce that never reads its key.
  auto& r = b.Reduce();
  int n = r.NewLocal();
  r.LoadParam(1).Call("list.len").StoreLocal(n);
  r.LoadLocal(n).LoadLocal(n).Emit().Ret();
  mril::Program program = b.Build();

  ASSERT_OK_AND_ASSIGN(auto report, analyzer::Analyze(program));
  ASSERT_TRUE(report.direct_op.has_value()) << report.ToString();
  auto specs = analyzer::SynthesizeIndexPrograms(program, report);
  const analyzer::IndexGenProgram* dict_spec = nullptr;
  for (const auto& s : specs) {
    if (s.dictionary && !s.projection && !s.delta) dict_spec = &s;
  }
  ASSERT_NE(dict_spec, nullptr);
  ASSERT_OK(system_->BuildIndex(*dict_spec, input()).status());

  ASSERT_OK_AND_ASSIGN(
      Plan plan, BuildPlan(program, input(), report, system_->catalog()));
  ASSERT_TRUE(plan.optimized);
  // The patched copy must compare against an i64 code now; the
  // original program is untouched.
  bool patched_is_i64 = false;
  for (const auto& inst : plan.descriptor.program.map_fn.code) {
    if (inst.op == mril::Opcode::kLoadConst &&
        plan.descriptor.program.constants[inst.operand].is_i64()) {
      patched_is_i64 = true;
    }
  }
  EXPECT_TRUE(patched_is_i64);

  // End-to-end equivalence through the full system.
  ManimalSystem::Submission submission;
  submission.program = program;
  submission.input_path = input();
  submission.output_path = dir_.file("base.prs");
  ASSERT_OK(system_->RunBaseline(submission).status());
  submission.output_path = dir_.file("opt.prs");
  ASSERT_OK_AND_ASSIGN(auto outcome, system_->Submit(submission));
  EXPECT_TRUE(outcome.plan.optimized);
  ASSERT_OK_AND_ASSIGN(auto a,
                       exec::ReadCanonicalPairs(dir_.file("base.prs")));
  ASSERT_OK_AND_ASSIGN(auto b2,
                       exec::ReadCanonicalPairs(dir_.file("opt.prs")));
  EXPECT_EQ(a, b2);
}

TEST_F(OptimizerTest, ArtifactsDoNotLeakAcrossInputs) {
  mril::Program program = workloads::Benchmark2Aggregation();
  ASSERT_OK_AND_ASSIGN(auto report, analyzer::Analyze(program));
  auto specs = analyzer::SynthesizeIndexPrograms(program, report);
  ASSERT_OK(system_->BuildIndex(specs[0], input()).status());
  // A different input file with the same schema has no artifact.
  workloads::UserVisitsOptions gen;
  gen.num_visits = 100;
  gen.num_pages = 10;
  ASSERT_OK(
      workloads::GenerateUserVisits(dir_.file("other.msq"), gen).status());
  ASSERT_OK_AND_ASSIGN(Plan plan,
                       BuildPlan(program, dir_.file("other.msq"), report,
                                 system_->catalog()));
  EXPECT_FALSE(plan.optimized);
}

TEST_F(OptimizerTest, HintInjectionPathWorks) {
  // Appendix A: a layered tool supplies the report; the program itself
  // is never analyzed. Give Benchmark2's report directly.
  mril::Program program = workloads::Benchmark2Aggregation();
  ASSERT_OK_AND_ASSIGN(auto report, analyzer::Analyze(program));
  auto specs = analyzer::SynthesizeIndexPrograms(program, report);
  ASSERT_OK(system_->BuildIndex(specs[0], input()).status());

  ManimalSystem::Submission submission;
  submission.program = program;
  submission.input_path = input();
  submission.output_path = dir_.file("hint.prs");
  ASSERT_OK_AND_ASSIGN(auto outcome,
                       system_->SubmitWithReport(submission, report));
  EXPECT_TRUE(outcome.plan.optimized);
}

}  // namespace
}  // namespace manimal::optimizer
