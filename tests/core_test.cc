// Tests for the ManimalSystem facade: workspace lifecycle, catalog
// persistence across reopen (indexes outlive the process, like RDBMS
// indexes), and submission edge cases.

#include <gtest/gtest.h>

#include "core/manimal.h"
#include "exec/pairfile.h"
#include "tests/test_util.h"
#include "workloads/datagen.h"
#include "workloads/pavlo.h"

namespace manimal::core {
namespace {

using testing::TempDir;

ManimalSystem::Options BaseOptions(const std::string& ws) {
  ManimalSystem::Options options;
  options.workspace_dir = ws;
  options.simulated_startup_seconds = 0;
  options.map_parallelism = 2;
  options.num_partitions = 2;
  return options;
}

TEST(ManimalSystemTest, RequiresWorkspace) {
  ManimalSystem::Options options;
  EXPECT_FALSE(ManimalSystem::Open(options).ok());
}

TEST(ManimalSystemTest, CatalogPersistsAcrossReopen) {
  TempDir dir("core1");
  workloads::WebPagesOptions gen;
  gen.num_pages = 1000;
  gen.content_len = 64;
  ASSERT_OK(
      workloads::GenerateWebPages(dir.file("pages.msq"), gen).status());
  mril::Program program = workloads::SelectionCountQuery(50000);

  // Session 1: build an index.
  {
    ASSERT_OK_AND_ASSIGN(auto system,
                         ManimalSystem::Open(BaseOptions(dir.file("ws"))));
    ASSERT_OK_AND_ASSIGN(auto report, analyzer::Analyze(program));
    auto specs = analyzer::SynthesizeIndexPrograms(program, report);
    ASSERT_FALSE(specs.empty());
    ASSERT_OK(
        system->BuildIndex(specs[0], dir.file("pages.msq")).status());
    EXPECT_EQ(system->catalog().entries().size(), 1u);
  }

  // Session 2: a fresh open sees the artifact and uses it.
  {
    ASSERT_OK_AND_ASSIGN(auto system,
                         ManimalSystem::Open(BaseOptions(dir.file("ws"))));
    EXPECT_EQ(system->catalog().entries().size(), 1u);
    ManimalSystem::Submission job;
    job.program = program;
    job.input_path = dir.file("pages.msq");
    job.output_path = dir.file("out.prs");
    ASSERT_OK_AND_ASSIGN(auto outcome, system->Submit(job));
    EXPECT_TRUE(outcome.plan.optimized) << outcome.plan.explanation;
  }
}

TEST(ManimalSystemTest, RebuildingAnIndexReplacesIt) {
  TempDir dir("core2");
  workloads::WebPagesOptions gen;
  gen.num_pages = 500;
  gen.content_len = 64;
  ASSERT_OK(
      workloads::GenerateWebPages(dir.file("pages.msq"), gen).status());
  ASSERT_OK_AND_ASSIGN(auto system,
                       ManimalSystem::Open(BaseOptions(dir.file("ws"))));
  mril::Program program = workloads::SelectionCountQuery(100);
  ASSERT_OK_AND_ASSIGN(auto report, analyzer::Analyze(program));
  auto specs = analyzer::SynthesizeIndexPrograms(program, report);
  ASSERT_OK(system->BuildIndex(specs[0], dir.file("pages.msq")).status());
  ASSERT_OK(system->BuildIndex(specs[0], dir.file("pages.msq")).status());
  // Same signature: replaced, not duplicated.
  EXPECT_EQ(system->catalog().entries().size(), 1u);
}

TEST(ManimalSystemTest, SubmitFailsCleanlyOnMissingInput) {
  TempDir dir("core3");
  ASSERT_OK_AND_ASSIGN(auto system,
                       ManimalSystem::Open(BaseOptions(dir.file("ws"))));
  ManimalSystem::Submission job;
  job.program = workloads::SelectionCountQuery(1);
  job.input_path = dir.file("nope.msq");
  job.output_path = dir.file("out.prs");
  EXPECT_FALSE(system->Submit(job).ok());
}

TEST(ManimalSystemTest, SubmitRejectsMalformedPrograms) {
  TempDir dir("core4");
  ASSERT_OK_AND_ASSIGN(auto system,
                       ManimalSystem::Open(BaseOptions(dir.file("ws"))));
  mril::Program broken;
  broken.name = "broken";
  broken.map_fn.name = "map";
  broken.map_fn.num_params = 2;
  broken.map_fn.code = {{mril::Opcode::kPop, 0},
                        {mril::Opcode::kReturn, 0}};
  ManimalSystem::Submission job;
  job.program = broken;
  job.input_path = dir.file("x");
  job.output_path = dir.file("y");
  EXPECT_FALSE(system->Submit(job).ok());
}

TEST(ManimalSystemTest, BaselineNeverConsultsCatalog) {
  TempDir dir("core5");
  workloads::WebPagesOptions gen;
  gen.num_pages = 500;
  gen.content_len = 64;
  gen.rank_range = 100;
  ASSERT_OK(
      workloads::GenerateWebPages(dir.file("pages.msq"), gen).status());
  ASSERT_OK_AND_ASSIGN(auto system,
                       ManimalSystem::Open(BaseOptions(dir.file("ws"))));
  mril::Program program = workloads::SelectionCountQuery(50);
  ASSERT_OK_AND_ASSIGN(auto report, analyzer::Analyze(program));
  auto specs = analyzer::SynthesizeIndexPrograms(program, report);
  ASSERT_OK(system->BuildIndex(specs[0], dir.file("pages.msq")).status());

  ManimalSystem::Submission job;
  job.program = program;
  job.input_path = dir.file("pages.msq");
  job.output_path = dir.file("base.prs");
  ASSERT_OK_AND_ASSIGN(auto baseline, system->RunBaseline(job));
  // Full scan: every record mapped.
  EXPECT_EQ(baseline.counters.map_invocations, 500u);
}

// Each call removes the scratch directory it took under <workspace>/tmp
// when it returns, whether it succeeded or failed.
TEST(ManimalSystemTest, CallsLeaveNoScratchDirectories) {
  TempDir dir("core6");
  workloads::WebPagesOptions gen;
  gen.num_pages = 500;
  gen.content_len = 64;
  ASSERT_OK(
      workloads::GenerateWebPages(dir.file("pages.msq"), gen).status());
  ASSERT_OK_AND_ASSIGN(auto system,
                       ManimalSystem::Open(BaseOptions(dir.file("ws"))));
  mril::Program program = workloads::SelectionCountQuery(50);
  ASSERT_OK_AND_ASSIGN(auto report, analyzer::Analyze(program));
  auto specs = analyzer::SynthesizeIndexPrograms(program, report);
  ASSERT_FALSE(specs.empty());
  ASSERT_OK(system->BuildIndex(specs[0], dir.file("pages.msq")).status());

  ManimalSystem::Submission job;
  job.program = program;
  job.input_path = dir.file("pages.msq");
  job.output_path = dir.file("out.prs");
  ASSERT_OK(system->Submit(job).status());
  job.output_path = dir.file("base.prs");
  ASSERT_OK(system->RunBaseline(job).status());
  // Fails after the engine has created its scratch directory.
  job.input_path = dir.file("missing.msq");
  EXPECT_FALSE(system->RunBaseline(job).ok());

  ASSERT_OK_AND_ASSIGN(std::vector<std::string> left,
                       ListDir(dir.file("ws/tmp")));
  EXPECT_EQ(left, std::vector<std::string>{});
}

}  // namespace
}  // namespace manimal::core
