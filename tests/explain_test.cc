// EXPLAIN / EXPLAIN ANALYZE tests: candidate-set completeness, the
// text and JSON renderings round-tripping through the obs JSON
// parser, and the differential check at the heart of EXPLAIN ANALYZE
// — the analyzer-derived per-interval predicate observation must
// agree with what the VM's actual filter execution emitted.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/strings.h"
#include "core/manimal.h"
#include "obs/json.h"
#include "optimizer/explain.h"
#include "tests/test_util.h"
#include "workloads/datagen.h"
#include "workloads/pavlo.h"

namespace manimal::optimizer {
namespace {

using testing::TempDir;

core::ManimalSystem::Options BaseOptions(const std::string& ws) {
  core::ManimalSystem::Options options;
  options.workspace_dir = ws;
  options.simulated_startup_seconds = 0;
  options.map_parallelism = 2;
  options.num_partitions = 2;
  return options;
}

void GeneratePages(const std::string& path, uint64_t pages) {
  workloads::WebPagesOptions gen;
  gen.num_pages = pages;
  gen.content_len = 32;
  gen.rank_range = 100;
  ASSERT_OK(workloads::GenerateWebPages(path, gen).status());
}

TEST(ExplainModeTest, EnvParsing) {
  EXPECT_STREQ(ExplainModeName(ExplainMode::kOff), "off");
  EXPECT_STREQ(ExplainModeName(ExplainMode::kPlan), "plan");
  EXPECT_STREQ(ExplainModeName(ExplainMode::kAnalyze), "analyze");
}

TEST(ExplainTest, OffByDefaultProducesNoReport) {
  TempDir dir("explain0");
  GeneratePages(dir.file("pages.msq"), 300);
  ASSERT_OK_AND_ASSIGN(
      auto system, core::ManimalSystem::Open(BaseOptions(dir.file("ws"))));
  core::ManimalSystem::Submission job;
  job.program = workloads::SelectionCountQuery(50);
  job.input_path = dir.file("pages.msq");
  job.output_path = dir.file("out.prs");
  ASSERT_OK_AND_ASSIGN(auto outcome, system->Submit(job));
  EXPECT_FALSE(outcome.explain.has_value());
}

TEST(ExplainTest, PlanModeListsChosenAndRejectedCandidates) {
  TempDir dir("explain1");
  GeneratePages(dir.file("pages.msq"), 500);
  mril::Program program = workloads::SelectionCountQuery(50);

  auto options = BaseOptions(dir.file("ws"));
  options.cost_based_optimizer = true;
  options.explain = ExplainMode::kPlan;
  ASSERT_OK_AND_ASSIGN(auto system,
                       core::ManimalSystem::Open(options));
  ASSERT_OK_AND_ASSIGN(auto report, analyzer::Analyze(program));
  auto specs = analyzer::SynthesizeIndexPrograms(program, report);
  ASSERT_FALSE(specs.empty());
  ASSERT_OK(system->BuildIndex(specs[0], dir.file("pages.msq")).status());

  core::ManimalSystem::Submission job;
  job.program = program;
  job.input_path = dir.file("pages.msq");
  job.output_path = dir.file("out.prs");
  ASSERT_OK_AND_ASSIGN(auto outcome, system->Submit(job));

  ASSERT_TRUE(outcome.explain.has_value());
  const ExplainReport& ex = *outcome.explain;
  EXPECT_FALSE(ex.analyzed);
  EXPECT_EQ(ex.plan.mode, "cost");
  EXPECT_FALSE(ex.plan.candidates.empty());
  int chosen = 0;
  for (const CandidateExplain& c : ex.plan.candidates) {
    EXPECT_TRUE(c.verdict == "chosen" || c.verdict == "rejected" ||
                c.verdict == "uncataloged")
        << c.verdict;
    if (c.chosen) {
      ++chosen;
      EXPECT_EQ(c.verdict, "chosen");
      EXPECT_TRUE(c.cataloged);
      EXPECT_GE(c.est_bytes, 0) << c.cost_detail;
    }
  }
  // At most one winner; the selection artifact exists, so if the cost
  // model picked it the report must say so consistently.
  EXPECT_LE(chosen, 1);
  EXPECT_EQ(chosen == 1, ex.plan.optimized);

  const std::string text = ex.ToText();
  EXPECT_NE(text.find("EXPLAIN"), std::string::npos);
  EXPECT_NE(text.find(program.name), std::string::npos);
  EXPECT_NE(text.find("candidates"), std::string::npos);
}

TEST(ExplainTest, JsonRoundTripsThroughParser) {
  TempDir dir("explain2");
  GeneratePages(dir.file("pages.msq"), 500);
  mril::Program program = workloads::SelectionCountQuery(50);

  auto options = BaseOptions(dir.file("ws"));
  options.explain = ExplainMode::kPlan;
  options.explain_path = dir.file("explain.jsonl");
  ASSERT_OK_AND_ASSIGN(auto system,
                       core::ManimalSystem::Open(options));
  core::ManimalSystem::Submission job;
  job.program = program;
  job.input_path = dir.file("pages.msq");
  job.output_path = dir.file("out.prs");
  ASSERT_OK_AND_ASSIGN(auto outcome, system->Submit(job));
  ASSERT_TRUE(outcome.explain.has_value());

  obs::JsonValue parsed;
  std::string error;
  ASSERT_TRUE(obs::JsonParse(outcome.explain->ToJson(), &parsed, &error))
      << error;
  EXPECT_EQ(parsed.NumberOr("explain_version", -1),
            kExplainSchemaVersion);
  const obs::JsonValue* plan = parsed.Find("plan");
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->StringOr("program", ""), program.name);
  EXPECT_EQ(plan->StringOr("mode", ""), "rule");
  const obs::JsonValue* candidates = plan->Find("candidates");
  ASSERT_NE(candidates, nullptr);
  ASSERT_TRUE(candidates->is_array());
  EXPECT_EQ(candidates->items.size(),
            outcome.explain->plan.candidates.size());

  // The explain_path sidecar holds the same document as one JSON line.
  ASSERT_OK_AND_ASSIGN(std::string sidecar,
                       ReadFileToString(dir.file("explain.jsonl")));
  ASSERT_FALSE(sidecar.empty());
  EXPECT_EQ(sidecar.back(), '\n');
  obs::JsonValue sidecar_parsed;
  ASSERT_TRUE(obs::JsonParse(sidecar, &sidecar_parsed, &error)) << error;
  EXPECT_EQ(sidecar_parsed.NumberOr("explain_version", -1),
            kExplainSchemaVersion);
}

// The differential at the core of EXPLAIN ANALYZE: under a seqscan
// plan the fabric evaluates the analyzer-derived predicate intervals
// over every record, INDEPENDENTLY of the VM executing the program's
// own filter bytecode. Both mechanisms must agree on the selectivity,
// and both must agree with the generator's ground truth (pageRank
// uniform in [0, 100), threshold 50 -> about half the records).
TEST(ExplainTest, AnalyzeObservedSelectivityMatchesVmExecution) {
  TempDir dir("explain3");
  GeneratePages(dir.file("pages.msq"), 2000);

  auto options = BaseOptions(dir.file("ws"));
  options.explain = ExplainMode::kAnalyze;
  ASSERT_OK_AND_ASSIGN(auto system,
                       core::ManimalSystem::Open(options));
  core::ManimalSystem::Submission job;
  job.program = workloads::SelectionCountQuery(50);
  job.input_path = dir.file("pages.msq");
  job.output_path = dir.file("out.prs");
  ASSERT_OK_AND_ASSIGN(auto outcome, system->Submit(job));

  ASSERT_TRUE(outcome.explain.has_value());
  const ExplainReport& ex = *outcome.explain;
  EXPECT_TRUE(ex.analyzed);
  EXPECT_EQ(ex.job_id, outcome.job.job_id);
  EXPECT_FALSE(ex.job_id.empty());
  EXPECT_EQ(ex.rows_scanned, outcome.job.counters.map_invocations);
  EXPECT_TRUE(ex.predicates_observed);
  ASSERT_FALSE(ex.drift.empty());
  EXPECT_FALSE(ex.tasks.empty());

  // VM side: what the program's own filter let through.
  const double vm_selectivity =
      static_cast<double>(outcome.job.counters.map_output_records +
                          outcome.job.counters.map_output_filtered) /
      static_cast<double>(outcome.job.counters.map_invocations);
  // Analyzer side: the per-interval observation.
  double observed_total = 0;
  for (const DriftRow& row : ex.drift) {
    ASSERT_GE(row.observed, 0) << row.predicate;
    ASSERT_LE(row.observed, 1) << row.predicate;
    observed_total += row.observed;
  }
  EXPECT_NEAR(observed_total, vm_selectivity, 1e-9);
  EXPECT_NEAR(ex.observed_selectivity, vm_selectivity, 1e-9);
  // Generator ground truth.
  EXPECT_NEAR(observed_total, 0.5, 0.1);

  const std::string text = ex.ToText();
  EXPECT_NE(text.find("EXPLAIN ANALYZE"), std::string::npos);
  EXPECT_NE(text.find("selectivity"), std::string::npos);
}

// The reduce tier is visible on both sides of EXPLAIN ANALYZE: the
// plan says whether the reduce is a fold and which, and the run says
// which tier reduced and how many groups it folded.
TEST(ExplainTest, AnalyzeShowsTheReduceTier) {
  TempDir dir("explain5");
  GeneratePages(dir.file("pages.msq"), 500);
  auto options = BaseOptions(dir.file("ws"));
  options.explain = ExplainMode::kAnalyze;
  ASSERT_OK_AND_ASSIGN(auto system, core::ManimalSystem::Open(options));
  core::ManimalSystem::Submission job;
  job.program = workloads::SelectionCountQuery(50);
  job.input_path = dir.file("pages.msq");
  job.output_path = dir.file("out.prs");
  ASSERT_OK_AND_ASSIGN(auto outcome, system->Submit(job));
  ASSERT_TRUE(outcome.explain.has_value());
  const ExplainReport& ex = *outcome.explain;
  EXPECT_TRUE(ex.plan.reduce_native_eligible);
  EXPECT_EQ(ex.plan.reduce_native_detail,
            "fold acc = i64:0; per value acc = (acc add elem); "
            "emit(key, acc)");
  EXPECT_EQ(ex.reduce_backend, "native");
  EXPECT_GT(ex.counters.native_reduce_groups, 0u);
  EXPECT_EQ(ex.counters.native_reduce_groups, ex.counters.reduce_groups);
  EXPECT_EQ(ex.counters.reduce_bailout_groups, 0u);
  for (const exec::TaskStat& t : ex.tasks) {
    if (t.kind == 'r') {
      EXPECT_EQ(t.vm_instructions, 0u);
    }
  }
  const std::string text = ex.ToText();
  EXPECT_NE(text.find("reduce native: eligible=yes (fold acc"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("reduce backend: native (closure fold"),
            std::string::npos)
      << text;

  obs::JsonValue parsed;
  std::string error;
  ASSERT_TRUE(obs::JsonParse(ex.ToJson(), &parsed, &error)) << error;
  const obs::JsonValue* plan = parsed.Find("plan");
  ASSERT_NE(plan, nullptr);
  ASSERT_NE(plan->Find("reduce_native_eligible"), nullptr);
  EXPECT_TRUE(plan->Find("reduce_native_eligible")->bool_value);
  EXPECT_EQ(plan->StringOr("reduce_native_detail", ""),
            ex.plan.reduce_native_detail);
  const obs::JsonValue* exec_json = parsed.Find("exec");
  ASSERT_NE(exec_json, nullptr);
  EXPECT_EQ(exec_json->StringOr("reduce_backend", ""), "native");
  const obs::JsonValue* counters = exec_json->Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->NumberOr("reduce_bailout_groups", -1), 0);
  // Both renderings carry every job counter under its name.
  ex.counters.ForEach([&](const char* name, uint64_t value) {
    EXPECT_EQ(counters->NumberOr(name, -1), static_cast<double>(value))
        << name;
    EXPECT_NE(text.find(StrPrintf(" %s=%llu", name,
                                  static_cast<unsigned long long>(value))),
              std::string::npos)
        << name << " missing from:\n" << text;
  });

  // A map-only job has no reduce tier to report.
  job.program = workloads::ProjectionQuery(50);
  job.output_path = dir.file("map-only.prs");
  ASSERT_OK_AND_ASSIGN(auto map_only, system->Submit(job));
  ASSERT_TRUE(map_only.explain.has_value());
  EXPECT_FALSE(map_only.explain->plan.reduce_native_eligible);
  EXPECT_EQ(map_only.explain->plan.reduce_native_detail, "");
  EXPECT_EQ(map_only.explain->reduce_backend, "");
  EXPECT_EQ(map_only.explain->ToText().find("reduce backend"),
            std::string::npos);
}

// With a B+Tree artifact cataloged, the drift report joins the
// tree-derived estimate against the observation, giving ROADMAP item
// 4 its feedback signal. (Under the indexed plan the scan pre-filters
// rows, so the observation measures index precision, ~1.0.)
TEST(ExplainTest, AnalyzeJoinsEstimatesIntoDrift) {
  TempDir dir("explain4");
  GeneratePages(dir.file("pages.msq"), 1000);
  mril::Program program = workloads::SelectionCountQuery(50);

  auto options = BaseOptions(dir.file("ws"));
  options.cost_based_optimizer = true;
  options.explain = ExplainMode::kAnalyze;
  ASSERT_OK_AND_ASSIGN(auto system,
                       core::ManimalSystem::Open(options));
  ASSERT_OK_AND_ASSIGN(auto report, analyzer::Analyze(program));
  auto specs = analyzer::SynthesizeIndexPrograms(program, report);
  ASSERT_FALSE(specs.empty());
  ASSERT_OK(system->BuildIndex(specs[0], dir.file("pages.msq")).status());

  core::ManimalSystem::Submission job;
  job.program = program;
  job.input_path = dir.file("pages.msq");
  job.output_path = dir.file("out.prs");
  ASSERT_OK_AND_ASSIGN(auto outcome, system->Submit(job));

  ASSERT_TRUE(outcome.explain.has_value());
  const ExplainReport& ex = *outcome.explain;
  ASSERT_TRUE(ex.analyzed);
  ASSERT_FALSE(ex.drift.empty());
  bool any_estimated = false;
  for (const DriftRow& row : ex.drift) {
    if (row.estimated >= 0) {
      any_estimated = true;
      EXPECT_LE(row.estimated, 1) << row.predicate;
    }
  }
  EXPECT_TRUE(any_estimated)
      << "no drift row carried a B+Tree estimate:\n" << ex.ToText();
}

// docs/observability.md's "Job counters" table names every row of
// MANIMAL_JOB_COUNTERS, in table order, and nothing else.
TEST(CounterTableTest, DocsListEveryCounter) {
  ASSERT_OK_AND_ASSIGN(
      std::string doc,
      ReadFileToString(std::string(MANIMAL_DOCS_DIR) + "/observability.md"));
  const size_t section = doc.find("\n## Job counters\n");
  ASSERT_NE(section, std::string::npos) << "no Job counters section";
  // The section's first run of rows that open with a `name` cell.
  std::vector<std::string> documented;
  std::istringstream lines(doc.substr(section));
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("| `", 0) == 0) {
      documented.push_back(line.substr(3, line.find('`', 3) - 3));
    } else if (!documented.empty()) {
      break;
    }
  }
  std::vector<std::string> declared;
  exec::JobCounters().ForEach(
      [&declared](const char* name, uint64_t) { declared.push_back(name); });
  EXPECT_EQ(documented, declared);
}

}  // namespace
}  // namespace manimal::optimizer
