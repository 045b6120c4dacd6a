// Tests for cost-based planning: selectivity estimation from B+Tree
// fan-out, per-candidate pricing, and the planner declining indexes
// that would read more than the scan — including end-to-end
// equivalence whichever mode picks the plan.

#include <gtest/gtest.h>

#include <cmath>
#include <optional>

#include "analyzer/analyzer.h"
#include "columnar/seqfile.h"
#include "common/faulty_env.h"
#include "core/manimal.h"
#include "exec/pairfile.h"
#include "index/btree.h"
#include "optimizer/cost.h"
#include "optimizer/optimizer.h"
#include "serde/key_codec.h"
#include "stats/stats.h"
#include "tests/test_util.h"
#include "workloads/datagen.h"
#include "workloads/pavlo.h"
#include "workloads/schemas.h"

namespace manimal::optimizer {
namespace {

using testing::TempDir;

std::string Key(int64_t v) {
  std::string out;
  EXPECT_OK(EncodeOrderedKey(Value::I64(v), &out));
  return out;
}

// The one cataloged candidate in `plan`'s EXPLAIN payload.
const CandidateExplain* CatalogedCandidate(const Plan& plan) {
  const CandidateExplain* found = nullptr;
  for (const CandidateExplain& ce : plan.explain.candidates) {
    if (!ce.cataloged) continue;
    EXPECT_EQ(found, nullptr) << "more than one cataloged candidate";
    found = &ce;
  }
  return found;
}

TEST(CostTest, RangeFractionFromFanout) {
  TempDir dir("cost-frac");
  std::string path = dir.file("t.idx");
  {
    index::BTreeBuilder::Options opts;
    opts.target_node_bytes = 512;  // many root children
    ASSERT_OK_AND_ASSIGN(auto builder,
                         index::BTreeBuilder::Create(path, opts));
    for (int i = 0; i < 10000; ++i) {
      ASSERT_OK(builder->Add(Key(i), "p"));
    }
    ASSERT_OK(builder->Finish().status());
  }
  ASSERT_OK_AND_ASSIGN(auto reader, index::BTreeReader::Open(path));

  // Uniform keys 0..9999: the estimate should track the true fraction
  // within the fan-out granularity.
  struct Case {
    int64_t lo, hi;
    double expected;
  };
  for (const Case& c : {Case{0, 9999, 1.0}, Case{0, 4999, 0.5},
                        Case{9000, 9999, 0.1}, Case{5000, 5999, 0.1}}) {
    ASSERT_OK_AND_ASSIGN(double fraction,
                         reader->EstimateRangeFraction(Key(c.lo),
                                                       Key(c.hi)));
    EXPECT_NEAR(fraction, c.expected, 0.12)
        << "[" << c.lo << "," << c.hi << "]";
  }
  // Unbounded ranges.
  ASSERT_OK_AND_ASSIGN(double all,
                       reader->EstimateRangeFraction(std::nullopt,
                                                     std::nullopt));
  EXPECT_DOUBLE_EQ(all, 1.0);
  // Out-of-range lower bound: only the last root child can be counted
  // (its upper extent is unknown to the estimator), so the estimate is
  // small but conservatively nonzero.
  ASSERT_OK_AND_ASSIGN(double none, reader->EstimateRangeFraction(
                                        Key(20000), std::nullopt));
  EXPECT_LT(none, 0.2);
}

TEST(CostTest, SingleLeafIsExact) {
  TempDir dir("cost-leaf");
  std::string path = dir.file("t.idx");
  {
    ASSERT_OK_AND_ASSIGN(auto builder, index::BTreeBuilder::Create(path));
    for (int i = 0; i < 20; ++i) ASSERT_OK(builder->Add(Key(i), "p"));
    ASSERT_OK(builder->Finish().status());
  }
  ASSERT_OK_AND_ASSIGN(auto reader, index::BTreeReader::Open(path));
  ASSERT_OK_AND_ASSIGN(double fraction,
                       reader->EstimateRangeFraction(Key(5), Key(9)));
  EXPECT_DOUBLE_EQ(fraction, 0.25);  // 5 of 20
}

class CostPlanningTest : public ::testing::Test {
 protected:
  CostPlanningTest() : dir_("cost-plan") {
    workloads::WebPagesOptions gen;
    gen.num_pages = 8000;
    gen.content_len = 96;
    gen.rank_range = 1000;
    EXPECT_TRUE(
        workloads::GenerateWebPages(dir_.file("pages.msq"), gen).ok());
  }

  std::unique_ptr<core::ManimalSystem> OpenSystem(bool cost_based) {
    core::ManimalSystem::Options options;
    options.workspace_dir =
        dir_.file(cost_based ? "ws-cost" : "ws-rule");
    options.simulated_startup_seconds = 0;
    options.cost_based_optimizer = cost_based;
    auto system_or = core::ManimalSystem::Open(options);
    EXPECT_TRUE(system_or.ok());
    return std::move(system_or).value();
  }

  // Builds only the locator-btree artifact for `program`.
  void BuildLocatorOnly(core::ManimalSystem* system,
                        const mril::Program& program) {
    auto report_or = analyzer::Analyze(program);
    ASSERT_TRUE(report_or.ok());
    auto specs = analyzer::SynthesizeIndexPrograms(program, *report_or);
    const analyzer::IndexGenProgram* locator = nullptr;
    for (const auto& s : specs) {
      if (s.btree && !s.clustered && !s.projection) locator = &s;
    }
    ASSERT_NE(locator, nullptr);
    ASSERT_OK(
        system->BuildIndex(*locator, dir_.file("pages.msq")).status());
  }

  TempDir dir_;
};

TEST_F(CostPlanningTest, DeclinesIndexWorseThanScan) {
  // 80% selectivity: a locator index reads the index PLUS nearly every
  // base block — strictly worse than scanning. Rule-based uses it
  // anyway; cost-based declines.
  mril::Program program = workloads::SelectionCountQuery(200);

  auto rule_system = OpenSystem(false);
  BuildLocatorOnly(rule_system.get(), program);
  core::ManimalSystem::Submission job;
  job.program = program;
  job.input_path = dir_.file("pages.msq");
  job.output_path = dir_.file("rule.prs");
  ASSERT_OK_AND_ASSIGN(auto rule, rule_system->Submit(job));
  EXPECT_TRUE(rule.plan.optimized);
  EXPECT_NE(rule.plan.explanation.find("btree"), std::string::npos);

  auto cost_system = OpenSystem(true);
  BuildLocatorOnly(cost_system.get(), program);
  job.output_path = dir_.file("cost.prs");
  ASSERT_OK_AND_ASSIGN(auto cost, cost_system->Submit(job));
  EXPECT_NE(cost.plan.explanation.find("no cataloged artifact beats"),
            std::string::npos)
      << cost.plan.explanation;
  // Cost-based read fewer or equal bytes than the misused index.
  EXPECT_LE(cost.job.counters.input_bytes,
            rule.job.counters.input_bytes);

  ASSERT_OK_AND_ASSIGN(auto a,
                       exec::ReadCanonicalPairs(dir_.file("rule.prs")));
  ASSERT_OK_AND_ASSIGN(auto b,
                       exec::ReadCanonicalPairs(dir_.file("cost.prs")));
  EXPECT_EQ(a, b);
}

TEST_F(CostPlanningTest, PicksIndexAtNeedleSelectivity) {
  // ~0.1% selectivity: even the byte-conservative cost model (every
  // match may decode a whole base block) prices the index far below
  // the scan.
  mril::Program program = workloads::SelectionCountQuery(999);
  auto cost_system = OpenSystem(true);
  BuildLocatorOnly(cost_system.get(), program);
  core::ManimalSystem::Submission job;
  job.program = program;
  job.input_path = dir_.file("pages.msq");
  job.output_path = dir_.file("needle.prs");
  ASSERT_OK_AND_ASSIGN(auto outcome, cost_system->Submit(job));
  EXPECT_TRUE(outcome.plan.optimized) << outcome.plan.explanation;
  EXPECT_NE(outcome.plan.explanation.find("cost-based choice"),
            std::string::npos);
  EXPECT_LT(outcome.job.counters.map_invocations, 400u);
}

TEST_F(CostPlanningTest, ChoosesCheapestAmongSeveral) {
  // Build locator btree AND clustered btree AND projection; at 50%
  // selectivity the projection artifact (tiny rows, full scan) should
  // win on bytes.
  mril::Program program = workloads::SelectionCountQuery(500);
  auto system = OpenSystem(true);
  ASSERT_OK_AND_ASSIGN(auto report, analyzer::Analyze(program));
  auto specs = analyzer::SynthesizeIndexPrograms(program, report);
  for (const auto& s : specs) {
    ASSERT_OK(system->BuildIndex(s, dir_.file("pages.msq")).status());
  }
  core::ManimalSystem::Submission job;
  job.program = program;
  job.input_path = dir_.file("pages.msq");
  job.output_path = dir_.file("multi.prs");
  ASSERT_OK_AND_ASSIGN(auto outcome, system->Submit(job));
  ASSERT_TRUE(outcome.plan.optimized);
  // Whatever won, its realized bytes must be below the raw input size.
  ASSERT_OK_AND_ASSIGN(uint64_t input_bytes,
                       GetFileSize(dir_.file("pages.msq")));
  EXPECT_LT(outcome.job.counters.input_bytes, input_bytes / 2);

  // And the output still matches the baseline.
  job.output_path = dir_.file("base.prs");
  ASSERT_OK_AND_ASSIGN(auto baseline, system->RunBaseline(job));
  (void)baseline;
  ASSERT_OK_AND_ASSIGN(auto a,
                       exec::ReadCanonicalPairs(dir_.file("multi.prs")));
  ASSERT_OK_AND_ASSIGN(auto b,
                       exec::ReadCanonicalPairs(dir_.file("base.prs")));
  EXPECT_EQ(a, b);
}

TEST(CostTest, BaselineCostIsInputSize) {
  CandidateCost cost = BaselineCost(12345);
  EXPECT_DOUBLE_EQ(cost.bytes, 12345.0);
  EXPECT_DOUBLE_EQ(cost.selectivity, 1.0);
}

analyzer::KeyInterval Iv(std::optional<int64_t> lo, bool lo_inclusive,
                         std::optional<int64_t> hi, bool hi_inclusive) {
  analyzer::KeyInterval iv;
  if (lo.has_value()) iv.lo = Value::I64(*lo);
  iv.lo_inclusive = lo_inclusive;
  if (hi.has_value()) iv.hi = Value::I64(*hi);
  iv.hi_inclusive = hi_inclusive;
  return iv;
}

TEST(CanonicalizeIntervalsTest, DropsEmptyAndMergesOverlap) {
  auto merged = CanonicalizeIntervals({
      Iv(9, true, 3, true),    // inverted bounds: empty
      Iv(7, true, 7, false),   // point without both-inclusive: empty
      Iv(5, true, 20, true),   // deliberately out of order
      Iv(0, true, 10, true),
      Iv(15, true, 30, true),
  });
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].lo->Compare(Value::I64(0)), 0);
  EXPECT_EQ(merged[0].hi->Compare(Value::I64(30)), 0);
  EXPECT_TRUE(merged[0].lo_inclusive);
  EXPECT_TRUE(merged[0].hi_inclusive);
}

TEST(CanonicalizeIntervalsTest, TouchingBoundsMergeUnlessBothExclude) {
  // [0,5] ∪ (5,10] covers every point of [0,10] — one interval.
  auto touching =
      CanonicalizeIntervals({Iv(0, true, 5, true), Iv(5, false, 10, true)});
  ASSERT_EQ(touching.size(), 1u);
  EXPECT_EQ(touching[0].hi->Compare(Value::I64(10)), 0);
  // (0,5) ∪ (5,10) genuinely excludes 5 — must stay two intervals.
  auto open = CanonicalizeIntervals(
      {Iv(0, false, 5, false), Iv(5, false, 10, false)});
  ASSERT_EQ(open.size(), 2u);
  EXPECT_FALSE(open[0].Contains(Value::I64(5)));
  EXPECT_FALSE(open[1].Contains(Value::I64(5)));
}

TEST(CanonicalizeIntervalsTest, UnboundedSidesAbsorb) {
  // (-inf,5] ∪ [3,+inf) is the whole domain.
  auto merged = CanonicalizeIntervals(
      {Iv(3, true, std::nullopt, true), Iv(std::nullopt, true, 5, true)});
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_FALSE(merged[0].lo.has_value());
  EXPECT_FALSE(merged[0].hi.has_value());
  // A containing interval swallows a contained one without shrinking.
  auto contained =
      CanonicalizeIntervals({Iv(10, true, 20, true), Iv(0, true, 100, true)});
  ASSERT_EQ(contained.size(), 1u);
  EXPECT_EQ(contained[0].lo->Compare(Value::I64(0)), 0);
  EXPECT_EQ(contained[0].hi->Compare(Value::I64(100)), 0);
}

// Builds a 10000-key uniform tree with a wide root (many children).
std::unique_ptr<index::BTreeReader> UniformTree(const std::string& path) {
  index::BTreeBuilder::Options opts;
  opts.target_node_bytes = 512;
  auto builder_or = index::BTreeBuilder::Create(path, opts);
  EXPECT_TRUE(builder_or.ok());
  auto builder = std::move(builder_or).value();
  for (int i = 0; i < 10000; ++i) {
    EXPECT_OK(builder->Add(Key(i), "p"));
  }
  EXPECT_TRUE(builder->Finish().ok());
  auto reader_or = index::BTreeReader::Open(path);
  EXPECT_TRUE(reader_or.ok());
  return std::move(reader_or).value();
}

stats::ColumnStats UniformColumn() {
  stats::ColumnStatsCollector collector;
  for (int i = 0; i < 10000; ++i) collector.Add(Key(i));
  return collector.Finish();
}

TEST(CostTest, OverlappingIntervalsAreNotDoubleCounted) {
  // Regression: [0,4999] ∪ [2500,5999] covers 60% of the keys; summing
  // the two raw per-interval fractions would claim 85%. The estimator
  // must canonicalize first and price the merged interval once.
  TempDir dir("cost-overlap");
  auto tree = UniformTree(dir.file("t.idx"));
  std::vector<std::pair<std::string, double>> per_interval;
  std::string provenance;
  ASSERT_OK_AND_ASSIGN(
      double sel,
      EstimateSelectivity(tree.get(), nullptr,
                          {Iv(0, true, 4999, true), Iv(2500, true, 5999, true)},
                          &per_interval, &provenance));
  EXPECT_EQ(per_interval.size(), 1u) << "intervals were not merged";
  EXPECT_NEAR(sel, 0.6, 0.12);
  EXPECT_LT(sel, 0.8);
  EXPECT_EQ(provenance, "btree-fanout");
}

TEST(CostTest, SelectivityPrefersHistogramAndFallsBackToFanout) {
  TempDir dir("cost-fallback");
  auto tree = UniformTree(dir.file("t.idx"));
  stats::ColumnStats column = UniformColumn();
  const std::vector<analyzer::KeyInterval> query = {
      Iv(4000, false, std::nullopt, true)};  // key > 4000: 60%

  std::vector<std::pair<std::string, double>> pi;
  std::string provenance;
  ASSERT_OK_AND_ASSIGN(double hist, EstimateSelectivity(nullptr, &column,
                                                        query, &pi,
                                                        &provenance));
  EXPECT_EQ(provenance, "histogram");
  EXPECT_NEAR(hist, 0.6, 0.06);

  // With both available the histogram wins.
  pi.clear();
  ASSERT_OK_AND_ASSIGN(double both, EstimateSelectivity(tree.get(), &column,
                                                        query, &pi,
                                                        &provenance));
  EXPECT_EQ(provenance, "histogram");
  EXPECT_DOUBLE_EQ(both, hist);

  // An unusable (empty) column falls back to the tree's fan-out.
  stats::ColumnStats unusable;
  pi.clear();
  ASSERT_OK_AND_ASSIGN(double fanout,
                       EstimateSelectivity(tree.get(), &unusable, query, &pi,
                                           &provenance));
  EXPECT_EQ(provenance, "btree-fanout");
  EXPECT_NEAR(fanout, 0.6, 0.12);

  // Neither estimator is an error, not a guess.
  pi.clear();
  EXPECT_FALSE(
      EstimateSelectivity(nullptr, nullptr, query, &pi, &provenance).ok());
}

TEST(StatsTest, RoundTripAndEstimates) {
  stats::TableStatsCollector collector({"field:1"});
  for (int i = 0; i < 10000; ++i) {
    const std::string key = Key(i);
    collector.AddRow({key});
  }
  TempDir dir("stats-rt");
  const std::string path = dir.file("stats.json");
  ASSERT_OK(collector.Finish().SaveTo(path));
  ASSERT_OK_AND_ASSIGN(stats::TableStats loaded,
                       stats::TableStats::Load(path));
  EXPECT_EQ(loaded.row_count, 10000u);
  const stats::ColumnStats* c = loaded.Find("field:1");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->row_count, 10000u);
  EXPECT_NEAR(c->ndv, 10000.0, 2500.0);
  // In-domain range tracks the true fraction within sampling noise.
  EXPECT_NEAR(c->EstimateRangeFraction(Key(0), true, Key(4999), true), 0.5,
              0.06);
  // Out-of-domain range is exactly zero.
  EXPECT_DOUBLE_EQ(
      c->EstimateRangeFraction(Key(20000), true, std::nullopt, true), 0.0);
  // An in-domain point lookup is floored at ~1/NDV, never zero.
  const double point = c->EstimateRangeFraction(Key(7777), true, Key(7777),
                                                true);
  EXPECT_GT(point, 0.0);
  EXPECT_LT(point, 0.01);
}

TEST(CostTest, CanonicalizedDriftBeatsNaiveSummation) {
  // The drift the bugfix removes, measured: on overlapping intervals
  // [0,4999] ∪ [2500,5999] the true matching fraction is 0.6. The old
  // estimator summed raw per-interval fractions (0.5 + 0.35 = 0.85);
  // the canonicalizing estimator prices the merged range once. Its
  // estimated-vs-actual drift must be strictly smaller than the naive
  // sum's on the same query.
  TempDir dir("cost-drift");
  auto tree = UniformTree(dir.file("t.idx"));
  stats::ColumnStats column = UniformColumn();
  const std::vector<analyzer::KeyInterval> query = {
      Iv(0, true, 4999, true), Iv(2500, true, 5999, true)};
  const double truth = 0.6;

  double naive = 0;  // what the pre-fix estimator computed
  for (const analyzer::KeyInterval& iv : query) {
    std::string lo_key, hi_key;
    ASSERT_OK(EncodeOrderedKey(*iv.lo, &lo_key));
    ASSERT_OK(EncodeOrderedKey(*iv.hi, &hi_key));
    naive += column.EstimateRangeFraction(lo_key, iv.lo_inclusive, hi_key,
                                          iv.hi_inclusive);
  }
  std::vector<std::pair<std::string, double>> pi;
  std::string provenance;
  ASSERT_OK_AND_ASSIGN(double canonical,
                       EstimateSelectivity(nullptr, &column, query, &pi,
                                           &provenance));
  EXPECT_NEAR(naive, 0.85, 0.06);
  EXPECT_LT(std::abs(canonical - truth), std::abs(naive - truth));

  // And out past the key domain both estimators now agree on exactly
  // zero — the histogram without touching the tree at all.
  const std::vector<analyzer::KeyInterval> beyond = {
      Iv(20000, true, std::nullopt, true)};
  pi.clear();
  ASSERT_OK_AND_ASSIGN(double hist, EstimateSelectivity(nullptr, &column,
                                                        beyond, &pi,
                                                        &provenance));
  pi.clear();
  ASSERT_OK_AND_ASSIGN(double fanout,
                       EstimateSelectivity(tree.get(), nullptr, beyond, &pi,
                                           &provenance));
  EXPECT_DOUBLE_EQ(hist, 0.0);
  EXPECT_DOUBLE_EQ(fanout, 0.0);
}

TEST_F(CostPlanningTest, StatsRideTheCatalogIntoThePlan) {
  mril::Program program = workloads::SelectionCountQuery(200);
  auto system = OpenSystem(true);
  BuildLocatorOnly(system.get(), program);

  // The build wrote a stats sidecar and the catalog references it.
  auto entries = system->catalog().FindForInput(dir_.file("pages.msq"));
  ASSERT_EQ(entries.size(), 1u);
  ASSERT_FALSE(entries[0].stats_path.empty());
  ASSERT_OK_AND_ASSIGN(stats::TableStats table,
                       stats::TableStats::Load(entries[0].stats_path));
  EXPECT_EQ(table.row_count, 8000u);

  // rank > 200 over uniform [0,1000): ~80%, estimated from the
  // histogram and recorded as the cataloged candidate's provenance.
  core::ManimalSystem::Submission job;
  job.program = program;
  job.input_path = dir_.file("pages.msq");
  job.output_path = dir_.file("prov.prs");
  ASSERT_OK_AND_ASSIGN(auto outcome, system->Submit(job));
  const CandidateExplain* tree = CatalogedCandidate(outcome.plan);
  ASSERT_NE(tree, nullptr);
  EXPECT_EQ(tree->provenance, "histogram");
  EXPECT_NEAR(tree->est_selectivity, 0.8, 0.05);
}

// ---- tail-skewed input ----

// Input where a histogram estimate that is right on average is wrong
// for every prefix of the file: rank == record ordinal, so every record
// matching `rank > kThreshold` sits in the file's tail. Cost-based
// planning keeps the scan at the ~10% estimate; a rule-based run reads
// the locator tree, whose file-ordered locators touch only the tail.
class TailSkewTest : public ::testing::Test {
 protected:
  static constexpr int64_t kNumRecords = 6000;
  static constexpr int64_t kThreshold = 5400;

  void SetUp() override {
    ASSERT_OK_AND_ASSIGN(
        auto writer,
        columnar::SeqFileWriter::Create(
            input(), columnar::PlainMeta(workloads::WebPagesSchema())));
    const std::string content(96, 'x');
    for (int64_t i = 0; i < kNumRecords; ++i) {
      Record record = {Value::Str(workloads::PageUrl(i)), Value::I64(i),
                       Value::Str(content)};
      ASSERT_OK(writer->Append(record));
    }
    ASSERT_OK(writer->Finish().status());
  }

  std::string input() const { return dir_.file("skewed.msq"); }

  std::unique_ptr<core::ManimalSystem> OpenSystem(const std::string& ws,
                                                  bool cost_based) {
    core::ManimalSystem::Options options;
    options.workspace_dir = dir_.file(ws);
    options.simulated_startup_seconds = 0;
    options.cost_based_optimizer = cost_based;
    options.map_parallelism = 1;
    options.num_partitions = 1;
    options.retry_backoff_ms = 0;
    auto system_or = core::ManimalSystem::Open(options);
    EXPECT_TRUE(system_or.ok());
    return std::move(system_or).value();
  }

  void BuildLocator(core::ManimalSystem* system,
                    const mril::Program& program) {
    auto report_or = analyzer::Analyze(program);
    ASSERT_TRUE(report_or.ok());
    auto specs = analyzer::SynthesizeIndexPrograms(program, *report_or);
    const analyzer::IndexGenProgram* locator = nullptr;
    for (const auto& s : specs) {
      if (s.btree && !s.clustered && !s.projection) locator = &s;
    }
    ASSERT_NE(locator, nullptr);
    ASSERT_OK(system->BuildIndex(*locator, input()).status());
  }

  TempDir dir_{"tail-skew"};
};

TEST_F(TailSkewTest, LocatorTreeMatchesBaseline) {
  mril::Program program = workloads::SelectionCountQuery(kThreshold);
  core::ManimalSystem::Submission job;
  job.program = program;
  job.input_path = input();

  // Cost-based planning keeps the scan: at the histogram's ~10%
  // estimate a locator tree would touch nearly every base block.
  auto cost = OpenSystem("ws-cost", true);
  BuildLocator(cost.get(), program);
  job.output_path = dir_.file("cost.prs");
  ASSERT_OK_AND_ASSIGN(auto scanned, cost->Submit(job));
  EXPECT_EQ(scanned.plan.descriptor.access_path, exec::AccessPath::kSeqScan);
  const CandidateExplain* tree = CatalogedCandidate(scanned.plan);
  ASSERT_NE(tree, nullptr);
  EXPECT_EQ(tree->provenance, "histogram");
  EXPECT_NEAR(tree->est_selectivity, 0.1, 0.05);

  job.output_path = dir_.file("baseline.prs");
  ASSERT_OK_AND_ASSIGN(auto baseline, cost->RunBaseline(job));

  // Rule-based planning reads the locator tree for the whole job.
  auto rule = OpenSystem("ws-rule", false);
  BuildLocator(rule.get(), program);
  job.output_path = dir_.file("rule.prs");
  ASSERT_OK_AND_ASSIGN(auto indexed, rule->Submit(job));
  EXPECT_EQ(indexed.plan.descriptor.access_path, exec::AccessPath::kBTree);
  EXPECT_FALSE(indexed.plan.descriptor.clustered);

  ASSERT_OK_AND_ASSIGN(auto a,
                       exec::ReadCanonicalPairs(dir_.file("rule.prs")));
  ASSERT_OK_AND_ASSIGN(auto b,
                       exec::ReadCanonicalPairs(dir_.file("baseline.prs")));
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);

  // The tree touches only the matching tail instead of the whole file.
  EXPECT_LT(indexed.job.counters.input_bytes, baseline.counters.input_bytes);
  EXPECT_LT(indexed.job.counters.map_invocations,
            baseline.counters.map_invocations);
}

TEST_F(TailSkewTest, LocatorTreeMatchesBaselineUnderFaults) {
  mril::Program program = workloads::SelectionCountQuery(kThreshold);
  auto rule = OpenSystem("ws-fault", false);
  BuildLocator(rule.get(), program);

  core::ManimalSystem::Submission job;
  job.program = program;
  job.input_path = input();
  job.output_path = dir_.file("baseline.prs");
  ASSERT_OK(rule->RunBaseline(job).status());
  ASSERT_OK_AND_ASSIGN(auto canonical,
                       exec::ReadCanonicalPairs(job.output_path));
  ASSERT_FALSE(canonical.empty());

  // Whether a given seed fires depends on per-run temp paths; sweep
  // the seeds and require every faulted run — retried tasks over the
  // tree's locator splits — to match the fault-free baseline.
  bool fired = false;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    FaultyEnv::Config fault;
    fault.seed = seed;
    fault.rate = 0.03;
    fault.max_failures = 3;
    ScopedFaultInjection inject(fault);
    job.output_path = dir_.file("fault-" + std::to_string(seed) + ".prs");
    ASSERT_OK_AND_ASSIGN(auto outcome, rule->Submit(job));
    ASSERT_EQ(outcome.plan.descriptor.access_path, exec::AccessPath::kBTree);
    if (FaultyEnv::Get().stats().injected > 0) {
      fired = true;
      ASSERT_OK_AND_ASSIGN(auto pairs,
                           exec::ReadCanonicalPairs(job.output_path));
      EXPECT_EQ(pairs, canonical) << "seed " << seed;
    }
  }
  EXPECT_TRUE(fired) << "no seed injected a fault; test lost its teeth";
}

}  // namespace
}  // namespace manimal::optimizer
