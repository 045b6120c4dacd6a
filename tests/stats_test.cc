// Tests for statistics per input version (DESIGN.md §7): the per-row
// collector, whole and split into its in-order sample and merged KMV
// sketches, against one reference ColumnStatsCollector per column, one
// stats file per input version shared by every catalog entry of it,
// reuse across builds of that version, stale entries after the input
// is rewritten, and the fallbacks when the stats file goes bad.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "analyzer/analyzer.h"
#include "analyzer/index_gen.h"
#include "columnar/seqfile.h"
#include "common/env.h"
#include "common/strings.h"
#include "core/manimal.h"
#include "exec/pairfile.h"
#include "mril/builder.h"
#include "serde/key_codec.h"
#include "stats/stats.h"
#include "tests/test_util.h"
#include "workloads/datagen.h"
#include "workloads/pavlo.h"
#include "workloads/schemas.h"

namespace manimal::stats {
namespace {

using testing::TempDir;

// Feeds every record of the plain SeqFile at `path` to one
// ColumnStatsCollector per field, to a TableStatsCollector over the
// same fields, and to a split one: AddRowSample in row order, plus KMV
// sketches built over an uneven partition of the rows and merged in
// shuffled order, as parallel index builds feed it. The shared per-row
// reservoir decision and the merged sketches must reproduce every
// column exactly.
void ExpectRowCollectorMatchesPerColumn(const std::string& path) {
  ASSERT_OK_AND_ASSIGN(auto reader, columnar::SeqFileReader::Open(path));
  const int nfields = reader->meta().original_schema.num_fields();
  std::vector<std::string> names;
  for (int i = 0; i < nfields; ++i) {
    names.push_back("field:" + std::to_string(i));
  }
  std::vector<ColumnStatsCollector> reference(nfields);
  TableStatsCollector table(names);
  TableStatsCollector split(names);
  std::mt19937 rng(7);
  std::discrete_distribution<int> part_of({50, 30, 15, 5});
  std::vector<std::vector<KmvSketch>> parts(
      4, std::vector<KmvSketch>(nfields));
  ASSERT_OK_AND_ASSIGN(auto stream, reader->ScanAll());
  Record record;
  std::vector<std::string> keys(nfields);
  std::vector<std::string_view> views(nfields);
  uint64_t rows = 0;
  for (;;) {
    ASSERT_OK_AND_ASSIGN(bool more, stream.Next(&record));
    if (!more) break;
    const int part = part_of(rng);
    for (int i = 0; i < nfields; ++i) {
      keys[i].clear();
      ASSERT_OK(EncodeOrderedKey(record[i], &keys[i]));
      reference[i].Add(keys[i]);
      parts[part][i].Add(keys[i]);
      views[i] = keys[i];
    }
    table.AddRow(views);
    split.AddRowSample(views);
    ++rows;
  }
  ASSERT_GT(rows, 1024u) << "the reservoir must overflow to be tested";
  std::vector<int> merge_order = {0, 1, 2, 3};
  std::shuffle(merge_order.begin(), merge_order.end(), rng);
  for (int part : merge_order) {
    for (int i = 0; i < nfields; ++i) split.MergeSketch(i, parts[part][i]);
  }
  for (const TableStats& collected : {table.Finish(), split.Finish()}) {
    EXPECT_EQ(collected.row_count, rows);
    ASSERT_EQ(collected.columns.size(), names.size());
    for (int i = 0; i < nfields; ++i) {
      SCOPED_TRACE(names[i]);
      const ColumnStats want = reference[i].Finish();
      const ColumnStats& got = collected.columns.at(names[i]);
      EXPECT_EQ(got.row_count, want.row_count);
      EXPECT_EQ(got.histogram, want.histogram);
      EXPECT_EQ(got.sample, want.sample);
      EXPECT_EQ(got.ndv, want.ndv);
    }
  }
}

TEST(StatsCollectorTest, RowCollectorMatchesPerColumnOnUserVisits) {
  TempDir dir("stats-eq-visits");
  workloads::UserVisitsOptions gen;
  gen.num_visits = 5000;
  gen.num_pages = 300;
  ASSERT_OK(
      workloads::GenerateUserVisits(dir.file("visits.msq"), gen).status());
  ExpectRowCollectorMatchesPerColumn(dir.file("visits.msq"));
}

TEST(StatsCollectorTest, RowCollectorMatchesPerColumnOnWebPages) {
  TempDir dir("stats-eq-pages");
  workloads::WebPagesOptions gen;
  gen.num_pages = 3000;
  gen.content_len = 64;
  ASSERT_OK(
      workloads::GenerateWebPages(dir.file("pages.msq"), gen).status());
  ExpectRowCollectorMatchesPerColumn(dir.file("pages.msq"));
}

TEST(StatsCollectorTest, JsonRoundTripKeepsTheFingerprint) {
  TableStatsCollector collector({"field:0"});
  for (int i = 0; i < 50; ++i) {
    std::string key;
    ASSERT_OK(EncodeOrderedKey(Value::I64(i), &key));
    collector.AddRow({key});
  }
  TableStats table = collector.Finish();
  table.fingerprint = "123-456-00000000000000ff";
  ASSERT_OK_AND_ASSIGN(TableStats parsed, TableStats::FromJson(table.ToJson()));
  EXPECT_EQ(parsed.fingerprint, table.fingerprint);
  EXPECT_EQ(parsed.row_count, 50u);
  EXPECT_EQ(parsed.columns.at("field:0").histogram,
            table.columns.at("field:0").histogram);
}

// ---- one stats file per input version ----

// map: if (duration % 7 == 3) emit(sourceIP, duration). The B+Tree it
// asks for is keyed by the computed `duration % 7`, which no field
// column describes.
mril::Program ComputedKeySelection() {
  mril::ProgramBuilder b("computed-key-selection");
  b.SetValueSchema(workloads::UserVisitsSchema());
  mril::FunctionBuilder& m = b.Map();
  m.LoadParam(1).GetField("duration").LoadI64(7).Mod();
  m.LoadI64(3).CmpEq().JmpIfFalse("end");
  m.LoadParam(1).GetField("sourceIP");
  m.LoadParam(1).GetField("duration");
  m.Emit();
  m.Label("end").Ret();
  return b.Build();
}

class InputVersionTest : public ::testing::Test {
 protected:
  InputVersionTest() : dir_("stats-version") {
    Generate(/*seed=*/1, /*rows=*/4000);
    system_ = Open();
  }

  void Generate(uint64_t seed, uint64_t rows) {
    workloads::UserVisitsOptions gen;
    gen.num_visits = rows;
    gen.num_pages = 300;
    gen.seed = seed;
    ASSERT_OK(workloads::GenerateUserVisits(input(), gen).status());
  }

  std::unique_ptr<core::ManimalSystem> Open() {
    core::ManimalSystem::Options options;
    options.workspace_dir = dir_.file("ws");
    options.simulated_startup_seconds = 0;
    options.explain = optimizer::ExplainMode::kPlan;
    auto system = core::ManimalSystem::Open(options);
    EXPECT_TRUE(system.ok()) << system.status().ToString();
    return std::move(system).value();
  }

  std::string input() const { return dir_.file("visits.msq"); }

  // The first synthesized spec of `program` matching `pred`.
  template <typename Pred>
  analyzer::IndexGenProgram Spec(const mril::Program& program, Pred pred) {
    auto report = analyzer::Analyze(program);
    EXPECT_TRUE(report.ok());
    for (const auto& spec :
         analyzer::SynthesizeIndexPrograms(program, *report)) {
      if (pred(spec)) return spec;
    }
    ADD_FAILURE() << "no matching spec for " << program.name;
    return {};
  }

  analyzer::IndexGenProgram B2Projection() {
    return Spec(workloads::Benchmark2Aggregation(), [](const auto& s) {
      return s.projection && !s.delta && !s.btree && !s.column_groups;
    });
  }

  mril::Program B3() {
    workloads::UserVisitsOptions gen;
    return workloads::Benchmark3Join(
        gen.date_epoch, gen.date_epoch + gen.date_range / 100 - 1);
  }

  analyzer::IndexGenProgram B3Tree() {
    return Spec(B3(), [](const auto& s) {
      return s.btree && !s.clustered && !s.projection;
    });
  }

  std::vector<std::string> StatsFiles() {
    std::vector<std::string> out;
    auto names = ListDir(dir_.file("ws/artifacts"));
    EXPECT_TRUE(names.ok());
    for (const std::string& name : *names) {
      if (name.rfind("stats-", 0) == 0) out.push_back(name);
    }
    return out;
  }

  // Submits `program` and checks its output against the conventional
  // run; returns the outcome.
  core::ManimalSystem::SubmitOutcome SubmitMatchingBaseline(
      const mril::Program& program, const std::string& tag) {
    core::ManimalSystem::Submission job;
    job.program = program;
    job.input_path = input();
    job.output_path = dir_.file(tag + "-base.prs");
    EXPECT_OK(system_->RunBaseline(job).status());
    auto baseline = exec::ReadCanonicalPairs(job.output_path);
    EXPECT_TRUE(baseline.ok());
    job.output_path = dir_.file(tag + ".prs");
    auto outcome = system_->Submit(job);
    EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
    if (!outcome.ok()) return {};
    auto pairs = exec::ReadCanonicalPairs(job.output_path);
    EXPECT_TRUE(pairs.ok());
    if (pairs.ok() && baseline.ok()) {
      EXPECT_EQ(*pairs, *baseline);
    }
    return std::move(outcome).value();
  }

  TempDir dir_;
  std::unique_ptr<core::ManimalSystem> system_;
};

// The verdict EXPLAIN gave the candidate `describe`, "" if absent.
std::string Verdict(const core::ManimalSystem::SubmitOutcome& outcome,
                    const std::string& describe) {
  for (const auto& c : outcome.plan.explain.candidates) {
    if (c.describe == describe) return c.verdict;
  }
  return "";
}

TEST_F(InputVersionTest, SecondBuildOfOneVersionWritesNoStats) {
  ASSERT_OK_AND_ASSIGN(auto first, system_->BuildIndex(B2Projection(),
                                                       input()));
  ASSERT_NE(first.stats, nullptr);
  const std::string path = first.entry.stats_path;
  ASSERT_FALSE(path.empty());
  ASSERT_OK_AND_ASSIGN(std::string bytes, ReadFileToString(path));
  ASSERT_OK_AND_ASSIGN(int64_t mtime, GetFileMtimeNanos(path));

  // B3's tree is keyed by the plain field visitDate, which field:2
  // already describes: nothing to collect, nothing to write.
  ASSERT_OK_AND_ASSIGN(auto second, system_->BuildIndex(B3Tree(), input()));
  EXPECT_EQ(second.stats, nullptr);
  EXPECT_EQ(second.entry.stats_path, path);
  EXPECT_EQ(second.entry.input_fingerprint, first.entry.input_fingerprint);
  ASSERT_OK_AND_ASSIGN(std::string bytes_after, ReadFileToString(path));
  ASSERT_OK_AND_ASSIGN(int64_t mtime_after, GetFileMtimeNanos(path));
  EXPECT_EQ(bytes_after, bytes);
  EXPECT_EQ(mtime_after, mtime);
  EXPECT_EQ(StatsFiles().size(), 1u);

  const TableStats* held = system_->catalog().StatsFor(input());
  ASSERT_NE(held, nullptr);
  EXPECT_EQ(held->fingerprint, first.entry.input_fingerprint);
  EXPECT_EQ(held->row_count, 4000u);
  for (const auto& [name, column] : held->columns) {
    EXPECT_EQ(name.rfind("field:", 0), 0u) << name;
  }

  // The tree is still priced from the histogram.
  auto outcome = SubmitMatchingBaseline(B3(), "b3");
  EXPECT_EQ(outcome.plan.explain.est_provenance, "histogram");
}

TEST_F(InputVersionTest, ComputedKeyAddsOnlyItsExprColumn) {
  ASSERT_OK_AND_ASSIGN(auto first, system_->BuildIndex(B2Projection(),
                                                       input()));
  ASSERT_NE(first.stats, nullptr);
  const mril::Program program = ComputedKeySelection();
  const analyzer::IndexGenProgram tree =
      Spec(program, [](const auto& s) { return s.btree && !s.clustered; });
  ASSERT_TRUE(tree.btree);
  const std::string column = "expr:" + tree.key_expr->ToString();

  ASSERT_OK_AND_ASSIGN(auto second, system_->BuildIndex(tree, input()));
  ASSERT_NE(second.stats, nullptr) << "the expr column must be committed";
  EXPECT_EQ(second.entry.stats_path, first.entry.stats_path);
  EXPECT_EQ(second.stats->columns.size(), first.stats->columns.size() + 1);
  ASSERT_NE(second.stats->Find(column), nullptr);
  // The field columns are carried over, not collected again.
  for (const auto& [name, stats] : first.stats->columns) {
    EXPECT_EQ(second.stats->columns.at(name).histogram, stats.histogram);
  }
  ASSERT_OK_AND_ASSIGN(TableStats on_disk,
                       TableStats::Load(second.entry.stats_path));
  EXPECT_NE(on_disk.Find(column), nullptr);
  EXPECT_EQ(system_->catalog().StatsFor(input())->columns.size(),
            second.stats->columns.size());

  // Rebuilding the same tree finds its column and writes nothing.
  ASSERT_OK_AND_ASSIGN(auto third, system_->BuildIndex(tree, input()));
  EXPECT_EQ(third.stats, nullptr);

  auto outcome = SubmitMatchingBaseline(program, "computed");
  EXPECT_TRUE(outcome.plan.optimized);
  EXPECT_EQ(outcome.plan.explain.est_provenance, "histogram");
}

TEST_F(InputVersionTest, RewrittenInputStalesEntriesUntilRebuilt) {
  ASSERT_OK(system_->BuildIndex(B2Projection(), input()).status());
  ASSERT_OK(system_->BuildIndex(B3Tree(), input()).status());
  const std::string tree = B3Tree().Describe();
  EXPECT_EQ(Verdict(SubmitMatchingBaseline(B3(), "before"), tree), "chosen");

  Generate(/*seed=*/777, /*rows=*/3000);
  ASSERT_OK_AND_ASSIGN(auto rebuilt, system_->BuildIndex(B2Projection(),
                                                         input()));
  ASSERT_NE(rebuilt.stats, nullptr);
  EXPECT_EQ(rebuilt.stats->row_count, 3000u);
  ASSERT_OK_AND_ASSIGN(TableStats on_disk,
                       TableStats::Load(rebuilt.entry.stats_path));
  EXPECT_EQ(on_disk.row_count, 3000u);
  EXPECT_EQ(on_disk.fingerprint, rebuilt.entry.input_fingerprint);
  EXPECT_EQ(system_->catalog().StatsFor(input())->row_count, 3000u);
  EXPECT_EQ(StatsFiles().size(), 1u);

  // The tree was built from the previous version: stale, never chosen.
  auto stale = SubmitMatchingBaseline(B3(), "stale");
  EXPECT_EQ(Verdict(stale, tree), "stale");
  EXPECT_FALSE(stale.plan.optimized);
  for (const auto& c : stale.plan.explain.candidates) {
    if (c.verdict == "stale") {
      EXPECT_NE(c.reason.find("input rewritten"), std::string::npos);
    }
  }

  ASSERT_OK(system_->BuildIndex(B3Tree(), input()).status());
  auto fresh = SubmitMatchingBaseline(B3(), "fresh");
  EXPECT_EQ(Verdict(fresh, tree), "chosen");
  EXPECT_EQ(fresh.plan.explain.est_provenance, "histogram");
}

TEST_F(InputVersionTest, PreFingerprintEntriesAreStaleUntilRebuilt) {
  ASSERT_OK(system_->BuildIndex(B3Tree(), input()).status());
  // Rewrite the manifest in its 10-column layout, as a catalog written
  // before fingerprints existed would be.
  const std::string manifest = dir_.file("ws/catalog.txt");
  ASSERT_OK_AND_ASSIGN(std::string text, ReadFileToString(manifest));
  std::string old_layout;
  for (const std::string& line : SplitString(text, '\n')) {
    if (line.empty() || line[0] == '#') continue;
    old_layout += line.substr(0, line.rfind('\t')) + "\n";
  }
  ASSERT_OK(WriteStringToFile(manifest, old_layout));
  system_ = Open();
  ASSERT_EQ(system_->catalog().entries().size(), 1u);
  EXPECT_EQ(system_->catalog().entries()[0].input_fingerprint, "");

  const std::string tree = B3Tree().Describe();
  auto stale = SubmitMatchingBaseline(B3(), "pre");
  EXPECT_EQ(Verdict(stale, tree), "stale");
  EXPECT_FALSE(stale.plan.optimized);

  ASSERT_OK(system_->BuildIndex(B3Tree(), input()).status());
  EXPECT_EQ(Verdict(SubmitMatchingBaseline(B3(), "post"), tree), "chosen");
}

TEST_F(InputVersionTest, CorruptStatsFileFallsBackOnlyAfterReopen) {
  ASSERT_OK_AND_ASSIGN(auto build, system_->BuildIndex(B3Tree(), input()));
  auto before = SubmitMatchingBaseline(B3(), "before");
  EXPECT_EQ(before.plan.explain.est_provenance, "histogram");

  // The running system holds the stats parsed: it never reads the file
  // back, so its estimate does not move.
  ASSERT_OK(WriteStringToFile(build.entry.stats_path, "{not json"));
  auto after = SubmitMatchingBaseline(B3(), "after");
  EXPECT_EQ(after.plan.explain.est_provenance, "histogram");
  EXPECT_EQ(after.plan.explain.est_selectivity,
            before.plan.explain.est_selectivity);

  // A system reopened on the workspace finds no usable stats: it opens
  // and plans anyway, from the tree's fan-out.
  system_ = Open();
  EXPECT_EQ(system_->catalog().StatsFor(input()), nullptr);
  auto reopened = SubmitMatchingBaseline(B3(), "reopened");
  EXPECT_TRUE(reopened.plan.optimized);
  EXPECT_EQ(reopened.plan.explain.est_provenance, "btree-fanout");
}

}  // namespace
}  // namespace manimal::stats
