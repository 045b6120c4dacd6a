// Codec scan benchmark: the four Pavlo benchmark programs over
// block-compressed (v2) re-encoded artifacts, each run with direct
// predicate evaluation on compressed blocks OFF then ON. Reports
// bytes scanned off disk, bytes decoded, blocks skipped, and wall
// time per row; the JSON-lines mirror (MANIMAL_BENCH_JSON) is the
// committed BENCH_codec.json.
//
// Only rows whose input clusters the predicate column can skip:
// UserVisits is generated in rough visitDate order, so the two B3
// date-range rows are the selective-scan rows the CI leg asserts on.
// B1's opaque Rankings defeat re-encoding (Table 1), and B2/B4 have
// no detected selection — they ride along to show the codec tier
// never hurts correctness or engages where it cannot prove skips.
//
// MANIMAL_CODEC_BENCH_ASSERT=1 turns the expected savings into hard
// failures: every row's direct-on output must equal direct-off, and
// at least two selective rows must cut bytes decoded by 2x or more.

#include <cstdio>
#include <cstdlib>

#include "analyzer/analyzer.h"
#include "analyzer/index_gen.h"
#include "bench/bench_util.h"
#include "workloads/datagen.h"
#include "workloads/pavlo.h"

namespace {

struct RowResult {
  std::string name;
  manimal::exec::JobResult off, on;
  bool outputs_match = false;
  std::string codec_note;
};

}  // namespace

int main() {
  using namespace manimal;
  const int64_t scale = bench::ScaleFactor();
  bench::BenchWorkspace ws("codec");

  // Inputs (deterministic; sizes scale with MANIMAL_SCALE).
  workloads::RankingsOptions rankings;
  rankings.num_pages = 50000 * scale;
  auto rankings_gen = bench::CheckOk(
      workloads::GenerateRankings(ws.file("rankings.msq"), rankings),
      "gen rankings");
  workloads::UserVisitsOptions visits;
  visits.num_visits = 150000 * scale;
  visits.num_pages = 50000 * scale;
  auto visits_gen = bench::CheckOk(
      workloads::GenerateUserVisits(ws.file("visits.msq"), visits),
      "gen uservisits");
  // The B3 date-range rows scan an access-log-shaped copy: visitDate
  // roughly chronological, so v2 blocks partition the date range and
  // skip frames can refute whole blocks.
  workloads::UserVisitsOptions chrono = visits;
  chrono.chronological = true;
  bench::CheckOk(
      workloads::GenerateUserVisits(ws.file("visits_chrono.msq"), chrono)
          .status(),
      "gen chronological uservisits");
  workloads::DocumentsOptions docs;
  docs.num_docs = 2000 * scale;
  docs.num_pages = 50000 * scale;
  auto docs_gen = bench::CheckOk(
      workloads::GenerateDocuments(ws.file("docs.msq"), docs),
      "gen documents");

  // B3's visitDate window: narrow is the paper's "all but 0.095%"
  // shape, wide keeps ~25% — both selective, different skip rates.
  const int64_t epoch = visits.date_epoch;
  const int64_t range = visits.date_range;
  struct BenchRow {
    const char* name;
    mril::Program program;
    std::string input;
  };
  const BenchRow rows[] = {
      {"b1-selection",
       workloads::Benchmark1Selection(rankings.rank_range -
                                      rankings.rank_range / 10),
       ws.file("rankings.msq")},
      {"b2-aggregation", workloads::Benchmark2Aggregation(),
       ws.file("visits.msq")},
      {"b3-join-wide",
       workloads::Benchmark3Join(epoch + range / 2,
                                 epoch + range / 2 + range / 4),
       ws.file("visits_chrono.msq")},
      {"b3-join-narrow",
       workloads::Benchmark3Join(epoch + range / 2,
                                 epoch + range / 2 + range / 1000),
       ws.file("visits_chrono.msq")},
      {"b4-udf", workloads::Benchmark4UdfAggregation(),
       ws.file("docs.msq")},
  };

  std::printf(
      "Codec scan bench (scale=%lld): %llu rankings, %llu visits, "
      "%llu docs\n"
      "Direct evaluation on compressed blocks: OFF vs ON per row.\n\n",
      static_cast<long long>(scale),
      static_cast<unsigned long long>(rankings_gen.records),
      static_cast<unsigned long long>(visits_gen.records),
      static_cast<unsigned long long>(docs_gen.records));

  std::vector<RowResult> results;
  for (const BenchRow& row : rows) {
    RowResult r;
    r.name = row.name;

    // One re-encoded (non-B+Tree) artifact per row, mlz-compressed;
    // B+Tree specs are excluded because block skipping rides the
    // seqscan path.
    auto report =
        bench::CheckOk(analyzer::Analyze(row.program), "analyze");
    auto specs =
        analyzer::SynthesizeIndexPrograms(row.program, report);
    const analyzer::IndexGenProgram* reencoded = nullptr;
    for (const auto& s : specs) {
      if (!s.btree && !s.column_groups) reencoded = &s;
    }

    for (int direct = 0; direct <= 1; ++direct) {
      setenv("MANIMAL_DIRECT_EVAL", direct ? "1" : "0", 1);
      core::ManimalSystem::Options options;
      options.workspace_dir =
          ws.file(std::string(row.name) + (direct ? "-on" : "-off"));
      options.map_parallelism =
          static_cast<int>(EnvInt64("MANIMAL_THREADS", 4));
      options.num_partitions = options.map_parallelism;
      options.simulated_startup_seconds = 0.01;
      auto system = bench::CheckOk(core::ManimalSystem::Open(options),
                                   "open system");
      if (reencoded != nullptr) {
        auto build = bench::CheckOk(
            system->BuildIndex(*reencoded, row.input), "build index");
        r.codec_note = build.entry.codec_chain.empty()
                           ? "raw"
                           : build.entry.codec_chain;
      } else {
        r.codec_note = "no re-encoded artifact";
      }

      core::ManimalSystem::Submission submission;
      submission.program = row.program;
      submission.input_path = row.input;
      submission.output_path =
          ws.file(std::string(row.name) + (direct ? ".on" : ".off"));
      exec::JobResult job = bench::Averaged([&] {
        return bench::CheckOk(system->Submit(submission), "submit").job;
      });
      (direct ? r.on : r.off) = job;
    }
    unsetenv("MANIMAL_DIRECT_EVAL");

    auto off_pairs = bench::CheckOk(
        exec::ReadCanonicalPairs(ws.file(std::string(row.name) + ".off")),
        "off output");
    auto on_pairs = bench::CheckOk(
        exec::ReadCanonicalPairs(ws.file(std::string(row.name) + ".on")),
        "on output");
    r.outputs_match = off_pairs == on_pairs;
    results.push_back(std::move(r));
  }

  bench::TablePrinter table({"Row", "Codec", "Scanned", "Decoded off",
                             "Decoded on", "Skipped", "Wall off",
                             "Wall on", "Outputs"});
  int selective_wins = 0;
  bool all_match = true;
  for (const RowResult& r : results) {
    const double ratio =
        r.on.counters.bytes_decoded > 0
            ? static_cast<double>(r.off.counters.bytes_decoded) /
                  static_cast<double>(r.on.counters.bytes_decoded)
            : 1.0;
    if (r.on.counters.blocks_skipped > 0 && ratio >= 2.0) {
      ++selective_wins;
    }
    all_match = all_match && r.outputs_match;
    table.AddRow(
        {r.name, r.codec_note,
         HumanBytes(r.on.counters.input_bytes),
         HumanBytes(r.off.counters.bytes_decoded),
         HumanBytes(r.on.counters.bytes_decoded),
         std::to_string(r.on.counters.blocks_skipped),
         bench::Secs(r.off.reported_seconds),
         bench::Secs(r.on.reported_seconds),
         r.outputs_match ? "identical" : "MISMATCH"});
    for (const auto* leg : {&r.off, &r.on}) {
      bench::JsonRow("codec_scan",
                     r.name + (leg == &r.on ? "/direct-on"
                                            : "/direct-off"))
          .Str("codec", r.codec_note)
          .Num("decoded_reduction", leg == &r.on ? ratio : 1.0)
          .Int("outputs_match", r.outputs_match ? 1 : 0)
          .Job(*leg)
          .Emit();
    }
  }
  table.Print();
  std::printf(
      "\nselective rows with >=2x bytes-decoded reduction: %d\n",
      selective_wins);

  if (EnvInt64("MANIMAL_CODEC_BENCH_ASSERT", 0) != 0) {
    if (!all_match) {
      std::fprintf(stderr,
                   "FATAL: direct-on output diverged from direct-off\n");
      return 1;
    }
    if (selective_wins < 2) {
      std::fprintf(stderr,
                   "FATAL: expected >=2 selective rows with >=2x "
                   "bytes-decoded reduction, got %d\n",
                   selective_wins);
      return 1;
    }
  }
  return all_match ? 0 : 1;
}
