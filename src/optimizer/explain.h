// EXPLAIN / EXPLAIN ANALYZE — plan introspection (docs/observability.md).
//
// EXPLAIN answers "what did the optimizer consider, and why did it
// pick this plan": the full candidate set — chosen, rejected,
// uncataloged and stale — with each candidate's estimated cost (bytes
// moved), estimated selectivity, and the artifact it would use. EXPLAIN
// ANALYZE additionally attaches what the fabric actually measured:
// per-task runtime stats, per-phase wall time and bytes, and the
// observed per-interval selectivity of the selection predicate,
// joined against the B+Tree-derived estimates into a drift report
// (the feedback signal a stats-driven cost model needs).
//
// Both render as text (ToText) and as a single JSON object (ToJson,
// stable field names, "explain_version" currently 2). The report is
// produced by core::ManimalSystem when JobConfig/environment asks for
// it (MANIMAL_EXPLAIN=plan|analyze), but MakeExplainReport is usable
// directly by any caller that holds a Plan (and optionally the
// JobResult of running it).

#ifndef MANIMAL_OPTIMIZER_EXPLAIN_H_
#define MANIMAL_OPTIMIZER_EXPLAIN_H_

#include <string>
#include <utility>
#include <vector>

#include "exec/engine.h"

namespace manimal::optimizer {

struct Plan;  // optimizer.h; explain.cc sees the full definition

// Version of the ToJson() schema. Bump on rename/removal/semantic
// change of a field; additions are backward-compatible.
inline constexpr int kExplainSchemaVersion = 2;

enum class ExplainMode {
  kOff,
  kPlan,     // EXPLAIN: candidate set + chosen plan
  kAnalyze,  // EXPLAIN ANALYZE: + runtime stats and drift report
};

// Parses MANIMAL_EXPLAIN: "plan" / "1" / "on" / "true" -> kPlan,
// "analyze" / "2" -> kAnalyze, anything else (or unset) -> kOff.
ExplainMode ExplainModeFromEnv();

const char* ExplainModeName(ExplainMode mode);

// One synthesized index-generation candidate as the optimizer saw it.
struct CandidateExplain {
  std::string describe;   // IndexGenProgram::Describe()
  std::string signature;  // catalog lookup key
  // "chosen" | "rejected" | "uncataloged" (no artifact built yet) |
  // "stale" (built from an earlier version of the input; never chosen).
  std::string verdict;
  std::string reason;  // why rejected / why chosen; "" if n/a
  bool cataloged = false;
  bool chosen = false;
  std::string artifact_path;  // "" when uncataloged
  // Cost-model output for cataloged candidates; negative = not priced
  // (uncataloged, or pricing failed).
  double est_bytes = -1;
  double est_selectivity = -1;
  // Which estimator produced est_selectivity: "histogram" (catalog
  // column stats) or "btree-fanout" (root fan-out heuristic). "" when
  // nothing was priced.
  std::string provenance;
  std::string cost_detail;
  // Per-interval estimated selectivity for B+Tree candidates:
  // (KeyInterval::ToString(), fraction).
  std::vector<std::pair<std::string, double>> interval_selectivity;
};

// The optimizer's side of the report, filled by BuildPlan.
struct PlanExplain {
  std::string program;
  std::string input_path;
  std::string mode;     // "rule" | "cost"
  std::string summary;  // Plan::explanation
  std::string access_path;  // chosen plan's AccessPathName
  bool optimized = false;
  std::vector<std::string> applied;
  // The selection predicate in DNF ("" when none detected).
  std::string predicate;
  // Chosen plan's estimates; negative = unknown (e.g. rule-based
  // baseline with nothing priced).
  double est_selectivity = -1;
  double est_bytes = -1;
  // Estimator behind est_selectivity ("histogram" / "btree-fanout");
  // "" when unknown.
  std::string est_provenance;
  // Size of the raw input = cost of the conventional full scan.
  double baseline_bytes = -1;
  std::vector<CandidateExplain> candidates;

  // ---- native codegen tier (docs/mril.md "Native kernels") ----
  // Whether codegen::ExtractShape admits the chosen plan's (possibly
  // patched) program, and the shape description / admission-gate
  // reason. The engine makes the final per-job backend call (see
  // ExplainReport::backend), but eligibility is a plan property.
  bool native_eligible = false;
  std::string native_detail;
};

// One row of the estimated-vs-actual selectivity comparison, keyed by
// predicate interval. `estimated` comes from the B+Tree root fan-out
// (negative when no cataloged tree could price the interval);
// `observed` is matches/records from the fabric's per-record
// evaluation (negative when the run did not observe predicates).
struct DriftRow {
  std::string predicate;
  double estimated = -1;
  double observed = -1;
};

// The full EXPLAIN (ANALYZE) report.
struct ExplainReport {
  PlanExplain plan;

  // ---- EXPLAIN ANALYZE section (analyzed == true) ----
  bool analyzed = false;
  std::string job_id;
  uint64_t rows_scanned = 0;
  uint64_t rows_emitted = 0;  // incl. pre-shuffle filtered pairs
  // rows_emitted / rows_scanned; negative when rows_scanned == 0.
  double observed_selectivity = -1;
  // True when the fabric evaluated the predicate per record (plan
  // carried hooks, stats collection on, layout unremapped). NOTE:
  // under a B+Tree plan the scan already skips non-matching rows, so
  // observed per-interval selectivity measures index precision; a
  // seqscan plan observes ground truth.
  bool predicates_observed = false;
  std::vector<DriftRow> drift;
  std::vector<std::pair<std::string, exec::PhaseStat>> phases;
  std::vector<exec::TaskStat> tasks;
  exec::JobCounters counters;
  double wall_seconds = 0;
  double reported_seconds = 0;
  // Resolved map backend for the measured run ("vm" / "native") and
  // the kernel description / fallback reason (JobResult::backend).
  std::string backend;
  std::string backend_detail;

  // Multi-line human-readable rendering.
  std::string ToText() const;
  // One JSON object (no trailing newline), stable schema
  // ("explain_version": 2). Numeric estimate fields that are unknown
  // (negative sentinels) are omitted.
  std::string ToJson() const;
};

// EXPLAIN: plan-only report.
ExplainReport MakeExplainReport(const Plan& plan);
// EXPLAIN ANALYZE: joins the plan against the measured JobResult
// (task stats, phase breakdown, observed selectivity, drift).
ExplainReport MakeExplainReport(const Plan& plan,
                                const exec::JobResult& result);

}  // namespace manimal::optimizer

#endif  // MANIMAL_OPTIMIZER_EXPLAIN_H_
