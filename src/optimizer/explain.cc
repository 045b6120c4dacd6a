#include "optimizer/explain.h"

#include <cstdlib>
#include <cstring>

#include "common/strings.h"
#include "obs/json.h"
#include "optimizer/optimizer.h"

namespace manimal::optimizer {

using obs::JsonFixed;
using obs::JsonNumber;
using obs::JsonQuote;

ExplainMode ExplainModeFromEnv() {
  const char* v = std::getenv("MANIMAL_EXPLAIN");
  if (v == nullptr || v[0] == '\0') return ExplainMode::kOff;
  if (std::strcmp(v, "analyze") == 0 || std::strcmp(v, "2") == 0) {
    return ExplainMode::kAnalyze;
  }
  if (std::strcmp(v, "plan") == 0 || std::strcmp(v, "1") == 0 ||
      std::strcmp(v, "on") == 0 || std::strcmp(v, "true") == 0) {
    return ExplainMode::kPlan;
  }
  return ExplainMode::kOff;
}

const char* ExplainModeName(ExplainMode mode) {
  switch (mode) {
    case ExplainMode::kOff:
      return "off";
    case ExplainMode::kPlan:
      return "plan";
    case ExplainMode::kAnalyze:
      return "analyze";
  }
  return "off";
}

namespace {

// The per-interval selectivity estimates backing the drift report:
// the chosen candidate's when it has them, else the first cataloged
// candidate's (a rejected B+Tree still carries the best available
// estimate of the predicate's selectivity).
const std::vector<std::pair<std::string, double>>* FindIntervalEstimates(
    const PlanExplain& plan) {
  for (const CandidateExplain& c : plan.candidates) {
    if (c.chosen && !c.interval_selectivity.empty()) {
      return &c.interval_selectivity;
    }
  }
  for (const CandidateExplain& c : plan.candidates) {
    if (!c.interval_selectivity.empty()) return &c.interval_selectivity;
  }
  return nullptr;
}

std::vector<DriftRow> BuildDrift(const PlanExplain& plan,
                                 const exec::JobResult& result,
                                 uint64_t rows_scanned) {
  std::vector<DriftRow> drift;
  const auto* estimates = FindIntervalEstimates(plan);
  const double scanned = static_cast<double>(rows_scanned);
  auto observed_for = [&](const std::string& predicate) -> double {
    if (!result.predicates_observed || scanned <= 0) return -1;
    for (const exec::PredicateStat& ps : result.predicate_stats) {
      if (ps.predicate == predicate) {
        return static_cast<double>(ps.matched) / scanned;
      }
    }
    return -1;
  };
  if (estimates != nullptr) {
    for (const auto& [predicate, est] : *estimates) {
      DriftRow row;
      row.predicate = predicate;
      row.estimated = est;
      row.observed = observed_for(predicate);
      drift.push_back(std::move(row));
    }
  }
  // Observed intervals with no estimate (no cataloged B+Tree).
  for (const exec::PredicateStat& ps : result.predicate_stats) {
    bool seen = false;
    for (const DriftRow& row : drift) {
      if (row.predicate == ps.predicate) {
        seen = true;
        break;
      }
    }
    if (!seen && result.predicates_observed && scanned > 0) {
      DriftRow row;
      row.predicate = ps.predicate;
      row.observed = static_cast<double>(ps.matched) / scanned;
      drift.push_back(std::move(row));
    }
  }
  return drift;
}

void AppendOptionalNum(std::string* out, const char* key, double value,
                       bool fixed4 = false) {
  if (value < 0) return;
  *out += ",\"";
  *out += key;
  *out += "\":";
  *out += fixed4 ? JsonFixed(value, 4) : JsonNumber(value);
}

std::string FmtSel(double v) {
  return v < 0 ? std::string("?") : StrPrintf("%.4f", v);
}

}  // namespace

ExplainReport MakeExplainReport(const Plan& plan) {
  ExplainReport report;
  report.plan = plan.explain;
  // Refresh the fields derivable from the Plan itself, so a report is
  // coherent even for a hand-built Plan that skipped BuildPlan.
  if (report.plan.summary.empty()) report.plan.summary = plan.explanation;
  if (report.plan.access_path.empty()) {
    report.plan.access_path =
        exec::AccessPathName(plan.descriptor.access_path);
  }
  if (report.plan.applied.empty()) {
    report.plan.applied = plan.descriptor.applied;
  }
  report.plan.optimized = plan.optimized;
  if (report.plan.native_detail.empty()) {
    report.plan.native_eligible = plan.descriptor.native_eligible;
    report.plan.native_detail = plan.descriptor.native_detail;
  }
  if (report.plan.reduce_native_detail.empty()) {
    report.plan.reduce_native_eligible =
        plan.descriptor.reduce_native_eligible;
    report.plan.reduce_native_detail = plan.descriptor.reduce_native_detail;
  }
  return report;
}

ExplainReport MakeExplainReport(const Plan& plan,
                                const exec::JobResult& result) {
  ExplainReport report = MakeExplainReport(plan);
  report.analyzed = true;
  report.job_id = result.job_id;
  report.counters = result.counters;
  report.rows_scanned = result.counters.map_invocations;
  report.rows_emitted = result.counters.map_output_records +
                        result.counters.map_output_filtered;
  if (report.rows_scanned > 0) {
    report.observed_selectivity =
        static_cast<double>(report.rows_emitted) /
        static_cast<double>(report.rows_scanned);
  }
  report.predicates_observed = result.predicates_observed;
  report.drift = BuildDrift(report.plan, result, report.rows_scanned);
  for (const auto& [name, stat] : result.phase_breakdown) {
    report.phases.emplace_back(name, stat);
  }
  report.tasks = result.task_stats;
  report.wall_seconds = result.wall_seconds;
  report.reported_seconds = result.reported_seconds;
  report.backend = result.backend;
  report.backend_detail = result.backend_detail;
  report.reduce_backend = result.reduce_backend;
  report.reduce_backend_detail = result.reduce_backend_detail;
  return report;
}

std::string ExplainReport::ToText() const {
  std::string out;
  out += StrPrintf("EXPLAIN%s %s on %s (mode=%s)\n",
                   analyzed ? " ANALYZE" : "", plan.program.c_str(),
                   plan.input_path.c_str(), plan.mode.c_str());
  out += StrPrintf("plan: access_path=%s optimized=%s\n",
                   plan.access_path.c_str(),
                   plan.optimized ? "yes" : "no");
  out += "  summary: " + plan.summary + "\n";
  if (!plan.applied.empty()) {
    out += "  applied: ";
    for (size_t i = 0; i < plan.applied.size(); ++i) {
      if (i > 0) out += "; ";
      out += plan.applied[i];
    }
    out += "\n";
  }
  if (!plan.predicate.empty()) {
    out += "  predicate: " + plan.predicate + "\n";
  }
  if (!plan.native_detail.empty()) {
    out += StrPrintf("  native: eligible=%s (%s)\n",
                     plan.native_eligible ? "yes" : "no",
                     plan.native_detail.c_str());
  }
  if (!plan.reduce_native_detail.empty()) {
    out += StrPrintf("  reduce native: eligible=%s (%s)\n",
                     plan.reduce_native_eligible ? "yes" : "no",
                     plan.reduce_native_detail.c_str());
  }
  if (plan.est_bytes >= 0 || plan.est_selectivity >= 0 ||
      plan.baseline_bytes >= 0) {
    out += "  estimated:";
    if (plan.est_selectivity >= 0) {
      out += StrPrintf(" selectivity=%.4f", plan.est_selectivity);
      if (!plan.est_provenance.empty()) {
        out += " (" + plan.est_provenance + ")";
      }
    }
    if (plan.est_bytes >= 0) {
      out += StrPrintf(
          " bytes=%s",
          HumanBytes(static_cast<uint64_t>(plan.est_bytes)).c_str());
    }
    if (plan.baseline_bytes >= 0) {
      out += StrPrintf(" baseline=%s",
                       HumanBytes(static_cast<uint64_t>(
                                      plan.baseline_bytes))
                           .c_str());
    }
    out += "\n";
  }
  out += StrPrintf("candidates (%zu):\n", plan.candidates.size());
  for (const CandidateExplain& c : plan.candidates) {
    out += StrPrintf("  [%-11s] %s", c.verdict.c_str(),
                     c.describe.c_str());
    if (c.est_bytes >= 0) {
      out += StrPrintf(
          " — est %s, sel %s",
          HumanBytes(static_cast<uint64_t>(c.est_bytes)).c_str(),
          FmtSel(c.est_selectivity).c_str());
      if (!c.provenance.empty()) out += " [" + c.provenance + "]";
    }
    if (!c.reason.empty()) out += " (" + c.reason + ")";
    out += "\n";
  }
  if (!analyzed) return out;

  out += StrPrintf(
      "analyze (%s):\n  rows: scanned=%llu emitted=%llu "
      "observed_selectivity=%s\n",
      job_id.c_str(), static_cast<unsigned long long>(rows_scanned),
      static_cast<unsigned long long>(rows_emitted),
      FmtSel(observed_selectivity).c_str());
  if (!backend.empty()) {
    out += "  backend: " + backend;
    if (!backend_detail.empty()) out += " (" + backend_detail + ")";
    out += "\n";
  }
  if (!reduce_backend.empty()) {
    out += "  reduce backend: " + reduce_backend;
    if (!reduce_backend_detail.empty()) {
      out += " (" + reduce_backend_detail + ")";
    }
    out += "\n";
  }
  out += StrPrintf("  time: wall=%.3fs reported=%.3fs\n", wall_seconds,
                   reported_seconds);
  if (!phases.empty()) {
    out += "  phases:";
    for (const auto& [name, stat] : phases) {
      out += StrPrintf(" %s=%.3fs/%s", name.c_str(), stat.seconds,
                       HumanBytes(stat.bytes).c_str());
    }
    out += "\n";
  }
  out += "  counters:";
  counters.ForEach([&out](const char* name, uint64_t value) {
    out += StrPrintf(" %s=%llu", name,
                     static_cast<unsigned long long>(value));
  });
  out += "\n";
  if (!tasks.empty()) {
    out += StrPrintf("  tasks (%zu committed attempts):\n",
                     tasks.size());
    for (const exec::TaskStat& t : tasks) {
      out += StrPrintf(
          "    %c%04d attempt=%d: in=%llu out=%llu "
          "read=%llu written=%llu vm=%llu %.3fs\n",
          t.kind, t.index, t.attempt,
          static_cast<unsigned long long>(t.records_in),
          static_cast<unsigned long long>(t.records_out),
          static_cast<unsigned long long>(t.bytes_read),
          static_cast<unsigned long long>(t.bytes_written),
          static_cast<unsigned long long>(t.vm_instructions), t.seconds);
    }
  }
  if (!drift.empty()) {
    out += "  drift (estimated vs observed selectivity";
    if (predicates_observed && plan.access_path != "seqscan") {
      out += "; indexed scan pre-filters rows, so observed ~ index "
             "precision";
    }
    out += "):\n";
    for (const DriftRow& row : drift) {
      out += StrPrintf("    %s: est=%s obs=%s", row.predicate.c_str(),
                       FmtSel(row.estimated).c_str(),
                       FmtSel(row.observed).c_str());
      if (row.estimated >= 0 && row.observed >= 0) {
        out += StrPrintf(" delta=%+.4f", row.observed - row.estimated);
      }
      out += "\n";
    }
  }
  return out;
}

std::string ExplainReport::ToJson() const {
  std::string out = "{\"explain_version\":";
  out += std::to_string(kExplainSchemaVersion);
  out += ",\"analyzed\":";
  out += analyzed ? "true" : "false";
  if (!job_id.empty()) out += ",\"job\":" + JsonQuote(job_id);

  out += ",\"plan\":{";
  out += "\"program\":" + JsonQuote(plan.program);
  out += ",\"input\":" + JsonQuote(plan.input_path);
  out += ",\"mode\":" + JsonQuote(plan.mode);
  out += ",\"summary\":" + JsonQuote(plan.summary);
  out += ",\"access_path\":" + JsonQuote(plan.access_path);
  out += ",\"optimized\":";
  out += plan.optimized ? "true" : "false";
  out += ",\"applied\":[";
  for (size_t i = 0; i < plan.applied.size(); ++i) {
    if (i > 0) out += ",";
    out += JsonQuote(plan.applied[i]);
  }
  out += "]";
  if (!plan.predicate.empty()) {
    out += ",\"predicate\":" + JsonQuote(plan.predicate);
  }
  AppendOptionalNum(&out, "est_selectivity", plan.est_selectivity,
                    /*fixed4=*/true);
  if (!plan.est_provenance.empty()) {
    out += ",\"est_provenance\":" + JsonQuote(plan.est_provenance);
  }
  AppendOptionalNum(&out, "est_bytes", plan.est_bytes);
  AppendOptionalNum(&out, "baseline_bytes", plan.baseline_bytes);
  out += ",\"native_eligible\":";
  out += plan.native_eligible ? "true" : "false";
  if (!plan.native_detail.empty()) {
    out += ",\"native_detail\":" + JsonQuote(plan.native_detail);
  }
  out += ",\"reduce_native_eligible\":";
  out += plan.reduce_native_eligible ? "true" : "false";
  if (!plan.reduce_native_detail.empty()) {
    out += ",\"reduce_native_detail\":" +
           JsonQuote(plan.reduce_native_detail);
  }
  out += ",\"candidates\":[";
  for (size_t i = 0; i < plan.candidates.size(); ++i) {
    const CandidateExplain& c = plan.candidates[i];
    if (i > 0) out += ",";
    out += "{\"candidate\":" + JsonQuote(c.describe);
    out += ",\"signature\":" + JsonQuote(c.signature);
    out += ",\"verdict\":" + JsonQuote(c.verdict);
    if (!c.reason.empty()) out += ",\"reason\":" + JsonQuote(c.reason);
    out += ",\"cataloged\":";
    out += c.cataloged ? "true" : "false";
    if (!c.artifact_path.empty()) {
      out += ",\"artifact\":" + JsonQuote(c.artifact_path);
    }
    AppendOptionalNum(&out, "est_bytes", c.est_bytes);
    AppendOptionalNum(&out, "est_selectivity", c.est_selectivity,
                      /*fixed4=*/true);
    if (!c.provenance.empty()) {
      out += ",\"provenance\":" + JsonQuote(c.provenance);
    }
    if (!c.cost_detail.empty()) {
      out += ",\"cost_detail\":" + JsonQuote(c.cost_detail);
    }
    if (!c.interval_selectivity.empty()) {
      out += ",\"intervals\":[";
      for (size_t j = 0; j < c.interval_selectivity.size(); ++j) {
        if (j > 0) out += ",";
        out += "{\"interval\":" +
               JsonQuote(c.interval_selectivity[j].first);
        out += ",\"est_selectivity\":" +
               JsonFixed(c.interval_selectivity[j].second, 4) + "}";
      }
      out += "]";
    }
    out += "}";
  }
  out += "]}";

  if (analyzed) {
    out += ",\"exec\":{";
    out += "\"rows_scanned\":" + std::to_string(rows_scanned);
    out += ",\"rows_emitted\":" + std::to_string(rows_emitted);
    AppendOptionalNum(&out, "observed_selectivity",
                      observed_selectivity, /*fixed4=*/true);
    out += ",\"predicates_observed\":";
    out += predicates_observed ? "true" : "false";
    if (!backend.empty()) {
      out += ",\"backend\":" + JsonQuote(backend);
      if (!backend_detail.empty()) {
        out += ",\"backend_detail\":" + JsonQuote(backend_detail);
      }
    }
    if (!reduce_backend.empty()) {
      out += ",\"reduce_backend\":" + JsonQuote(reduce_backend);
      if (!reduce_backend_detail.empty()) {
        out += ",\"reduce_backend_detail\":" +
               JsonQuote(reduce_backend_detail);
      }
    }
    out += ",\"wall_seconds\":" + JsonNumber(wall_seconds);
    out += ",\"reported_seconds\":" + JsonNumber(reported_seconds);
    out += ",\"phases\":{";
    for (size_t i = 0; i < phases.size(); ++i) {
      if (i > 0) out += ",";
      out += JsonQuote(phases[i].first) +
             ":{\"seconds\":" + JsonNumber(phases[i].second.seconds) +
             ",\"bytes\":" + std::to_string(phases[i].second.bytes) +
             "}";
    }
    out += "},\"counters\":{";
    const char* separator = "";
    counters.ForEach([&](const char* name, uint64_t value) {
      out += separator + JsonQuote(name) + ":" + std::to_string(value);
      separator = ",";
    });
    out += "},\"tasks\":[";
    for (size_t i = 0; i < tasks.size(); ++i) {
      const exec::TaskStat& t = tasks[i];
      if (i > 0) out += ",";
      out += "{\"task\":" +
             JsonQuote(StrPrintf("%c%04d", t.kind, t.index));
      out += ",\"attempt\":" + std::to_string(t.attempt);
      out += ",\"records_in\":" + std::to_string(t.records_in);
      out += ",\"records_out\":" + std::to_string(t.records_out);
      out += ",\"bytes_read\":" + std::to_string(t.bytes_read);
      out += ",\"bytes_written\":" + std::to_string(t.bytes_written);
      out += ",\"vm_instructions\":" +
             std::to_string(t.vm_instructions);
      out += ",\"seconds\":" + JsonNumber(t.seconds) + "}";
    }
    out += "]}";
    out += ",\"drift\":[";
    for (size_t i = 0; i < drift.size(); ++i) {
      if (i > 0) out += ",";
      out += "{\"predicate\":" + JsonQuote(drift[i].predicate);
      AppendOptionalNum(&out, "estimated", drift[i].estimated,
                        /*fixed4=*/true);
      AppendOptionalNum(&out, "observed", drift[i].observed,
                        /*fixed4=*/true);
      out += "}";
    }
    out += "]";
  }
  out += "}";
  return out;
}

}  // namespace manimal::optimizer
