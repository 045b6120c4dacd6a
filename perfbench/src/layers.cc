#include "layers.h"

#include <algorithm>
#include <cstdio>

#include "common/env.h"
#include "common/strings.h"
#include "obs/json.h"

namespace perfbench {

using manimal::StrPrintf;

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

}  // namespace

int Tracer::Add(const std::string& name, int parent, Clock::time_point start,
                Clock::time_point end) {
  Span span;
  span.name = name;
  span.start_us = Seconds(origin_, start) * 1e6;
  span.dur_us = Seconds(start, end) * 1e6;
  span.parent = parent;
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

int Tracer::AddChild(const std::string& name, int parent, double offset_s,
                     double seconds) {
  Span span;
  span.name = name;
  span.start_us = spans_[parent].start_us + offset_s * 1e6;
  span.dur_us = seconds * 1e6;
  span.parent = parent;
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::AddJob(int parent, const manimal::exec::JobResult& job) {
  const double offset =
      std::max(0.0, spans_[parent].dur_us / 1e6 - job.wall_seconds);
  const int span = AddChild("exec.job", parent, offset, job.wall_seconds);
  double at = 0;
  for (const char* phase : {"plan", "map", "reduce"}) {
    auto it = job.phase_breakdown.find(phase);
    if (it == job.phase_breakdown.end()) continue;
    AddChild(std::string("exec.") + phase, span, at, it->second.seconds);
    at += it->second.seconds;
  }
}

std::map<std::string, Tracer::Row> Tracer::Rows() const {
  std::vector<double> child_us(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_us[s.parent] += s.dur_us;
  }
  std::map<std::string, Row> rows;
  for (size_t i = 0; i < spans_.size(); ++i) {
    Row& row = rows[spans_[i].name];
    ++row.calls;
    row.total_s += spans_[i].dur_us / 1e6;
    row.self_s += (spans_[i].dur_us - child_us[i]) / 1e6;
  }
  return rows;
}

manimal::Status Tracer::WriteChromeTrace(const std::string& path) const {
  std::string out = "{\"traceEvents\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i > 0) out += ",\n";
    out += StrPrintf(
        "{\"name\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%s,"
        "\"dur\":%s,\"args\":{\"id\":%zu,\"parent\":%d}}",
        manimal::obs::JsonQuote(s.name).c_str(),
        manimal::obs::JsonFixed(s.start_us, 3).c_str(),
        manimal::obs::JsonFixed(s.dur_us, 3).c_str(), i, s.parent);
  }
  out += "]}\n";
  return manimal::WriteStringToFile(path, out);
}

void LayerTally::AddJob(const manimal::exec::JobResult& job, bool submit,
                        bool is_optimized, size_t plan_candidates,
                        bool predicate) {
  ++jobs;
  if (submit) {
    ++submit_jobs;
    optimized += is_optimized ? 1 : 0;
    candidates += plan_candidates;
  }
  job_s += job.wall_seconds;
  auto phase = [&](const char* name) {
    auto it = job.phase_breakdown.find(name);
    return it == job.phase_breakdown.end() ? 0.0 : it->second.seconds;
  };
  plan_s += phase("plan");
  map_s += phase("map");
  reduce_s += phase("reduce");
  simulated_io_s += job.simulated_io_seconds;
  const manimal::exec::JobCounters& c = job.counters;
  speculative_launches += c.speculative_launches;
  task_retries += c.task_retries;
  map_output_bytes += c.map_output_bytes;
  spilled_runs += c.shuffle_spilled_runs;
  spilled_bytes += c.shuffle_spilled_bytes;
  bytes_decoded += c.bytes_decoded;
  blocks_skipped += c.blocks_skipped;
  native_tasks += c.native_tasks;
  if (job.backend == "native") {
    native_bailouts += c.native_bailout_records;
    native_records += c.input_records;
  }
  if (predicate) {
    selected_out += c.map_output_records;
    selected_in += c.input_records;
  }
}

void LayerTally::AddTasks(const manimal::exec::JobResult& job) {
  ++traced_jobs;
  std::vector<double> seconds;
  uint64_t instructions = 0, records = 0;
  for (const manimal::exec::TaskStat& t : job.task_stats) {
    if (t.kind != 'm') continue;
    seconds.push_back(t.seconds);
    instructions += t.vm_instructions;
    records += t.records_in;
  }
  traced_map_tasks += seconds.size();
  if (seconds.size() >= 2) {
    const double median = Median(seconds);
    const double max = *std::max_element(seconds.begin(), seconds.end());
    if (median > 0) task_skews.push_back(max / median);
  }
  if (job.backend == "vm") {
    vm_instructions += instructions;
    vm_records += records;
  }
}

void LayerTally::AddBuild(const manimal::exec::IndexBuildResult& build) {
  ++builds;
  build_s += build.seconds;
  build_records += build.records;
  artifact_bytes += build.entry.artifact_bytes;
}

std::map<std::string, double> LayerMetrics(const Tracer& tracer,
                                           const LayerTally& t) {
  const std::map<std::string, Tracer::Row> rows = tracer.Rows();
  auto row = [&](const char* name) {
    auto it = rows.find(name);
    return it == rows.end() ? Tracer::Row{} : it->second;
  };
  const double traced_jobs = row("job").calls;
  const double traced_submits = row("core.submit").calls;
  // Map tasks per job, from the traced stack's TaskStat rows, prices
  // the untraced stack's per-job task counters.
  const double tasks_per_job = Ratio(t.traced_map_tasks, t.traced_jobs);
  const double ms = 1000;
  std::map<std::string, double> m;
  m["core.submit_overhead_ms"] =
      Ratio(row("core.submit").self_s + row("core.baseline").self_s,
            traced_jobs) * ms;
  m["analyzer.analyze_ms"] =
      Ratio(row("analyzer.analyze").total_s, traced_submits) * ms;
  m["analyzer.synthesize_ms"] =
      Ratio(row("analyzer.synthesize").total_s, traced_submits) * ms;
  m["optimizer.plan_ms"] =
      Ratio(row("optimizer.plan").total_s, traced_submits) * ms;
  m["optimizer.candidates"] = Ratio(t.candidates, t.submit_jobs);
  m["optimizer.optimized_frac"] = Ratio(t.optimized, t.submit_jobs);
  m["exec.job_ms"] = Ratio(t.job_s, t.jobs) * ms;
  m["exec.plan_ms"] = Ratio(t.plan_s, t.jobs) * ms;
  m["exec.map_ms"] = Ratio(t.map_s, t.jobs) * ms;
  m["exec.reduce_ms"] = Ratio(t.reduce_s, t.jobs) * ms;
  m["exec.task_skew"] = Median(t.task_skews);
  m["exec.speculative_frac"] =
      Ratio(Ratio(t.speculative_launches, t.jobs), tasks_per_job);
  m["exec.task_retries"] = static_cast<double>(t.task_retries);
  m["exec.simulated_io_ms"] = Ratio(t.simulated_io_s, t.jobs) * ms;
  m["exec.map_output_mb"] = Ratio(t.map_output_bytes / kMiB, t.jobs);
  m["exec.shuffle_spilled_runs"] = Ratio(t.spilled_runs, t.jobs);
  m["exec.shuffle_spilled_mb"] = Ratio(t.spilled_bytes / kMiB, t.jobs);
  m["columnar.scan_mb_per_s"] = Ratio(t.probe_bytes / kMiB, t.probe_s);
  m["columnar.decode_share"] = Ratio(t.decode_s, t.map_slot_s);
  m["exec.bytes_decoded_mb"] = Ratio(t.bytes_decoded / kMiB, t.jobs);
  m["exec.blocks_skipped"] = Ratio(t.blocks_skipped, t.jobs);
  m["mril.vm_instr_per_record"] = Ratio(t.vm_instructions, t.vm_records);
  m["codegen.native_task_frac"] =
      Ratio(Ratio(t.native_tasks, t.jobs), tasks_per_job);
  m["codegen.bailout_frac"] = Ratio(t.native_bailouts, t.native_records);
  m["index.catalog_register_ms"] =
      Ratio(row("core.build_index").self_s, row("core.build_index").calls) *
      ms;
  m["exec.selected_frac"] = Ratio(t.selected_out, t.selected_in);
  m["index_build.build_ms"] = Ratio(t.build_s, t.builds) * ms;
  m["index_build.records_per_s"] = Ratio(t.build_records, t.build_s);
  m["index_build.artifact_mb"] = Ratio(t.artifact_bytes / kMiB, t.builds);
  return m;
}

std::string LayerTable(const Tracer& tracer) {
  const std::map<std::string, Tracer::Row> rows = tracer.Rows();
  auto it = rows.find("job");
  const double jobs = it == rows.end() ? 0 : it->second.calls;
  const double job_s = it == rows.end() ? 0 : it->second.total_s;
  // Spans inside a job tree; the others (builds, scan probes) are
  // listed per call.
  static const char* kJobSpans[] = {
      "job",          "analyzer.analyze", "core.submit",
      "core.baseline", "analyzer.synthesize", "optimizer.plan",
      "exec.job",     "exec.plan",        "exec.map",
      "exec.reduce"};
  std::string out = StrPrintf("%-22s %7s %14s %9s\n", "span (self time)",
                              "calls", "ms per job", "share");
  double accounted = 0;
  for (const char* name : kJobSpans) {
    auto r = rows.find(name);
    if (r == rows.end()) continue;
    accounted += r->second.self_s;
    out += StrPrintf("%-22s %7d %14.3f %8.1f%%\n", name, r->second.calls,
                     Ratio(r->second.self_s, jobs) * 1000,
                     Ratio(r->second.self_s, job_s) * 100);
  }
  out += StrPrintf("%-22s %7.0f %14.3f %8.1f%%  (job wall %.3f ms)\n",
                   "sum of self times", jobs, Ratio(accounted, jobs) * 1000,
                   Ratio(accounted, job_s) * 100,
                   Ratio(job_s, jobs) * 1000);
  out += StrPrintf("%-22s %7s %14s\n", "span (self time)", "calls",
                   "ms per call");
  for (const auto& [name, r] : rows) {
    bool in_job = false;
    for (const char* j : kJobSpans) in_job = in_job || name == j;
    if (in_job) continue;
    out += StrPrintf("%-22s %7d %14.3f\n", name.c_str(), r.calls,
                     Ratio(r.self_s, r.calls) * 1000);
  }
  return out;
}

}  // namespace perfbench
