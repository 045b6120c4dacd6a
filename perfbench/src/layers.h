// Per-layer attribution for the traced run.
//
// The benchmark records spans from its own code, around each call it
// makes into a Manimal layer. Intervals the benchmark cannot time from
// outside are added as synthesized child spans: the engine's
// plan/map/reduce phases (from JobResult::phase_breakdown), and the
// synthesize/plan work inside SubmitWithReport (timed by repeating the
// same calls just before it). A span's self time is its duration minus
// the durations of its children, so the self times of one job's spans
// add up to the job's wall time.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "exec/engine.h"
#include "exec/index_build.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Span {
  std::string name;
  double start_us = 0;
  double dur_us = 0;
  int parent = -1;  // index into the span list, -1 for a root
};

class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  // Records a span that ran from `start` to `end`; returns its id.
  int Add(const std::string& name, int parent, Clock::time_point start,
          Clock::time_point end);
  // Records a span of `seconds` starting `offset_s` after the parent
  // starts, for intervals known only by their duration.
  int AddChild(const std::string& name, int parent, double offset_s,
               double seconds);
  // Adds exec.job (the job's measured wall time, placed at the end of
  // `parent`) with the engine's phases as its children.
  void AddJob(int parent, const manimal::exec::JobResult& job);

  struct Row {
    int calls = 0;
    double total_s = 0;
    double self_s = 0;
  };
  // Per span name: call count, total and self time.
  std::map<std::string, Row> Rows() const;

  // Chrome trace-event JSON (chrome://tracing, ui.perfetto.dev).
  manimal::Status WriteChromeTrace(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// What the per-layer metrics count. JobResult counters come from the
// untraced stack, whose jobs run exactly as in an untraced run; the
// TaskStat rows exist only in the traced stack (EXPLAIN ANALYZE).
struct LayerTally {
  int jobs = 0;  // untraced Submit + RunBaseline jobs
  int submit_jobs = 0;
  int optimized = 0;
  uint64_t candidates = 0;
  double job_s = 0;
  double plan_s = 0;
  double map_s = 0;
  double reduce_s = 0;
  double simulated_io_s = 0;
  uint64_t speculative_launches = 0;
  uint64_t task_retries = 0;
  uint64_t map_output_bytes = 0;
  uint64_t spilled_runs = 0;
  uint64_t spilled_bytes = 0;
  uint64_t bytes_decoded = 0;
  uint64_t blocks_skipped = 0;
  uint64_t native_tasks = 0;
  uint64_t native_bailouts = 0;  // over jobs the native tier ran
  uint64_t native_records = 0;
  uint64_t selected_out = 0;  // over jobs whose plan has a predicate
  uint64_t selected_in = 0;

  int traced_jobs = 0;  // traced-stack jobs with TaskStat rows
  uint64_t traced_map_tasks = 0;
  std::vector<double> task_skews;  // max / median map-task seconds
  uint64_t vm_instructions = 0;    // map tasks of VM-backed jobs
  uint64_t vm_records = 0;

  double probe_bytes = 0;  // standalone SeqFile scans
  double probe_s = 0;
  double decode_s = 0;  // probe time scaled to the bytes a job decoded
  double map_slot_s = 0;  // that job's map phase seconds x map slots

  int builds = 0;
  double build_s = 0;  // IndexBuildResult::seconds
  uint64_t build_records = 0;
  uint64_t artifact_bytes = 0;

  void AddJob(const manimal::exec::JobResult& job, bool submit,
              bool optimized, size_t candidates, bool predicate);
  void AddTasks(const manimal::exec::JobResult& job);
  void AddBuild(const manimal::exec::IndexBuildResult& build);
};

// The per_layer metrics of the traced run, by name.
std::map<std::string, double> LayerMetrics(const Tracer& tracer,
                                           const LayerTally& tally);

// The self-time table: one line per span name, with each name's self
// time per traced job and its share of the traced jobs' wall time.
std::string LayerTable(const Tracer& tracer);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
