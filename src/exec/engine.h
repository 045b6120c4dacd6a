// The execution fabric (paper §2.2 Step 3): a multi-threaded,
// disk-backed MapReduce engine. "Most of the execution fabric is
// identical to a traditional MapReduce system" — map tasks over input
// splits, hash partitioning, an external-sort shuffle, reduce tasks —
// "with a few modifications to support B+Tree-indexed input formats"
// (and the other optimized representations), which arrive via the
// ExecutionDescriptor. The shuffle/reduce data path (per-mapper spill
// buffers, heap merge, streaming reduce) is described in
// docs/execution.md.

#ifndef MANIMAL_EXEC_ENGINE_H_
#define MANIMAL_EXEC_ENGINE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "exec/descriptor.h"
#include "serde/schema.h"

namespace manimal::exec {

// Which execution tier runs the map and reduce functions (docs/mril.md
// "Native kernels" and "Reduce folds"). kAuto compiles a native kernel
// for each phase whose function the admission gate admits
// (codegen::ExtractShape for the map, codegen::ExtractFoldShape for
// the reduce) and silently falls back to the VM otherwise; kNative
// fails the job when the map is not admissible (a refused reduce
// still runs on the VM); kVm never probes the native tier.
enum class Backend {
  kAuto = 0,
  kVm,
  kNative,
};

// Stable lowercase name ("auto" / "vm" / "native").
const char* BackendName(Backend backend);
// Parses a BackendName (also accepted via the MANIMAL_BACKEND env
// var); nullopt for anything else.
std::optional<Backend> BackendFromName(std::string_view name);

struct JobConfig {
  // Map-side parallelism (cluster "slots").
  int map_parallelism = 4;
  // Reduce partitions, one reduce task each. The reduce phase runs
  // them on map_parallelism workers.
  int num_partitions = 4;
  // Scratch space for shuffle spills (required).
  std::string temp_dir;
  // Where the job writes its PairFile output (required).
  std::string output_path;
  // Fixed job-launch overhead added to the reported runtime (Hadoop
  // startup "can be up to 15 seconds", paper Appendix D). Not slept —
  // accounted.
  double simulated_startup_seconds = 3.0;
  // When set, the job's output is written as a typed SeqFile instead
  // of a PairFile, so another MapReduce job can consume it (pipeline
  // support, paper Appendix E). Each emitted (k, v) pair becomes the
  // record [k] ++ (v's elements if v is a list, else [v]) and must
  // match this schema. `output_kept_fields` optionally projects the
  // written records (cross-stage projection: drop columns the next
  // stage provably ignores); empty keeps everything.
  std::optional<Schema> output_schema;
  std::vector<int> output_kept_fields;

  // Simulated disk throughput per worker (0 disables). The paper's
  // cluster was I/O-bound — Anderson & Tucek measured Hadoop moving
  // well under 5 MB/s/core — while this fabric runs over the page
  // cache; charging bytes moved (input + shuffle + output) against
  // this rate restores the byte-proportional cost structure the
  // paper's speedups rest on. Accounted into reported_seconds, not
  // slept.
  uint64_t simulated_disk_bytes_per_sec = 16u << 20;
  // Shuffle in-memory sort budget, divided across the concurrently
  // running map tasks; each map task buffers its partitioned output
  // privately and spills sorted runs when its share fills.
  uint64_t sort_buffer_bytes = 32u << 20;

  // ---- fault handling (docs/testing.md) ----
  // Task-level retry budget: each map/reduce task is attempted at
  // most this many times; transient IO failures (StatusCode::kIOError,
  // including injected faults) retry with exponential backoff,
  // everything else fails the job immediately.
  int max_task_attempts = 4;
  // Base backoff before attempt n >= 2: base * 2^(n-2), capped at
  // 100 ms, so the first retry sleeps `base`. Zero disables sleeping
  // (tests).
  double retry_backoff_ms = 1.0;

  // ---- observability (docs/observability.md) ----
  // Stable identifier stamped on every journal event, trace span, and
  // EXPLAIN report for this job; auto-assigned ("job-<n>", one
  // process-wide counter) when left empty.
  std::string job_id;
  // EXPLAIN ANALYZE: record per-task runtime stats and — when the
  // descriptor carries observation hooks (observe_expr) and the input
  // layout is unremapped — evaluate the selection's index-key
  // expression per scanned record to count matches per interval. Adds
  // per-record work on the map path, so it is off by default and only
  // enabled by explain/analysis callers.
  bool collect_task_stats = false;

  // ---- execution backend (docs/mril.md "Native kernels") ----
  // kAuto additionally honors the MANIMAL_BACKEND env var
  // (vm|native|auto); an explicit kVm / kNative here always wins over
  // the environment. The same choice covers both phases. The resolved
  // tiers are recorded on JobResult, every task_start journal event,
  // and the native counters.
  Backend backend = Backend::kAuto;
};

// Every job counter, declared once. JobCounters' fields, operator+=
// and ForEach are generated from this table, and every surface carries
// every row, in table order, under its field name (docs/observability.md
// "Job counters", whose table a test keeps equal to this one).
#define MANIMAL_JOB_COUNTERS(X)                                               \
  X(input_records)          /* records map tasks scanned */                   \
  X(input_bytes)            /* bytes actually read by map tasks */            \
  X(input_file_bytes)       /* size of the (indexed) input file */            \
  X(bytes_decoded)          /* uncompressed input bytes materialized */       \
  X(blocks_skipped)         /* blocks direct evaluation never read */         \
  X(map_invocations)        /* records the map function ran on */             \
  X(map_output_records)     /* pairs map tasks emitted */                     \
  X(map_output_bytes)       /* encoded bytes of those pairs */                \
  X(map_output_filtered)    /* pairs the App. E reduce-key filter deleted */  \
  X(reduce_groups)          /* key groups reduce tasks consumed */            \
  X(output_records)         /* pairs (or records) in the job output */        \
  X(output_bytes)           /* bytes of the committed job output */           \
  X(log_messages)           /* log() calls of map and reduce */               \
  X(shuffle_spilled_runs)   /* sorted runs mappers spilled to disk */         \
  X(shuffle_spilled_bytes)  /* bytes of those runs */                         \
  X(task_retries)           /* attempts beyond each task's first */           \
  X(tasks_failed)           /* tasks that failed: retries spent or non-IO */  \
  X(native_tasks)           /* map tasks committed on the native kernel */    \
  X(native_bailout_records) /* records those replayed through the VM */       \
  X(native_reduce_groups)   /* groups reduce tasks folded natively */         \
  X(reduce_bailout_groups)  /* groups they replayed whole through the VM */

struct JobCounters {
#define MANIMAL_JOB_COUNTER_FIELD(name) uint64_t name = 0;
  MANIMAL_JOB_COUNTERS(MANIMAL_JOB_COUNTER_FIELD)
#undef MANIMAL_JOB_COUNTER_FIELD
  // Always 0, and outside the table, so no surface carries it; its
  // only reader is perfbench's exec.speculative_frac.
  uint64_t speculative_launches = 0;

  JobCounters& operator+=(const JobCounters& other) {
#define MANIMAL_JOB_COUNTER_ADD(name) name += other.name;
    MANIMAL_JOB_COUNTERS(MANIMAL_JOB_COUNTER_ADD)
#undef MANIMAL_JOB_COUNTER_ADD
    return *this;
  }

  // Calls fn(const char* name, uint64_t value) per row, in table order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
#define MANIMAL_JOB_COUNTER_VISIT(name) fn(#name, name);
    MANIMAL_JOB_COUNTERS(MANIMAL_JOB_COUNTER_VISIT)
#undef MANIMAL_JOB_COUNTER_VISIT
  }
};

// One named phase of a job's wall time, with the bytes that phase
// moved (the paper's tables decompose runtimes exactly this way:
// startup vs. scan vs. shuffle vs. output).
struct PhaseStat {
  double seconds = 0;
  uint64_t bytes = 0;
};

// One committed task attempt's runtime stats (EXPLAIN ANALYZE;
// populated only under JobConfig::collect_task_stats). The attempt
// column shows which retry committed the task; failed attempts leave
// no row.
struct TaskStat {
  char kind = 'm';  // 'm' = map task, 'r' = reduce task
  int index = 0;    // split index (map) or partition (reduce)
  int attempt = 0;  // 1-based attempt
  uint64_t records_in = 0;   // records scanned (map) / groups (reduce)
  uint64_t records_out = 0;  // pairs emitted
  // Input bytes read (map) / shuffle key + payload bytes merged
  // (reduce).
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  // VM steps executed by the attempt (for a reduce task with a native
  // fold, only its replayed groups).
  uint64_t vm_instructions = 0;
  double seconds = 0;            // attempt work time (excludes commit)
};

// Observed match count for one predicate interval: how many scanned
// records' index-key value fell inside it. Divide by
// JobCounters::map_invocations for observed selectivity — the
// "actual" side of EXPLAIN ANALYZE's estimated-vs-actual drift
// report.
struct PredicateStat {
  std::string predicate;  // KeyInterval::ToString() of the interval
  uint64_t matched = 0;
};

struct JobResult {
  // Copied from JobConfig::job_id (after auto-assignment); the same
  // id appears on this job's journal events and trace spans.
  std::string job_id;
  JobCounters counters;
  double map_seconds = 0;
  double reduce_seconds = 0;
  double wall_seconds = 0;         // measured work time
  double simulated_io_seconds = 0; // bytes moved / simulated disk rate
  // wall + simulated startup + simulated I/O.
  double reported_seconds = 0;
  std::string output_path;
  std::vector<std::string> applied_optimizations;
  // Contiguous decomposition of wall_seconds: "plan" (input planning
  // and shuffle setup), "map" (bytes = input read + map output
  // written), "reduce" (the reduce/output pass; bytes = shuffled
  // bytes + job output). The phases sum to ~wall_seconds.
  std::map<std::string, PhaseStat> phase_breakdown;

  // ---- EXPLAIN ANALYZE payload (JobConfig::collect_task_stats) ----
  // Per-committed-attempt rows, in commit order.
  std::vector<TaskStat> task_stats;
  // Per-interval observed match counts of the selection predicate;
  // empty unless the fabric actually observed records
  // (predicates_observed below).
  std::vector<PredicateStat> predicate_stats;
  // True when observe_expr was evaluated over the scanned records
  // (stats requested, hooks present, layout unremapped).
  bool predicates_observed = false;

  // Resolved map backend ("vm" / "native") and why — the kernel
  // description, or the admission-gate reason behind a vm fallback.
  std::string backend;
  std::string backend_detail;
  // The same for the reduce phase; both empty for a map-only job.
  std::string reduce_backend;
  std::string reduce_backend_detail;
};

// Runs the job described by `descriptor` under `config`.
Result<JobResult> RunJob(const ExecutionDescriptor& descriptor,
                         const JobConfig& config);

}  // namespace manimal::exec

#endif  // MANIMAL_EXEC_ENGINE_H_
