// ManimalSystem — the public entry point, mirroring the user
// walkthrough of paper §2.2 and Figure 1:
//
//   1. Submit a compiled, unmodified MRIL program plus its input file.
//   2. The ANALYZER derives optimization descriptors and emits
//      index-generation programs.
//   3. The OPTIMIZER consults the catalog and picks an execution
//      descriptor.
//   4. The EXECUTION FABRIC runs the (possibly modified copy of the)
//      program, via B+Tree ranges or re-encoded inputs when available.
//
// "The decision to run an index-generation program is left to the
// system administrator" — BuildIndex() is that decision.

#ifndef MANIMAL_CORE_MANIMAL_H_
#define MANIMAL_CORE_MANIMAL_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analyzer/analyzer.h"
#include "common/status.h"
#include "exec/engine.h"
#include "exec/index_build.h"
#include "index/catalog.h"
#include "optimizer/explain.h"
#include "optimizer/optimizer.h"

namespace manimal::core {

class ManimalSystem {
 public:
  struct Options {
    // Root directory for the catalog, index artifacts, and scratch
    // space. Created if missing.
    std::string workspace_dir;
    int map_parallelism = 4;
    int num_partitions = 4;
    // Price cataloged artifacts (and the plain scan) in estimated
    // bytes moved and pick the cheapest, instead of the paper's
    // rule-based ranking (§2.2 names cost-based planning as the
    // long-run approach).
    bool cost_based_optimizer = false;
    double simulated_startup_seconds = 3.0;
    // See exec::JobConfig::simulated_disk_bytes_per_sec (0 disables).
    uint64_t simulated_disk_bytes_per_sec = 16u << 20;
    uint64_t sort_buffer_bytes = 32u << 20;
    // Fault handling, forwarded into every job's JobConfig (see
    // exec::JobConfig and docs/testing.md).
    int max_task_attempts = 4;
    double retry_backoff_ms = 1.0;

    // ---- EXPLAIN / EXPLAIN ANALYZE (docs/observability.md) ----
    // kPlan: SubmitOutcome::explain carries the optimizer's full
    // candidate set. kAnalyze: additionally runs the job with
    // per-task stats + per-record predicate observation and joins
    // them into the drift report. Open() defaults this from
    // MANIMAL_EXPLAIN when left at kOff.
    optimizer::ExplainMode explain = optimizer::ExplainMode::kOff;
    // When non-empty, every explain report produced is also appended
    // to this file as one JSON line. Open() defaults it from
    // MANIMAL_EXPLAIN_PATH.
    std::string explain_path;

    // ---- native codegen tier (docs/mril.md "Native kernels") ----
    // Map-side backend for optimized submissions. kAuto additionally
    // honors MANIMAL_BACKEND=vm|native|auto. RunBaseline always pins
    // the VM regardless of this setting — the conventional run is the
    // differential ground truth.
    exec::Backend backend = exec::Backend::kAuto;
  };

  struct Submission {
    mril::Program program;
    std::string input_path;   // plain SeqFile
    std::string output_path;  // PairFile the job writes
  };

  struct SubmitOutcome {
    analyzer::AnalysisReport report;
    // Index-generation programs handed back to the administrator
    // (paper: submitting a job "yields not just a program result, but
    // also an index-generation program").
    std::vector<analyzer::IndexGenProgram> index_programs;
    optimizer::Plan plan;
    exec::JobResult job;
    // EXPLAIN / EXPLAIN ANALYZE report (Options::explain != kOff).
    std::optional<optimizer::ExplainReport> explain;
  };

  static Result<std::unique_ptr<ManimalSystem>> Open(Options options);

  // The full Manimal pipeline: analyze, optimize, execute.
  Result<SubmitOutcome> Submit(const Submission& submission);

  // Appendix A path for layered tools (Pig/Hive): the caller supplies
  // the analysis (its own high-level knowledge of job semantics) and
  // the analyzer is bypassed.
  Result<SubmitOutcome> SubmitWithReport(const Submission& submission,
                                         analyzer::AnalysisReport report);

  // Conventional execution — what standard Hadoop would do with the
  // same program and input. The benchmarks' baseline.
  Result<exec::JobResult> RunBaseline(const Submission& submission);

  // Administrator action: materialize an index artifact and register
  // it in the catalog.
  Result<exec::IndexBuildResult> BuildIndex(
      const analyzer::IndexGenProgram& spec,
      const std::string& input_path);

  // ---- pipelines (paper Appendix E: "extend Manimal techniques to
  // optimize processing pipelines ... chained MapReduce jobs, in which
  // the output of a given job forms the input of a separate job") ----

  struct PipelineStage {
    mril::Program program;
    // Declared record layout of this stage's output — each emitted
    // (k, v) pair becomes the record [k] ++ flatten(v). Required for
    // every stage except the last (whose output is a PairFile).
    // This is the "declared types" link that lets the analyzer track
    // relational operations across jobs.
    std::optional<Schema> output_schema;
  };

  struct PipelineStageOutcome {
    analyzer::AnalysisReport report;
    optimizer::Plan plan;
    exec::JobResult job;
    // Per-stage EXPLAIN report (Options::explain != kOff).
    std::optional<optimizer::ExplainReport> explain;
    // Cross-stage projection: the declared output fields this stage
    // actually wrote because the NEXT stage provably reads only them
    // (empty = all fields written).
    std::vector<int> written_fields;
    std::string intermediate_path;  // "" for the final stage
  };

  struct PipelineOptions {
    // Drop intermediate columns the next stage provably never reads
    // (safe: pipeline intermediates have exactly one consumer).
    bool cross_stage_projection = true;
    analyzer::AnalyzeOptions analyze;
  };

  struct PipelineResult {
    std::vector<PipelineStageOutcome> stages;
    std::string final_output_path;
  };

  // Runs the chained jobs, analyzing and optimizing each stage. Each
  // stage's map() value schema must equal the previous stage's
  // declared output schema.
  Result<PipelineResult> RunPipeline(std::vector<PipelineStage> stages,
                                     const std::string& input_path,
                                     const std::string& final_output_path,
                                     const PipelineOptions& options);
  Result<PipelineResult> RunPipeline(
      std::vector<PipelineStage> stages, const std::string& input_path,
      const std::string& final_output_path) {
    return RunPipeline(std::move(stages), input_path, final_output_path,
                       PipelineOptions{});
  }

  const index::Catalog& catalog() const { return *catalog_; }
  const Options& options() const { return options_; }

  // JSON snapshot of the process-wide telemetry registry (counters,
  // gauges, histograms) accumulated across every job this process ran.
  // See docs/observability.md for the metric naming scheme.
  static std::string DumpMetricsJson();

 private:
  explicit ManimalSystem(Options options)
      : options_(std::move(options)) {}

  exec::JobConfig MakeJobConfig(const std::string& output_path);
  // A new scratch directory name under <workspace>/tmp, one per call.
  std::string FreshTempDir(const std::string& tag);
  // Removes a FreshTempDir directory with whatever the call left in it
  // (spill runs, a failed attempt's part files). Best effort.
  static void RemoveTempDir(const std::string& path);
  // Runs a job configured by MakeJobConfig, then removes its temp_dir,
  // on success and on failure. The output lives at output_path, not
  // there.
  Result<exec::JobResult> RunJobInTempDir(
      const exec::ExecutionDescriptor& descriptor,
      const exec::JobConfig& config);
  // Builds the explain report for a finished job when Options::explain
  // asks for one (nullopt otherwise), appending its JSON line to
  // Options::explain_path when set.
  std::optional<optimizer::ExplainReport> MaybeExplain(
      const optimizer::Plan& plan, const exec::JobResult& job);

  Options options_;
  std::unique_ptr<index::Catalog> catalog_;
  int job_counter_ = 0;
};

}  // namespace manimal::core

#endif  // MANIMAL_CORE_MANIMAL_H_
