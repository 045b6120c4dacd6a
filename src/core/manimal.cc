#include "core/manimal.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <system_error>

#include "common/strings.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace manimal::core {

namespace {

// Appends one line to `path`, creating the file if needed. Explain
// emission must never fail a job, so IO errors are swallowed.
void AppendLine(const std::string& path, const std::string& line) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) return;
  std::fwrite(line.data(), 1, line.size(), f);
  std::fwrite("\n", 1, 1, f);
  std::fclose(f);
}

}  // namespace

std::string ManimalSystem::DumpMetricsJson() {
  return obs::MetricsRegistry::Get().DumpJson();
}

Result<std::unique_ptr<ManimalSystem>> ManimalSystem::Open(
    Options options) {
  if (options.workspace_dir.empty()) {
    return Status::InvalidArgument("workspace_dir is required");
  }
  auto system =
      std::unique_ptr<ManimalSystem>(new ManimalSystem(options));
  MANIMAL_RETURN_IF_ERROR(CreateDirIfMissing(options.workspace_dir));
  MANIMAL_RETURN_IF_ERROR(
      CreateDirIfMissing(options.workspace_dir + "/artifacts"));
  MANIMAL_RETURN_IF_ERROR(
      CreateDirIfMissing(options.workspace_dir + "/tmp"));
  MANIMAL_ASSIGN_OR_RETURN(
      index::Catalog catalog,
      index::Catalog::Open(options.workspace_dir + "/catalog.txt"));
  system->catalog_ =
      std::make_unique<index::Catalog>(std::move(catalog));
  // Environment defaults for EXPLAIN, so any existing driver can be
  // introspected without a code change (mirrors MANIMAL_TRACE).
  if (system->options_.explain == optimizer::ExplainMode::kOff) {
    system->options_.explain = optimizer::ExplainModeFromEnv();
  }
  if (system->options_.explain_path.empty()) {
    const char* path = std::getenv("MANIMAL_EXPLAIN_PATH");
    if (path != nullptr) system->options_.explain_path = path;
  }
  return system;
}

exec::JobConfig ManimalSystem::MakeJobConfig(
    const std::string& output_path) {
  exec::JobConfig config;
  config.map_parallelism = options_.map_parallelism;
  config.num_partitions = options_.num_partitions;
  config.simulated_startup_seconds = options_.simulated_startup_seconds;
  config.simulated_disk_bytes_per_sec =
      options_.simulated_disk_bytes_per_sec;
  config.sort_buffer_bytes = options_.sort_buffer_bytes;
  config.max_task_attempts = options_.max_task_attempts;
  config.retry_backoff_ms = options_.retry_backoff_ms;
  config.output_path = output_path;
  config.temp_dir = FreshTempDir("job");
  // EXPLAIN ANALYZE needs the per-task stats and the per-record
  // predicate observation the engine only collects when asked.
  config.collect_task_stats =
      options_.explain == optimizer::ExplainMode::kAnalyze;
  config.backend = options_.backend;
  return config;
}

std::optional<optimizer::ExplainReport> ManimalSystem::MaybeExplain(
    const optimizer::Plan& plan, const exec::JobResult& job) {
  if (options_.explain == optimizer::ExplainMode::kOff) {
    return std::nullopt;
  }
  optimizer::ExplainReport report =
      options_.explain == optimizer::ExplainMode::kAnalyze
          ? optimizer::MakeExplainReport(plan, job)
          : optimizer::MakeExplainReport(plan);
  if (!options_.explain_path.empty()) {
    AppendLine(options_.explain_path, report.ToJson());
  }
  return report;
}

std::string ManimalSystem::FreshTempDir(const std::string& tag) {
  return options_.workspace_dir + "/tmp/" + tag + "-" +
         std::to_string(job_counter_++);
}

// Not RemoveDirRecursively: its rail refuses paths without "manimal" in
// them, and a workspace may live anywhere. These paths come from
// FreshTempDir alone.
void ManimalSystem::RemoveTempDir(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

Result<exec::JobResult> ManimalSystem::RunJobInTempDir(
    const exec::ExecutionDescriptor& descriptor,
    const exec::JobConfig& config) {
  Result<exec::JobResult> job = exec::RunJob(descriptor, config);
  RemoveTempDir(config.temp_dir);
  return job;
}

Result<ManimalSystem::SubmitOutcome> ManimalSystem::Submit(
    const Submission& submission) {
  MANIMAL_ASSIGN_OR_RETURN(analyzer::AnalysisReport report,
                           analyzer::Analyze(submission.program));
  return SubmitWithReport(submission, std::move(report));
}

Result<ManimalSystem::SubmitOutcome> ManimalSystem::SubmitWithReport(
    const Submission& submission, analyzer::AnalysisReport report) {
  obs::ScopedSpan span("system.submit", "core");
  span.AddArg("program", submission.program.name);
  SubmitOutcome outcome;
  outcome.report = std::move(report);
  outcome.index_programs = analyzer::SynthesizeIndexPrograms(
      submission.program, outcome.report);
  optimizer::PlanningOptions planning;
  planning.cost_based = options_.cost_based_optimizer;
  MANIMAL_ASSIGN_OR_RETURN(
      outcome.plan,
      optimizer::BuildPlan(submission.program, submission.input_path,
                           outcome.report, *catalog_, planning));
  MANIMAL_ASSIGN_OR_RETURN(
      outcome.job,
      RunJobInTempDir(outcome.plan.descriptor,
                      MakeJobConfig(submission.output_path)));
  outcome.explain = MaybeExplain(outcome.plan, outcome.job);
  return outcome;
}

Result<exec::JobResult> ManimalSystem::RunBaseline(
    const Submission& submission) {
  obs::ScopedSpan span("system.baseline", "core");
  span.AddArg("program", submission.program.name);
  exec::ExecutionDescriptor descriptor = optimizer::BaselineDescriptor(
      submission.program, submission.input_path);
  exec::JobConfig config = MakeJobConfig(submission.output_path);
  // The conventional run is the ground truth every differential check
  // compares against: pin the VM so neither Options::backend nor the
  // MANIMAL_BACKEND env can route it through a native kernel.
  config.backend = exec::Backend::kVm;
  return RunJobInTempDir(descriptor, config);
}

Result<exec::IndexBuildResult> ManimalSystem::BuildIndex(
    const analyzer::IndexGenProgram& spec,
    const std::string& input_path) {
  const std::string temp_dir = FreshTempDir("indexgen");
  Result<exec::IndexBuildResult> result = exec::BuildIndexArtifact(
      spec, input_path, options_.workspace_dir + "/artifacts", temp_dir,
      catalog_->StatsFor(input_path));
  RemoveTempDir(temp_dir);
  MANIMAL_RETURN_IF_ERROR(result.status());
  MANIMAL_RETURN_IF_ERROR(catalog_->Register(result->entry, result->stats));
  return result;
}

}  // namespace manimal::core
