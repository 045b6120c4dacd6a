// Pipeline execution (paper Appendix E): chained MapReduce jobs with
// typed intermediates, per-stage Manimal analysis, and the cross-job
// optimization the paper anticipates — "assuming we can detect the
// link, it should be quite possible to track relational-style
// operations across jobs": stage i writes only the intermediate
// columns stage i+1 provably reads.

#include "analyzer/project.h"
#include "common/strings.h"
#include "core/manimal.h"
#include "obs/trace.h"

namespace manimal::core {

Result<ManimalSystem::PipelineResult> ManimalSystem::RunPipeline(
    std::vector<PipelineStage> stages, const std::string& input_path,
    const std::string& final_output_path,
    const PipelineOptions& options) {
  if (stages.empty()) {
    return Status::InvalidArgument("pipeline has no stages");
  }
  obs::ScopedSpan span("system.pipeline", "core");
  span.AddArg("stages", std::to_string(stages.size()));
  // Validate the stage chain's declared types up front.
  for (size_t i = 0; i < stages.size(); ++i) {
    const bool is_last = i + 1 == stages.size();
    if (!is_last && !stages[i].output_schema.has_value()) {
      return Status::InvalidArgument(
          StrPrintf("stage %zu needs a declared output schema (only the "
                    "final stage may omit it)",
                    i));
    }
    if (!is_last && stages[i].output_schema->opaque()) {
      return Status::InvalidArgument(
          "intermediate schemas must be structured");
    }
    if (i > 0) {
      const Schema& produced = *stages[i - 1].output_schema;
      const Schema& consumed = stages[i].program.value_schema;
      if (stages[i].program.value_param_kind !=
              mril::ValueParamKind::kRecord ||
          !(consumed == produced)) {
        return Status::InvalidArgument(StrPrintf(
            "stage %zu consumes '%s' but stage %zu produces '%s'", i,
            consumed.ToString().c_str(), i - 1,
            produced.ToString().c_str()));
      }
    }
  }

  PipelineResult result;
  result.final_output_path = final_output_path;
  std::string current_input = input_path;
  const std::string inter_dir = FreshTempDir("pipeline");
  MANIMAL_RETURN_IF_ERROR(CreateDirIfMissing(inter_dir));

  for (size_t i = 0; i < stages.size(); ++i) {
    const bool is_last = i + 1 == stages.size();
    PipelineStageOutcome outcome;

    MANIMAL_ASSIGN_OR_RETURN(
        outcome.report,
        analyzer::Analyze(stages[i].program, options.analyze));
    MANIMAL_ASSIGN_OR_RETURN(
        outcome.plan,
        optimizer::BuildPlan(stages[i].program, current_input,
                             outcome.report, *catalog_));

    std::string output = final_output_path;
    if (!is_last) {
      output = inter_dir + "/stage-" + std::to_string(i) + ".msq";
      outcome.intermediate_path = output;
    }
    exec::JobConfig config = MakeJobConfig(output);
    if (!is_last) {
      config.output_schema = stages[i].output_schema;
      // Cross-stage projection: consult the NEXT stage's liveness.
      if (options.cross_stage_projection) {
        analyzer::ProjectResult next_projection = analyzer::FindProject(
            stages[i + 1].program,
            /*logs_are_uses=*/options.analyze.safe_mode);
        if (next_projection.descriptor.has_value()) {
          config.output_kept_fields =
              next_projection.descriptor->used_fields;
          outcome.written_fields =
              next_projection.descriptor->used_fields;
        }
      }
    }
    Result<exec::JobResult> job =
        RunJobInTempDir(outcome.plan.descriptor, config);
    if (!job.ok()) {
      // Abort the pipeline cleanly: the failed job already removed
      // its own partial output; drop the intermediates earlier stages
      // left behind so a failed pipeline leaves no half-built state.
      RemoveTempDir(inter_dir);
      return job.status();
    }
    outcome.job = std::move(*job);
    outcome.explain = MaybeExplain(outcome.plan, outcome.job);
    current_input = output;
    result.stages.push_back(std::move(outcome));
  }
  return result;
}

}  // namespace manimal::core
