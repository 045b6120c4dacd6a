#include "optimizer/optimizer.h"

#include <algorithm>

#include "analyzer/select.h"
#include "codegen/shape.h"
#include "columnar/dictionary.h"
#include "columnar/seqfile.h"
#include "common/env.h"
#include "common/strings.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "optimizer/cost.h"
#include "stats/stats.h"

namespace manimal::optimizer {

using analyzer::IndexGenProgram;
using exec::AccessPath;
using exec::ExecutionDescriptor;

exec::ExecutionDescriptor BaselineDescriptor(
    const mril::Program& program, const std::string& input_path) {
  ExecutionDescriptor d;
  d.access_path = AccessPath::kSeqScan;
  d.data_path = input_path;
  d.program = program;
  return d;
}

namespace {

// Builds the original-field -> runtime-slot remap for a projected
// artifact; empty when the mapping is the identity.
std::vector<int> MakeFieldRemap(const mril::Program& program,
                                const IndexGenProgram& spec) {
  if (!spec.projection || program.value_schema.opaque()) return {};
  std::vector<int> remap(program.value_schema.num_fields(), -1);
  bool identity =
      static_cast<int>(spec.kept_fields.size()) == program.value_schema.num_fields();
  for (size_t slot = 0; slot < spec.kept_fields.size(); ++slot) {
    remap[spec.kept_fields[slot]] = static_cast<int>(slot);
    if (spec.kept_fields[slot] != static_cast<int>(slot)) {
      identity = false;
    }
  }
  if (identity) return {};
  return remap;
}

// Applies direct-operation constant patches to a copy of the program:
// string constants compared against dictionary-compressed fields
// become their codes (or a sentinel no-match code when the string
// never occurs in the data).
Status PatchProgramForDictionary(
    const analyzer::AnalysisReport& report,
    const columnar::Dictionary& dict, mril::Program* program) {
  if (!report.direct_op.has_value()) return Status::OK();
  for (const auto& patch : report.direct_op->const_patches) {
    if (patch.load_const_pc < 0 ||
        patch.load_const_pc >=
            static_cast<int>(program->map_fn.code.size())) {
      return Status::Internal("const patch pc out of range");
    }
    mril::Instruction& inst = program->map_fn.code[patch.load_const_pc];
    if (inst.op != mril::Opcode::kLoadConst) {
      return Status::Internal("const patch target is not load_const");
    }
    const Value& original = program->constants.at(inst.operand);
    if (!original.is_str()) {
      return Status::Internal("const patch target is not a string");
    }
    std::optional<int64_t> code = dict.Encode(original.str());
    // A string absent from the dictionary can never equal any field
    // value; -1 is never a valid code.
    int64_t replacement = code.has_value() ? *code : -1;
    inst.operand = program->AddConstant(Value::I64(replacement));
  }
  return Status::OK();
}

}  // namespace

namespace {

// The Appendix E reduce-side key filter needs no artifact; it rides on
// whatever plan is chosen.
void AttachReduceFilter(const analyzer::AnalysisReport& report,
                        Plan* plan) {
  if (!report.reduce_filter.has_value()) return;
  plan->descriptor.reduce_key_filter = report.reduce_filter;
  plan->descriptor.applied.push_back(
      "reduce-key-filter(" +
      report.reduce_filter->required.ToString() + ")");
  plan->optimized = true;
}

}  // namespace

Result<Plan> BuildPlan(const mril::Program& program,
                       const std::string& input_path,
                       const analyzer::AnalysisReport& report,
                       const index::Catalog& catalog) {
  return BuildPlan(program, input_path, report, catalog,
                   PlanningOptions{});
}

namespace {

// Materializes the execution plan for one cataloged candidate.
Result<Plan> MakePlanForSpec(const mril::Program& program,
                             const IndexGenProgram& spec,
                             const index::CatalogEntry& entry,
                             const analyzer::AnalysisReport& report) {
  Plan plan;
  {
    plan.optimized = true;
    ExecutionDescriptor& d = plan.descriptor;
    d.program = program;
    d.data_path = entry.artifact_path;
    d.field_remap = MakeFieldRemap(program, spec);

    if (spec.column_groups) {
      d.access_path = AccessPath::kColumnGroups;
      // Open only the groups covering the program's live fields.
      if (report.projection.has_value()) {
        d.needed_fields = report.projection->used_fields;
      }
      d.applied.push_back(StrPrintf(
          "column-groups(%zu of %d fields read)",
          report.projection.has_value()
              ? report.projection->used_fields.size()
              : static_cast<size_t>(program.value_schema.num_fields()),
          program.value_schema.num_fields()));
    } else if (spec.btree) {
      d.access_path = AccessPath::kBTree;
      d.base_path = entry.base_path;
      d.clustered = spec.clustered;
      if (spec.clustered) {
        // Layout of the embedded records.
        columnar::SeqFileMeta meta;
        meta.original_schema = program.value_schema;
        if (spec.projection && !program.value_schema.opaque()) {
          meta.stored_schema =
              program.value_schema.Project(spec.kept_fields);
          meta.field_map = spec.kept_fields;
        } else {
          meta.stored_schema = program.value_schema;
          if (program.value_schema.opaque()) {
            meta.field_map = {0};
          } else {
            for (int i = 0; i < program.value_schema.num_fields(); ++i) {
              meta.field_map.push_back(i);
            }
          }
        }
        d.artifact_meta = std::move(meta);
      }
      // Canonicalized (sorted, merged) so overlapping DNF intervals
      // can never collect the same locator twice.
      d.intervals = CanonicalizeIntervals(report.selection->intervals);
      d.applied.push_back(std::string(spec.clustered ? "clustered " : "") +
                          "selection(B+Tree on " +
                          spec.key_expr->ToString() + ")");
    } else {
      d.access_path = AccessPath::kSeqScan;
    }
    if (spec.projection) {
      d.applied.push_back(StrPrintf(
          "projection(%zu of %d fields)", spec.kept_fields.size(),
          program.value_schema.num_fields()));
    }
    if (spec.delta) {
      d.applied.push_back(StrPrintf("delta-compression(%zu fields)",
                                    spec.delta_fields.size()));
    }
    if (spec.dictionary) {
      MANIMAL_ASSIGN_OR_RETURN(columnar::Dictionary dict,
                               columnar::Dictionary::Load(entry.dict_path));
      MANIMAL_RETURN_IF_ERROR(
          PatchProgramForDictionary(report, dict, &d.program));
      d.applied.push_back(StrPrintf("direct-operation(%zu fields)",
                                    spec.dict_fields.size()));
    }
    // Re-encoded artifacts are block-compressed (v2): surface the
    // codec so EXPLAIN shows what the scan will decode through.
    if (!entry.codec_chain.empty()) {
      d.applied.push_back("codec(" + entry.codec_chain + ")");
    }
  }
  plan.explanation = "using catalog artifact " + entry.artifact_path +
                     " (" + spec.Describe() + ")";
  AttachReduceFilter(report, &plan);
  return plan;
}

}  // namespace

namespace {

// Probes the native codegen tier's admission gates (the map's and the
// reduce fold's) against the chosen plan's (possibly constant-patched)
// program and runtime field layout, and — when the map is admitted
// and statistics exist — derives a per-term selectivity estimate so
// the kernel can short-circuit conjunct terms most-selective-first.
void AttachNativeEligibility(Plan* plan, PlanExplain* ex,
                             const stats::TableStats* stats) {
  exec::ExecutionDescriptor& d = plan->descriptor;
  Result<codegen::RelationalShape> shape =
      codegen::ExtractShape(d.program);
  if (!shape.ok()) {
    d.native_eligible = false;
    d.native_detail = shape.status().message();
  } else {
    d.native_eligible = true;
    d.native_detail = shape->Describe();
    if (stats != nullptr) {
      for (const analyzer::Conjunct& c : shape->formula.disjuncts) {
        for (const analyzer::SelectTerm& t : c.terms) {
          // Price each term alone: its own index ranges against the
          // column statistics, the same estimator the cost model
          // uses for whole predicates.
          analyzer::DnfFormula one;
          one.disjuncts.push_back(analyzer::Conjunct{{t}});
          analysis::ExprRef indexed;
          std::vector<analyzer::KeyInterval> intervals;
          if (!analyzer::DeriveIndexRanges(d.program, one, &indexed,
                                           &intervals)) {
            continue;
          }
          const stats::ColumnStats* column = FindKeyColumn(stats, indexed);
          if (column == nullptr) continue;
          std::vector<std::pair<std::string, double>> per_interval;
          std::string provenance;
          Result<double> fraction = EstimateSelectivity(
              /*tree=*/nullptr, column, intervals, &per_interval,
              &provenance);
          if (fraction.ok()) {
            d.native_term_selectivity.emplace_back(t.ToString(),
                                                   *fraction);
          }
        }
      }
    }
  }
  if (d.program.has_reduce()) {
    Result<codegen::FoldShape> fold = codegen::ExtractFoldShape(d.program);
    d.reduce_native_eligible = fold.ok();
    d.reduce_native_detail =
        fold.ok() ? fold->Describe() : fold.status().message();
  }
  ex->native_eligible = d.native_eligible;
  ex->native_detail = d.native_detail;
  ex->reduce_native_eligible = d.reduce_native_eligible;
  ex->reduce_native_detail = d.reduce_native_detail;
}

// Completes the plan with its EXPLAIN payload and the EXPLAIN ANALYZE
// observation hooks, and journals the selection. Every BuildPlan exit
// path funnels through here.
Plan FinalizePlan(Plan plan, PlanExplain ex,
                  const analyzer::AnalysisReport& report,
                  const stats::TableStats* stats = nullptr) {
  ex.summary = plan.explanation;
  ex.access_path = exec::AccessPathName(plan.descriptor.access_path);
  ex.applied = plan.descriptor.applied;
  ex.optimized = plan.optimized;
  // Observation hooks ride on EVERY plan with an indexable selection
  // (including the plain scan, whose descriptor.intervals stay empty):
  // the fabric only uses them under collect_task_stats. Canonicalized
  // so the observed per-interval keys join against the canonicalized
  // estimates.
  if (report.selection.has_value() && report.selection->indexable()) {
    plan.descriptor.observe_expr = report.selection->indexed_expr;
    plan.descriptor.observe_intervals =
        CanonicalizeIntervals(report.selection->intervals);
  }
  AttachNativeEligibility(&plan, &ex, stats);
  obs::Journal::Get()
      .Event("plan_selected")
      .Str("program", ex.program)
      .Str("input", ex.input_path)
      .Str("mode", ex.mode)
      .Str("access_path", ex.access_path)
      .Bool("optimized", ex.optimized)
      .Uint("candidates", ex.candidates.size())
      .Str("summary", ex.summary)
      .Emit();
  plan.explain = std::move(ex);
  return plan;
}

}  // namespace

Result<Plan> BuildPlan(const mril::Program& program,
                       const std::string& input_path,
                       const analyzer::AnalysisReport& report,
                       const index::Catalog& catalog,
                       const PlanningOptions& options) {
  obs::ScopedSpan plan_span("optimizer.build_plan", "optimizer");
  plan_span.AddArg("program", program.name);
  plan_span.AddArg("mode", options.cost_based ? "cost" : "rule");
  obs::MetricsRegistry::Get().GetCounter("optimizer.plans")
      ->Increment();
  // Candidates come pre-ranked for the rule-based mode: the maximal
  // combination first, then selection, projection, column groups,
  // delta, direct-op.
  std::vector<IndexGenProgram> candidates =
      analyzer::SynthesizeIndexPrograms(program, report);

  PlanExplain ex;
  ex.program = program.name;
  ex.input_path = input_path;
  ex.mode = options.cost_based ? "cost" : "rule";
  if (report.selection.has_value()) {
    ex.predicate = report.selection->formula.ToString();
  }
  Result<uint64_t> input_bytes_or = GetFileSize(input_path);
  if (input_bytes_or.ok()) {
    ex.baseline_bytes = static_cast<double>(*input_bytes_or);
  }

  // Catalog lookup + pricing for every candidate. Pricing touches
  // artifact metadata only (footers/manifests, O(1) I/O per
  // candidate), so both modes can afford to price everything — the
  // estimates feed EXPLAIN and the rejected-candidate trace.
  struct Avail {
    size_t idx;  // into candidates / ex.candidates
    index::CatalogEntry entry;
    std::optional<CandidateCost> cost;
  };
  std::vector<Avail> available;
  ex.candidates.resize(candidates.size());

  // The input's current version. Artifacts and column statistics built
  // from another version describe data that is no longer there: the
  // statistics are ignored (tree-fanout pricing takes over) and the
  // artifacts are stale, never chosen.
  Result<std::string> fingerprint = [&]() -> Result<std::string> {
    MANIMAL_ASSIGN_OR_RETURN(std::shared_ptr<columnar::SeqFileReader> input,
                             columnar::SeqFileReader::Open(input_path));
    return input->Fingerprint();
  }();
  const stats::TableStats* stats = catalog.StatsFor(input_path);
  if (stats != nullptr &&
      (!fingerprint.ok() || stats->fingerprint != *fingerprint)) {
    stats = nullptr;
  }

  size_t stale = 0;
  for (size_t i = 0; i < candidates.size(); ++i) {
    CandidateExplain& ce = ex.candidates[i];
    ce.describe = candidates[i].Describe();
    ce.signature = candidates[i].Signature();
    std::optional<index::CatalogEntry> entry =
        catalog.Find(input_path, ce.signature);
    if (!entry.has_value()) {
      ce.verdict = "uncataloged";
      ce.reason = "no matching artifact in catalog";
      continue;
    }
    ce.cataloged = true;
    ce.artifact_path = entry->artifact_path;
    if (!fingerprint.ok() || entry->input_fingerprint != *fingerprint) {
      ce.verdict = "stale";
      ce.reason =
          !fingerprint.ok()
              ? "input unreadable: " + fingerprint.status().ToString()
          : entry->input_fingerprint.empty()
              ? "built before input fingerprints were recorded; rebuild"
              : "input rewritten since the build (built from " +
                    entry->input_fingerprint + ", now " + *fingerprint +
                    "); rebuild";
      ++stale;
      continue;
    }
    ce.verdict = "rejected";  // chosen candidate overrides below
    Avail avail{i, std::move(*entry), std::nullopt};
    Result<CandidateCost> cost_or = EstimateArtifactCost(
        candidates[i], avail.entry, report, stats);
    if (cost_or.ok()) {
      avail.cost = *cost_or;
      ce.est_bytes = cost_or->bytes;
      ce.est_selectivity = cost_or->selectivity;
      ce.provenance = cost_or->provenance;
      ce.cost_detail = cost_or->detail;
      ce.interval_selectivity = cost_or->interval_selectivity;
    } else {
      ce.reason = "unpriceable: " + cost_or.status().ToString();
    }
    available.push_back(std::move(avail));
  }
  plan_span.AddArg("candidates", std::to_string(candidates.size()));
  plan_span.AddArg("cataloged", std::to_string(available.size()));

  auto reject_instant = [](const CandidateExplain& ce,
                           const char* reason) {
    obs::TraceInstant(
        "optimizer.candidate_rejected", "optimizer",
        {{"candidate", ce.describe},
         {"reason", reason},
         {"est_bytes", ce.est_bytes >= 0
                           ? StrPrintf("%.0f", ce.est_bytes)
                           : std::string("unpriceable")}});
    obs::MetricsRegistry::Get()
        .GetCounter("optimizer.candidates_rejected")
        ->Increment();
  };

  if (!options.cost_based) {
    if (!available.empty()) {
      // Rule-based: the pre-ranked head wins; the rest are rejected
      // by rank (their estimates still land in the trace + EXPLAIN).
      for (size_t i = 1; i < available.size(); ++i) {
        CandidateExplain& ce = ex.candidates[available[i].idx];
        if (ce.reason.empty()) ce.reason = "rule-based rank";
        reject_instant(ce, "rule-based rank");
      }
      const Avail& head = available[0];
      MANIMAL_ASSIGN_OR_RETURN(
          Plan plan, MakePlanForSpec(program, candidates[head.idx],
                                     head.entry, report));
      CandidateExplain& ce = ex.candidates[head.idx];
      ce.verdict = "chosen";
      ce.chosen = true;
      ce.reason = "rule-based rank: most optimizations exploited";
      if (head.cost.has_value()) {
        ex.est_bytes = head.cost->bytes;
        ex.est_selectivity = head.cost->selectivity;
        ex.est_provenance = head.cost->provenance;
      }
      return FinalizePlan(std::move(plan), std::move(ex), report, stats);
    }
  } else {
    // Price everything, including the plain scan.
    MANIMAL_RETURN_IF_ERROR(input_bytes_or.status());
    const uint64_t input_bytes = *input_bytes_or;
    CandidateCost best = BaselineCost(input_bytes);
    int chosen = -1;
    for (size_t i = 0; i < available.size(); ++i) {
      const Avail& avail = available[i];
      CandidateExplain& ce = ex.candidates[avail.idx];
      if (!avail.cost.has_value()) {
        // Unpriceable: skip, stay safe.
        reject_instant(ce, "unpriceable");
        continue;
      }
      obs::TraceInstant(
          "optimizer.candidate_priced", "optimizer",
          {{"candidate", ce.describe},
           {"est_bytes", StrPrintf("%.0f", avail.cost->bytes)},
           {"selectivity", StrPrintf("%.4f", avail.cost->selectivity)}});
      if (avail.cost->bytes < best.bytes) {
        best = *avail.cost;
        chosen = static_cast<int>(i);
      } else {
        ce.reason = "costlier than best";
        reject_instant(ce, "costlier than best");
      }
    }
    // A candidate displaced by a later, cheaper one never got a
    // rejection instant (parity with the pre-EXPLAIN behavior), but
    // EXPLAIN still labels it.
    for (size_t i = 0; i < available.size(); ++i) {
      if (static_cast<int>(i) == chosen) continue;
      CandidateExplain& ce = ex.candidates[available[i].idx];
      if (ce.reason.empty()) ce.reason = "costlier than chosen plan";
    }
    if (chosen >= 0) {
      const Avail& winner = available[chosen];
      MANIMAL_ASSIGN_OR_RETURN(
          Plan plan, MakePlanForSpec(program, candidates[winner.idx],
                                     winner.entry, report));
      plan.explanation += StrPrintf("; cost-based choice: %s (~%s)",
                                    best.detail.c_str(),
                                    HumanBytes(static_cast<uint64_t>(
                                                   best.bytes))
                                        .c_str());
      CandidateExplain& ce = ex.candidates[winner.idx];
      ce.verdict = "chosen";
      ce.chosen = true;
      ce.reason = "cheapest in estimated bytes moved";
      ex.est_bytes = best.bytes;
      ex.est_selectivity = best.selectivity;
      ex.est_provenance = best.provenance;
      return FinalizePlan(std::move(plan), std::move(ex), report, stats);
    }
    if (!available.empty()) {
      // Artifacts exist but none beats the scan.
      Plan plan;
      plan.descriptor = BaselineDescriptor(program, input_path);
      plan.explanation = StrPrintf(
          "cost-based: no cataloged artifact beats the full scan "
          "(~%s); running conventionally",
          HumanBytes(input_bytes).c_str());
      AttachReduceFilter(report, &plan);
      ex.est_bytes = static_cast<double>(input_bytes);
      ex.est_selectivity = 1.0;
      return FinalizePlan(std::move(plan), std::move(ex), report, stats);
    }
  }

  Plan plan;
  plan.descriptor = BaselineDescriptor(program, input_path);
  plan.explanation =
      candidates.empty()
          ? "no optimizations detected; running conventionally"
      : stale > 0
          ? "every cataloged artifact is stale (input changed since it "
            "was built); running conventionally until rebuilt"
          : "no matching index artifact in catalog; running "
            "conventionally (index-generation program available)";
  AttachReduceFilter(report, &plan);
  if (plan.optimized) {
    plan.explanation += "; pre-shuffle reduce-key filtering in effect";
  }
  return FinalizePlan(std::move(plan), std::move(ex), report, stats);
}

}  // namespace manimal::optimizer
