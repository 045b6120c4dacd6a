// The Manimal optimizer (paper §2.2 Step 2): "examines the
// descriptors, the user's input file, and the catalog to choose the
// most efficient execution plan currently possible."
//
// Two planning modes:
//
// RULE-BASED (default, the paper's): the index exploiting the most
// optimizations wins; selection is favored over delta-compression when
// both could apply (footnote 3); among remaining candidates the
// hard-coded ranking is selection > projection > column-groups >
// delta-compression > direct-operation.
//
// COST-BASED (the approach the paper defers to future work): every
// cataloged candidate is priced in estimated bytes moved — B+Tree
// selectivity read off the tree's own root fan-out — and the cheapest
// plan wins, INCLUDING the plain scan when no artifact beats it (an
// index at 60% selectivity can easily cost more than scanning).

#ifndef MANIMAL_OPTIMIZER_OPTIMIZER_H_
#define MANIMAL_OPTIMIZER_OPTIMIZER_H_

#include <string>

#include "analyzer/analyzer.h"
#include "common/status.h"
#include "exec/descriptor.h"
#include "index/catalog.h"
#include "optimizer/explain.h"

namespace manimal::optimizer {

struct Plan {
  exec::ExecutionDescriptor descriptor;
  // Why this plan was chosen (or why the baseline fell out).
  std::string explanation;
  // True when an indexed artifact is in use.
  bool optimized = false;
  // The full candidate set and estimates behind this choice —
  // everything EXPLAIN renders (explain.h). Always populated by
  // BuildPlan; rendering it is the caller's opt-in.
  PlanExplain explain;
};

// The unoptimized plan: full scan of the raw input with the unmodified
// program (what conventional Hadoop would do).
exec::ExecutionDescriptor BaselineDescriptor(const mril::Program& program,
                                             const std::string& input_path);

struct PlanningOptions {
  // When true, price every cataloged candidate (and the baseline scan)
  // in estimated bytes moved and pick the cheapest.
  bool cost_based = false;
};

// Chooses the best available plan given the analysis and catalog.
// Falls back to the baseline when no usable artifact exists.
Result<Plan> BuildPlan(const mril::Program& program,
                       const std::string& input_path,
                       const analyzer::AnalysisReport& report,
                       const index::Catalog& catalog,
                       const PlanningOptions& options);
Result<Plan> BuildPlan(const mril::Program& program,
                       const std::string& input_path,
                       const analyzer::AnalysisReport& report,
                       const index::Catalog& catalog);

}  // namespace manimal::optimizer

#endif  // MANIMAL_OPTIMIZER_OPTIMIZER_H_
