// Cost estimation for candidate execution plans — the cost-based
// planning the paper defers (§2.2: the optimizer's choices "in the
// long run should be determined by a cost-based approach, but for now
// are solved with simple rule-based heuristics").
//
// The cost unit is estimated BYTES MOVED by the map phase, the
// quantity the whole evaluation shows performance tracks. Predicate
// selectivity comes from, in order of preference:
//
//   1. "histogram"     — the per-column equi-depth histograms and
//                        distinct-count sketches collected at
//                        index-build time (src/stats/);
//   2. "btree-fanout"  — the B+Tree's own root fan-out, an implicit
//                        equi-depth histogram of the key distribution
//                        needing no statistics infrastructure (catalogs
//                        written before stats existed, empty inputs).
//
// The chosen source is recorded as the estimate's provenance and
// surfaces in EXPLAIN.

#ifndef MANIMAL_OPTIMIZER_COST_H_
#define MANIMAL_OPTIMIZER_COST_H_

#include <string>
#include <utility>
#include <vector>

#include "analyzer/analyzer.h"
#include "common/status.h"
#include "index/btree.h"
#include "index/catalog.h"
#include "stats/stats.h"

namespace manimal::optimizer {

struct CandidateCost {
  // Estimated bytes the map phase reads under this candidate.
  double bytes = 0;
  // Estimated matching fraction (1.0 for full scans).
  double selectivity = 1.0;
  // Which estimator produced `selectivity`: "histogram",
  // "btree-fanout", or "" when no selectivity estimate applies (plain
  // full scans).
  std::string provenance;
  std::string detail;  // human-readable breakdown
  // Per-interval breakdown of `selectivity`: (KeyInterval::ToString(),
  // estimated fraction) per canonicalized selection interval. EXPLAIN
  // ANALYZE joins these against the fabric's observed per-interval
  // match counts to produce the estimated-vs-actual drift report.
  // Empty when no selection applies.
  std::vector<std::pair<std::string, double>> interval_selectivity;
};

// Intervals from outside the analyzer (App. A reports) are
// canonicalized again before they are priced or scanned.
using analyzer::CanonicalizeIntervals;

// Estimated matching fraction of `intervals` (canonicalized
// internally). Uses `column` histograms when usable, else the tree's
// root fan-out; exactly one of `tree` / `column` may be null. Appends
// the per-interval breakdown to *per_interval and names the estimator
// in *provenance. Exposed for tests.
Result<double> EstimateSelectivity(
    const index::BTreeReader* tree, const stats::ColumnStats* column,
    const std::vector<analyzer::KeyInterval>& intervals,
    std::vector<std::pair<std::string, double>>* per_interval,
    std::string* provenance);

// The stats column describing index key `expr`: "expr:<expr>" as
// collected by B+Tree builds, falling back to the per-field column
// when the expression is a plain field of the map value parameter.
// nullptr when `stats` or `expr` is null or no column matches.
const stats::ColumnStats* FindKeyColumn(const stats::TableStats* stats,
                                        const analysis::ExprRef& expr);

// Cost of a cataloged artifact for this program/report. Opens the
// artifact's metadata (footers/manifests only — O(1) I/O). `stats`
// holds the input file's column statistics (nullable).
Result<CandidateCost> EstimateArtifactCost(
    const analyzer::IndexGenProgram& spec,
    const index::CatalogEntry& entry,
    const analyzer::AnalysisReport& report,
    const stats::TableStats* stats);

// Cost of the conventional full scan.
CandidateCost BaselineCost(uint64_t input_bytes);

}  // namespace manimal::optimizer

#endif  // MANIMAL_OPTIMIZER_COST_H_
