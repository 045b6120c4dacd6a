// Optimization descriptors — the analyzer's output (paper §2.2 Step 1:
// "The resulting optimization descriptor list has, for each applicable
// optimization, a label that identifies the optimization and
// optimization-specific parameters").

#ifndef MANIMAL_ANALYZER_DESCRIPTOR_H_
#define MANIMAL_ANALYZER_DESCRIPTOR_H_

#include <optional>
#include <string>
#include <vector>

#include "analysis/expr.h"
#include "analysis/side_effects.h"
#include "serde/schema.h"
#include "serde/value.h"

namespace manimal::analyzer {

using analysis::ExprRef;

// One literal of the emit condition: `expr` must evaluate to
// `polarity`.
struct SelectTerm {
  ExprRef expr;
  bool polarity = true;

  std::string ToString() const;
};

// A conjunction of terms; an empty conjunct is `true`.
struct Conjunct {
  std::vector<SelectTerm> terms;

  std::string ToString() const;
};

// Disjunctive normal form over emit-path conditions (Figure 3's dnf).
// No disjuncts means `false` (map never emits); a disjunct with no
// terms means `true`.
struct DnfFormula {
  std::vector<Conjunct> disjuncts;

  bool IsAlwaysTrue() const {
    for (const Conjunct& c : disjuncts) {
      if (c.terms.empty()) return true;
    }
    return false;
  }
  bool IsNever() const { return disjuncts.empty(); }

  std::string ToString() const;
};

// Half-open/closed interval over index-key values; unset bound means
// unbounded. Used to turn the DNF into B+Tree range scans.
struct KeyInterval {
  std::optional<Value> lo;
  bool lo_inclusive = true;
  std::optional<Value> hi;
  bool hi_inclusive = true;

  bool Contains(const Value& v) const;
  std::string ToString() const;
};

// Sorts intervals by lower bound, drops empty ones, and merges
// overlapping or touching ones, so that no key range is covered twice
// (an un-simplified DNF can produce overlapping intervals, and
// per-interval sums and scans must not count a key twice).
std::vector<KeyInterval> CanonicalizeIntervals(
    std::vector<KeyInterval> intervals);

// SELECT: map() emits only when `formula` holds (paper §2.1/§3.2).
struct SelectionDescriptor {
  DnfFormula formula;

  // When the formula constrains a single expression against constants,
  // that expression becomes the B+Tree key and `intervals` is a union
  // of ranges covering every record that can satisfy the formula
  // (records outside provably fail it). When not range-indexable,
  // `indexed_expr` is null and the selection is detected but cannot be
  // exploited with a B+Tree.
  ExprRef indexed_expr;
  std::vector<KeyInterval> intervals;

  bool indexable() const { return indexed_expr != nullptr; }
  std::string ToString() const;
};

// PROJECT: fields of the input record the map() provably never needs
// (Figure 6's paramFields - usedFields).
struct ProjectionDescriptor {
  std::vector<int> used_fields;      // ascending
  std::vector<int> unneeded_fields;  // ascending

  std::string ToString() const;
};

// DELTA-COMPRESSION: numeric input fields eligible for delta encoding
// (Appendix C).
struct DeltaCompressionDescriptor {
  std::vector<int> numeric_fields;

  std::string ToString() const;
};

// DIRECT-OPERATION: string input fields used only in
// equality-preserving ways, eligible for dictionary compression
// without decompression (Appendix C / Appendix D Table 6).
struct DirectOperationDescriptor {
  std::vector<int> fields;

  // map()-bytecode load_const sites whose string constant is compared
  // for equality against a compressed field; the optimizer rewrites
  // each to the constant's dictionary code when preparing the
  // "potentially-modified copy of the user's original program"
  // (paper §2).
  struct ConstPatch {
    int field = -1;
    int load_const_pc = -1;
  };
  std::vector<ConstPatch> const_patches;

  std::string ToString() const;
};

// Why a particular optimization was not detected — surfaced to users
// and asserted on by the Table 1 recall bench.
struct MissReason {
  std::string optimization;  // "selection" / "projection" / ...
  std::string reason;
};

// Appendix E extension: a conjunction of key-only literals every
// emitting reduce group satisfies; map outputs failing it are deleted
// before the shuffle.
struct ReduceFilterDescriptor {
  Conjunct required;

  std::string ToString() const;
};

// The analyzer's full report for one program.
struct AnalysisReport {
  std::optional<SelectionDescriptor> selection;
  std::optional<ProjectionDescriptor> projection;
  std::optional<DeltaCompressionDescriptor> delta;
  std::optional<DirectOperationDescriptor> direct_op;
  std::optional<ReduceFilterDescriptor> reduce_filter;

  std::vector<MissReason> misses;
  std::vector<analysis::SideEffect> side_effects;

  std::string ToString() const;
};

}  // namespace manimal::analyzer

#endif  // MANIMAL_ANALYZER_DESCRIPTOR_H_
