#include "analyzer/select.h"

#include <limits>
#include <utility>

#include "analysis/cfg.h"
#include "analysis/expr_recovery.h"
#include "analysis/paths.h"
#include "analysis/reaching_defs.h"
#include "analysis/side_effects.h"
#include "analyzer/simplify.h"
#include "common/strings.h"
#include "mril/ops.h"

namespace manimal::analyzer {

using analysis::Cfg;
using analysis::CfgPath;
using analysis::Expr;
using analysis::ExprRecovery;
using analysis::ReachingDefs;
using mril::Opcode;

namespace {

// Static value-kind inference (gates integer normalizations and
// ordered bounds).
std::optional<ValueKind> StaticKind(const ExprRef& e,
                                    const mril::Program& program) {
  if (e == nullptr) return std::nullopt;
  switch (e->kind) {
    case Expr::Kind::kConst:
      return e->constant.kind();
    case Expr::Kind::kParam:
      if (e->index == mril::kMapKeyParam) {
        return FieldValueKind(program.key_type);
      }
      return std::nullopt;  // the record/blob parameter
    case Expr::Kind::kField:
      if (e->args.empty() || e->args[0] == nullptr ||
          e->args[0]->kind != Expr::Kind::kParam ||
          e->args[0]->index != mril::kMapValueParam ||
          program.value_schema.opaque() || e->index < 0 ||
          e->index >= program.value_schema.num_fields()) {
        return std::nullopt;
      }
      return FieldValueKind(program.value_schema.field(e->index).type);
    case Expr::Kind::kMember:
    case Expr::Kind::kUnknown:
      return std::nullopt;
    case Expr::Kind::kCall:
      return e->builtin != nullptr ? e->builtin->result_kind
                                   : std::nullopt;
    case Expr::Kind::kOp: {
      if (mril::IsComparison(e->op) || e->op == Opcode::kAnd ||
          e->op == Opcode::kOr || e->op == Opcode::kNot) {
        return ValueKind::kBool;
      }
      if (e->op == Opcode::kAdd || e->op == Opcode::kSub ||
          e->op == Opcode::kMul || e->op == Opcode::kDiv ||
          e->op == Opcode::kMod || e->op == Opcode::kNeg) {
        for (const ExprRef& a : e->args) {
          if (StaticKind(a, program) != ValueKind::kI64) {
            return std::nullopt;
          }
        }
        return ValueKind::kI64;
      }
      return std::nullopt;
    }
  }
  return std::nullopt;
}

// ---- interval-set algebra ----

using IntervalSet = std::vector<KeyInterval>;

IntervalSet FullSet() { return {KeyInterval{}}; }

std::optional<KeyInterval> IntersectIntervals(const KeyInterval& a,
                                              const KeyInterval& b) {
  KeyInterval out = a;
  if (b.lo.has_value()) {
    if (!out.lo.has_value() || out.lo->Compare(*b.lo) < 0 ||
        (out.lo->Compare(*b.lo) == 0 && out.lo_inclusive &&
         !b.lo_inclusive)) {
      out.lo = b.lo;
      out.lo_inclusive = b.lo_inclusive;
    }
  }
  if (b.hi.has_value()) {
    if (!out.hi.has_value() || out.hi->Compare(*b.hi) > 0 ||
        (out.hi->Compare(*b.hi) == 0 && out.hi_inclusive &&
         !b.hi_inclusive)) {
      out.hi = b.hi;
      out.hi_inclusive = b.hi_inclusive;
    }
  }
  if (out.lo.has_value() && out.hi.has_value()) {
    int c = out.lo->Compare(*out.hi);
    if (c > 0) return std::nullopt;
    if (c == 0 && !(out.lo_inclusive && out.hi_inclusive)) {
      return std::nullopt;
    }
  }
  return out;
}

IntervalSet IntersectSets(const IntervalSet& a, const IntervalSet& b) {
  IntervalSet out;
  for (const KeyInterval& x : a) {
    for (const KeyInterval& y : b) {
      if (auto merged = IntersectIntervals(x, y)) {
        out.push_back(*merged);
      }
    }
  }
  return out;
}

// Solution set of `key cmp bound` for a generic scalar bound.
IntervalSet ComparisonSolution(Opcode op, const Value& bound) {
  KeyInterval iv;
  switch (op) {
    case Opcode::kCmpLt:
      iv.hi = bound;
      iv.hi_inclusive = false;
      break;
    case Opcode::kCmpLe:
      iv.hi = bound;
      iv.hi_inclusive = true;
      break;
    case Opcode::kCmpGt:
      iv.lo = bound;
      iv.lo_inclusive = false;
      break;
    case Opcode::kCmpGe:
      iv.lo = bound;
      iv.lo_inclusive = true;
      break;
    case Opcode::kCmpEq:
      iv.lo = bound;
      iv.hi = bound;
      break;
    case Opcode::kCmpNe:
      // Over-approximate the punctured line with the full range.
      break;
    default:
      break;
  }
  return {iv};
}

// Solution set over E of `wrap(E + shift) cmp k` for statically-i64 E.
// The non-wrapping region contributes the shifted interval; the
// wrapping fringe (|shift| values at the i64 edge) is included
// wholesale as an over-approximation.
IntervalSet ShiftedComparisonSolution(Opcode op, int64_t k,
                                      int64_t shift) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  IntervalSet out;

  // Shifted bound in wide arithmetic, then clamp.
  __int128 wide = static_cast<__int128>(k) - shift;
  if (op == Opcode::kCmpNe) {
    return FullSet();
  }
  if (wide > kMax) {
    // E cmp (beyond max): lt/le -> full; gt/ge/eq -> empty normal part.
    if (op == Opcode::kCmpLt || op == Opcode::kCmpLe) out = FullSet();
  } else if (wide < kMin) {
    if (op == Opcode::kCmpGt || op == Opcode::kCmpGe) out = FullSet();
  } else {
    out = ComparisonSolution(op, Value::I64(static_cast<int64_t>(wide)));
  }

  // Wrap-guard fringe.
  if (shift > 0) {
    KeyInterval fringe;
    fringe.lo = Value::I64(kMax - shift + 1);
    out.push_back(fringe);
  } else if (shift < 0) {
    KeyInterval fringe;
    fringe.hi = Value::I64(kMin - shift - 1);
    out.push_back(fringe);
  }
  return out;
}

// One parsed literal: base expression, effective comparison, bound,
// and the integer shift (0 when none).
struct ParsedTerm {
  ExprRef base;
  Opcode op = Opcode::kCmpEq;
  Value bound;
  int64_t shift = 0;
  bool shifted = false;
};

// Parses `E cmp const`, `const cmp E`, `(E +/- c) cmp k` (i64 only,
// either operand order inside the +).
bool ParseTerm(const SelectTerm& term, const mril::Program& program,
               ParsedTerm* out) {
  const ExprRef& expr = term.expr;
  if (expr == nullptr || expr->kind != Expr::Kind::kOp ||
      !mril::IsComparison(expr->op) || expr->args.size() != 2) {
    return false;
  }
  ExprRef lhs = expr->args[0];
  ExprRef rhs = expr->args[1];
  Opcode op = expr->op;
  auto is_const = [](const ExprRef& e) {
    return e != nullptr && e->kind == Expr::Kind::kConst;
  };
  if (is_const(lhs) && !is_const(rhs)) {
    std::swap(lhs, rhs);
    op = mril::MirrorComparison(op);
  }
  if (is_const(lhs) || !is_const(rhs)) return false;
  if (!term.polarity) op = mril::NegateComparison(op);

  // Shifted form?
  if (lhs->kind == Expr::Kind::kOp &&
      (lhs->op == Opcode::kAdd || lhs->op == Opcode::kSub) &&
      lhs->args.size() == 2 && rhs->constant.is_i64()) {
    const ExprRef& a = lhs->args[0];
    const ExprRef& b = lhs->args[1];
    // Keep shifts comfortably inside the i64 range so fringe bounds
    // and negation below cannot themselves overflow.
    constexpr int64_t kShiftLimit = int64_t{1} << 62;
    auto small_const = [&](const ExprRef& e) {
      return is_const(e) && e->constant.is_i64() &&
             e->constant.i64() > -kShiftLimit &&
             e->constant.i64() < kShiftLimit;
    };
    ExprRef base;
    int64_t shift = 0;
    if (small_const(b) && !is_const(a)) {
      base = a;
      shift = lhs->op == Opcode::kAdd ? b->constant.i64()
                                      : -b->constant.i64();
    } else if (lhs->op == Opcode::kAdd && small_const(a) &&
               !is_const(b)) {
      base = b;
      shift = a->constant.i64();
    }
    if (base != nullptr && shift != 0 &&
        StaticKind(base, program) == ValueKind::kI64) {
      out->base = base;
      out->op = op;
      out->bound = rhs->constant;
      out->shift = shift;
      out->shifted = true;
      return true;
    }
  }

  out->base = lhs;
  out->op = op;
  out->bound = rhs->constant;
  out->shift = 0;
  out->shifted = false;
  return true;
}

}  // namespace

bool DeriveIndexRanges(const mril::Program& program,
                       const DnfFormula& formula, ExprRef* indexed_expr,
                       std::vector<KeyInterval>* intervals) {
  indexed_expr->reset();
  intervals->clear();
  if (formula.disjuncts.empty()) return false;

  // Pass 1: every literal must parse against one common base E.
  ExprRef common;
  std::vector<ValueKind> ordered_bounds;
  for (const Conjunct& c : formula.disjuncts) {
    for (const SelectTerm& t : c.terms) {
      ParsedTerm parsed;
      if (!ParseTerm(t, program, &parsed)) return false;
      if (common == nullptr) {
        common = parsed.base;
      } else if (!common->Equals(*parsed.base)) {
        return false;
      }
      if (parsed.op != Opcode::kCmpEq && parsed.op != Opcode::kCmpNe) {
        ordered_bounds.push_back(parsed.bound.kind());
      }
    }
  }
  if (common == nullptr) return false;  // all-true conjuncts: no keying
  // The VM raises on an ordered comparison of kinds it cannot order,
  // and no range may exclude a record it raises on. So every ordered
  // bound must order with E's static kind when that is known, and with
  // every other ordered bound (equality is total across kinds).
  if (!ordered_bounds.empty()) {
    const ValueKind kind =
        StaticKind(common, program).value_or(ordered_bounds[0]);
    for (ValueKind bound : ordered_bounds) {
      if (!mril::OrderedComparable(kind, bound)) return false;
    }
  }

  // Pass 2: interval-set per conjunct (intersection of term solutions),
  // unioned across disjuncts.
  IntervalSet result;
  for (const Conjunct& c : formula.disjuncts) {
    IntervalSet conjunct_set = FullSet();
    for (const SelectTerm& t : c.terms) {
      ParsedTerm parsed;
      if (!ParseTerm(t, program, &parsed)) return false;
      IntervalSet term_set;
      if (parsed.shifted) {
        term_set = ShiftedComparisonSolution(parsed.op,
                                             parsed.bound.i64(),
                                             parsed.shift);
      } else {
        term_set = ComparisonSolution(parsed.op, parsed.bound);
      }
      conjunct_set = IntersectSets(conjunct_set, term_set);
      if (conjunct_set.empty()) break;  // unsatisfiable conjunct
    }
    for (KeyInterval& iv : conjunct_set) result.push_back(iv);
  }

  *indexed_expr = common;
  // Empty when the formula is unsatisfiable: an empty scan is still
  // valid and safe.
  *intervals = CanonicalizeIntervals(std::move(result));
  return true;
}

SelectResult FindSelect(const mril::Program& program) {
  SelectResult result;
  const mril::Function& fn = program.map_fn;

  // Figure 2 hazard: any persistent-state mutation means skipping
  // invocations changes program state, so invocation-skipping is
  // unsafe regardless of what the conditions look like.
  if (analysis::HasMemberWrites(fn)) {
    result.miss_reason =
        "map() writes member variables; output may not be a pure "
        "function of its inputs (Fig. 2)";
    return result;
  }

  Cfg cfg = Cfg::Build(fn);
  ReachingDefs reaching(fn, cfg);
  ExprRecovery recovery(program, fn, cfg, reaching);

  // Gather emits.
  std::vector<int> emit_pcs;
  for (int pc = 0; pc < static_cast<int>(fn.code.size()); ++pc) {
    if (fn.code[pc].op == Opcode::kEmit) emit_pcs.push_back(pc);
  }
  if (emit_pcs.empty()) {
    result.miss_reason = "map() never emits";
    return result;
  }

  DnfFormula dnf;
  bool any_unconditional_path = false;

  for (int emit_pc : emit_pcs) {
    auto paths_or =
        analysis::EnumeratePathsTo(cfg, cfg.BlockOf(emit_pc));
    if (!paths_or.ok()) {
      // Report the most specific cause: a branch condition resting on
      // a class the analyzer has no purity knowledge of (e.g. the
      // Hashtable of §4.1 Benchmark 4) beats a generic loop-carried
      // unknown, which beats the raw control-flow complaint.
      std::string unknown_reason;
      for (int pc = 0; pc < static_cast<int>(fn.code.size()); ++pc) {
        if (!mril::IsConditionalBranch(fn.code[pc].op)) continue;
        ExprRef cond = recovery.BranchCondition(pc);
        std::string why;
        if (analysis::IsFunctional(cond, &why)) continue;
        if (why.find("purity knowledge") != std::string::npos) {
          result.miss_reason =
              "emit-guarding condition is not functional: " + why;
          return result;
        }
        if (unknown_reason.empty()) {
          unknown_reason =
              "emit-guarding condition is not functional: " + why;
        }
      }
      result.miss_reason = unknown_reason.empty()
                               ? std::string(paths_or.status().message())
                               : unknown_reason;
      return result;
    }
    for (const CfgPath& path : *paths_or) {
      Conjunct conjunct;
      for (const analysis::PathCondition& pc : path.conditions) {
        ExprRef cond = recovery.BranchCondition(pc.branch_pc);
        std::string why;
        if (!analysis::IsFunctional(cond, &why)) {
          result.miss_reason =
              "emit-path condition is not functional: " + why;
          return result;
        }
        // Normalize (constant folding, NOT elimination, canonical
        // orientation) — exact rewrites only.
        cond = Simplify(cond);
        // Deduplicate identical literals within the conjunct.
        bool dup = false;
        for (const SelectTerm& t : conjunct.terms) {
          if (t.polarity == pc.polarity && t.expr->Equals(*cond)) {
            dup = true;
            break;
          }
        }
        if (!dup) {
          conjunct.terms.push_back(SelectTerm{cond, pc.polarity});
        }
      }
      if (conjunct.terms.empty()) any_unconditional_path = true;
      dnf.disjuncts.push_back(std::move(conjunct));
    }

    // Safety beyond Figure 3: the emitted data itself must be a pure
    // function of the inputs, or skipping rows that fail the formula
    // could still change output (e.g. emit(k, numMapsRun)).
    auto [key_expr, value_expr] = recovery.EmitOperands(emit_pc);
    std::string why;
    if (!analysis::IsFunctional(key_expr, &why) ||
        !analysis::IsFunctional(value_expr, &why)) {
      result.miss_reason = "emitted data is not functional: " + why;
      return result;
    }
  }

  if (any_unconditional_path) {
    // Some path emits with no conditions: map always emits; no
    // selection semantics to exploit.
    result.always_emits = true;
    return result;
  }

  SelectionDescriptor desc;
  desc.formula = std::move(dnf);
  ExprRef indexed;
  std::vector<KeyInterval> intervals;
  if (DeriveIndexRanges(program, desc.formula, &indexed, &intervals)) {
    desc.indexed_expr = indexed;
    desc.intervals = std::move(intervals);
  }
  result.descriptor = std::move(desc);
  return result;
}

}  // namespace manimal::analyzer
