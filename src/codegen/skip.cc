#include "codegen/skip.h"

#include "analyzer/descriptor.h"
#include "codegen/shape.h"
#include "common/strings.h"
#include "mril/ops.h"

namespace manimal::codegen {
namespace {

using analysis::Expr;
using analyzer::Conjunct;
using analyzer::SelectTerm;

// A term normalized to `slot <op> value` over the stored layout.
struct SimpleTerm {
  int slot = -1;        // stored slot; -1 = field has no skip frame
  mril::Opcode op = mril::Opcode::kNop;
  int64_t value = 0;
  bool polarity = true;  // term must evaluate to this
};

// Is `e` a plain field access of the map value parameter (param 1)?
bool IsValueField(const Expr& e, int* field) {
  if (e.kind != Expr::Kind::kField || e.args.size() != 1) return false;
  const Expr& base = *e.args[0];
  if (base.kind != Expr::Kind::kParam || base.index != 1) return false;
  *field = e.index;
  return true;
}

// Parses one DNF term into SimpleTerm form. Returns false when the
// term is NOT a simple total comparison — which disqualifies the whole
// program (see header).
bool ParseTerm(const SelectTerm& term, const Schema& schema,
               const columnar::SeqFileReader& reader,
               const std::vector<int>& field_remap, SimpleTerm* out) {
  const Expr& e = *term.expr;
  if (e.kind != Expr::Kind::kOp || !mril::IsComparison(e.op) ||
      e.args.size() != 2) {
    return false;
  }
  const Expr& lhs = *e.args[0];
  const Expr& rhs = *e.args[1];
  int field = -1;
  mril::Opcode op = e.op;
  const Expr* cst = nullptr;
  if (IsValueField(lhs, &field) && rhs.kind == Expr::Kind::kConst) {
    cst = &rhs;
  } else if (IsValueField(rhs, &field) &&
             lhs.kind == Expr::Kind::kConst) {
    cst = &lhs;
    op = mril::MirrorComparison(op);
  } else {
    return false;
  }
  // Equality is total across kinds. An ordered comparison is total
  // only when the field's schema kind orders with the constant's;
  // otherwise the VM raises on every row, and a skipped block would
  // hide that.
  if (op != mril::Opcode::kCmpEq && op != mril::Opcode::kCmpNe &&
      (schema.opaque() || field < 0 || field >= schema.num_fields() ||
       !mril::OrderedComparable(FieldValueKind(schema.field(field).type),
                                cst->constant.kind()))) {
    return false;
  }
  out->op = op;
  out->polarity = term.polarity;
  out->slot = -1;
  // Frames bound decoded i64s only; other total comparisons stay
  // admissible but unusable for proving.
  if (!cst->constant.is_i64()) return true;
  out->value = cst->constant.i64();
  int slot = field;
  if (!field_remap.empty()) {
    if (field < 0 || field >= static_cast<int>(field_remap.size())) {
      return true;
    }
    slot = field_remap[field];
  }
  int64_t lo = 0, hi = 0;
  // Probe block 0 purely to learn whether the slot is framed.
  if (slot >= 0 && reader.num_blocks() > 0 &&
      reader.BlockSlotBounds(0, slot, &lo, &hi)) {
    out->slot = slot;
  }
  return true;
}

// Can `v <op> c` hold for some v in [lo, hi]?
bool Satisfiable(mril::Opcode op, int64_t c, int64_t lo, int64_t hi) {
  switch (op) {
    case mril::Opcode::kCmpEq: return lo <= c && c <= hi;
    case mril::Opcode::kCmpNe: return !(lo == c && hi == c);
    case mril::Opcode::kCmpLt: return lo < c;
    case mril::Opcode::kCmpLe: return lo <= c;
    case mril::Opcode::kCmpGt: return hi > c;
    case mril::Opcode::kCmpGe: return hi >= c;
    default: return true;
  }
}

// Does `v <op> c` hold for every v in [lo, hi]?
bool Universal(mril::Opcode op, int64_t c, int64_t lo, int64_t hi) {
  switch (op) {
    case mril::Opcode::kCmpEq: return lo == c && hi == c;
    case mril::Opcode::kCmpNe: return c < lo || c > hi;
    case mril::Opcode::kCmpLt: return hi < c;
    case mril::Opcode::kCmpLe: return hi <= c;
    case mril::Opcode::kCmpGt: return lo > c;
    case mril::Opcode::kCmpGe: return lo >= c;
    default: return false;
  }
}

}  // namespace

std::shared_ptr<const std::vector<bool>> BuildBlockSkipFilter(
    const mril::Program& program, const columnar::SeqFileReader& reader,
    const std::vector<int>& field_remap, BlockSkipReport* report) {
  BlockSkipReport local;
  BlockSkipReport& rep = report != nullptr ? *report : local;
  rep = BlockSkipReport();
  rep.blocks_total = reader.num_blocks();
  if (!reader.has_skip_frames()) {
    rep.detail = "input has no skip frames";
    return nullptr;
  }
  Result<RelationalShape> shape = ExtractShape(program);
  if (!shape.ok()) {
    rep.detail = "shape not admitted: " + shape.status().message();
    return nullptr;
  }
  const analyzer::DnfFormula& formula = shape->formula;
  if (formula.IsAlwaysTrue() || formula.IsNever()) {
    // Nothing to elide (always) or the scan is already empty work
    // (never): either way frames cannot improve on the formula itself.
    rep.detail = "formula is constant";
    return nullptr;
  }
  // Parse every term up front; ANY non-simple term disqualifies.
  std::vector<std::vector<SimpleTerm>> disjuncts;
  disjuncts.reserve(formula.disjuncts.size());
  for (const Conjunct& c : formula.disjuncts) {
    std::vector<SimpleTerm> terms;
    terms.reserve(c.terms.size());
    bool provable = false;
    for (const SelectTerm& t : c.terms) {
      SimpleTerm st;
      if (!ParseTerm(t, program.value_schema, reader, field_remap, &st)) {
        rep.detail =
            "term not a simple total comparison: " + t.ToString();
        return nullptr;
      }
      provable |= st.slot >= 0;
      terms.push_back(st);
    }
    if (!provable) {
      // One un-provable disjunct means no block can ever be fully
      // refuted — don't bother scanning the frames.
      rep.detail = "a disjunct has no frame-provable term";
      return nullptr;
    }
    disjuncts.push_back(std::move(terms));
  }

  auto skip = std::make_shared<std::vector<bool>>(reader.num_blocks(),
                                                  false);
  uint64_t skipped = 0;
  for (uint64_t b = 0; b < reader.num_blocks(); ++b) {
    bool all_refuted = true;
    for (const std::vector<SimpleTerm>& terms : disjuncts) {
      bool refuted = false;
      for (const SimpleTerm& t : terms) {
        if (t.slot < 0) continue;
        int64_t lo = 0, hi = 0;
        if (!reader.BlockSlotBounds(b, t.slot, &lo, &hi)) continue;
        // polarity=true: the disjunct needs the comparison to HOLD, so
        // it is refuted when no value in range can satisfy it.
        // polarity=false: the disjunct needs it to FAIL, refuted when
        // it holds for every value in range.
        const bool dead = t.polarity
                              ? !Satisfiable(t.op, t.value, lo, hi)
                              : Universal(t.op, t.value, lo, hi);
        if (dead) {
          refuted = true;
          break;
        }
      }
      if (!refuted) {
        all_refuted = false;
        break;
      }
    }
    if (all_refuted) {
      (*skip)[b] = true;
      ++skipped;
    }
  }
  rep.blocks_skipped = skipped;
  if (skipped == 0) {
    rep.detail = "admitted; no block refutable";
    return nullptr;
  }
  rep.admitted = true;
  rep.detail = StrPrintf("admitted; %llu/%llu blocks refuted",
                         static_cast<unsigned long long>(skipped),
                         static_cast<unsigned long long>(rep.blocks_total));
  return skip;
}

}  // namespace manimal::codegen
