// Relational-shape extraction — the admission gate of the native
// codegen tier (ROADMAP item: bypass the interpretation ceiling; the
// Casper direction of lifting UDF semantics and retargeting them to a
// faster backend).
//
// A map() qualifies when the analyzer's recovered facts describe it
// EXACTLY: it is a pure selection+projection — a DNF emit condition
// (analyzer/select), functional emit operands (analysis/expr_recovery),
// no side effects (analysis/side_effects) — with no residual VM-only
// behavior. "No residual behavior" is the hard part: the VM evaluates
// every instruction on the executed path, so an arithmetic fault (div
// by zero, a type error) in code the recovered expressions do NOT
// cover would fire under the VM but not under a kernel that evaluates
// only the recovered expressions. ExtractShape therefore also proves
// coverage: every fault-capable instruction in map() must appear as an
// origin_pc inside the expressions the kernel will evaluate, and every
// conditional branch must test one of the formula's terms. Shapes that
// fail any test fall back to the VM — never a wrong answer, only a
// slower one.

#ifndef MANIMAL_CODEGEN_SHAPE_H_
#define MANIMAL_CODEGEN_SHAPE_H_

#include <string>
#include <vector>

#include "analyzer/descriptor.h"
#include "common/status.h"
#include "mril/program.h"
#include "serde/value.h"

namespace manimal::codegen {

// The exact relational semantics of one admitted map():
//   for each (key, record):
//     if formula(key, record): emit(key_expr, value_expr)
// An always-emitting map has a TRUE formula (one empty conjunct); a
// never-emitting map has a FALSE formula (no disjuncts) and null
// key/value expressions.
struct RelationalShape {
  analyzer::DnfFormula formula;
  analysis::ExprRef key_expr;    // null iff the map never emits
  analysis::ExprRef value_expr;  // null iff the map never emits
  bool always_emits = false;
  int emit_pc = -1;  // -1 iff the map never emits

  // Value-parameter fields referenced anywhere in the shape's
  // expressions (original schema indexes, pre-remap). Empty with
  // whole_record=false means the record content is never consulted.
  std::vector<int> used_fields;
  // True when some expression uses the record other than via plain
  // field access (e.g. emits the whole record).
  bool whole_record = false;

  std::string Describe() const;
};

// Decides admission. Errors are always StatusCode::kNotSupported with
// a human-readable reason (surfaced through EXPLAIN as the
// native-eligibility detail); any other code indicates an internal
// inconsistency.
Result<RelationalShape> ExtractShape(const mril::Program& program);

// ---- reduce folds (docs/mril.md "Reduce folds") ----
//
// Fold expressions read the reduce parameters (mril::kReduceKeyParam,
// and mril::kReduceValuesParam only as list.len(values)) plus two
// more parameter leaves: the accumulator and the current element.
inline constexpr int kFoldAccParam = 2;
inline constexpr int kFoldElemParam = 3;

// The exact semantics of one admitted reduce():
//   acc = init
//   for each elem of values, in order: acc = op(acc, g(elem))
//   emit(key_expr, value_expr)
// A loop-free reduce (e.g. emit(key, list.len(values))) has no g and
// its emit never reads acc.
struct FoldShape {
  Value init;
  mril::Opcode op = mril::Opcode::kNop;
  analysis::ExprRef g;  // null for a loop-free reduce
  analysis::ExprRef key_expr;
  analysis::ExprRef value_expr;
  // An upper bound on the VM steps reduce() takes over a group of n
  // values: fixed_steps + n * steps_per_value (one per unlinked
  // instruction; linking only fuses or drops instructions).
  int64_t fixed_steps = 0;
  int64_t steps_per_value = 0;

  std::string Describe() const;
};

// Decides reduce admission: a constant init, at most one counted loop
// `for i in [0, list.len(values))` whose body is one basic block
// updating one accumulator `acc = op(acc, g(list.get(values, i)))`
// with an ApplyOp operator and a pure g, and one emit after the loop
// of pure expressions over key, acc and list.len(values). Anything
// else (a log, a member access, a key test or other early exit, an
// emit inside the loop, a second accumulator, a nested loop) is
// StatusCode::kNotSupported with a readable reason.
Result<FoldShape> ExtractFoldShape(const mril::Program& program);

}  // namespace manimal::codegen

#endif  // MANIMAL_CODEGEN_SHAPE_H_
