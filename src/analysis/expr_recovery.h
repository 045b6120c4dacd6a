// Recovers symbolic expressions (use-def DAGs) from verified MRIL
// bytecode — the engine behind getUseDef() in paper §3.2.
//
// Because the verifier guarantees the operand stack is empty at every
// basic-block boundary, each interesting operand (a branch condition,
// an emitted key/value, a stored value) can be reconstructed by
// symbolically re-executing only the block that consumes it. Loads of
// locals are resolved through reaching definitions, recursively
// expanding each definition's stored expression; anything ambiguous
// (multiple distinct reaching definitions, loop-carried values)
// resolves to Unknown, which downstream safety tests reject.

#ifndef MANIMAL_ANALYSIS_EXPR_RECOVERY_H_
#define MANIMAL_ANALYSIS_EXPR_RECOVERY_H_

#include <functional>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "analysis/cfg.h"
#include "analysis/expr.h"
#include "analysis/reaching_defs.h"
#include "mril/program.h"

namespace manimal::analysis {

class ExprRecovery {
 public:
  ExprRecovery(const Program& program, const Function& fn, const Cfg& cfg,
               const ReachingDefs& reaching);

  // The condition value consumed by the conditional branch at pc.
  ExprRef BranchCondition(int branch_pc);

  // (key, value) operands of the emit at pc.
  std::pair<ExprRef, ExprRef> EmitOperands(int emit_pc);

  // The value consumed by store_local/store_member at pc.
  ExprRef StoredValue(int def_pc);

  // The value consumed by log at pc.
  ExprRef LogOperand(int log_pc);

 private:
  // Symbolic stack contents immediately before executing `pc`.
  std::vector<ExprRef> StackBefore(int pc);

  // Expression observed by a load of `var` at `pc`.
  ExprRef ResolveLoad(int pc, VarRef var);

  const Program& program_;
  const Function& fn_;
  const Cfg& cfg_;
  const ReachingDefs& reaching_;

  std::map<int, ExprRef> stored_memo_;  // def pc -> expr
  std::set<int> in_progress_;           // cycle guard
};

// Applies the instruction at `pc` to a symbolic operand stack: an
// instruction that produces a value pushes its expression, reading
// locals and members through `load`; the operands any other
// instruction consumes (a store's value, emit's key and value, a
// branch condition, a popped or logged value) are returned in push
// order. Popping an empty stack yields Unknown.
std::vector<ExprRef> SymbolicStep(
    const Program& program, const mril::Instruction& inst, int pc,
    const std::function<ExprRef(VarRef)>& load,
    std::vector<ExprRef>* stack);

}  // namespace manimal::analysis

#endif  // MANIMAL_ANALYSIS_EXPR_RECOVERY_H_
