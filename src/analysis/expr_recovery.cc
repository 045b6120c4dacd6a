#include "analysis/expr_recovery.h"

#include "common/check.h"
#include "mril/builtins.h"
#include "obs/metrics.h"

namespace {
// "analysis.expr_queries": symbolic-recovery requests (branch
// conditions, emit operands, stored values, log operands) across all
// analyzer passes.
void CountExprQuery() {
  manimal::obs::MetricsRegistry::Get()
      .GetCounter("analysis.expr_queries")
      ->Increment();
}
}  // namespace

namespace manimal::analysis {

using mril::Builtin;
using mril::BuiltinRegistry;
using mril::Instruction;
using mril::Opcode;

ExprRecovery::ExprRecovery(const Program& program, const Function& fn,
                           const Cfg& cfg, const ReachingDefs& reaching)
    : program_(program), fn_(fn), cfg_(cfg), reaching_(reaching) {}

ExprRef ExprRecovery::ResolveLoad(int pc, VarRef var) {
  if (var.kind == VarRef::Kind::kMember) {
    // Member variables are external state by definition — the previous
    // invocation may have written them, so the analyzer never expands
    // through them (Figure 2's numMapsRun).
    return Expr::MakeMember(var.slot, pc);
  }
  std::vector<int> defs = reaching_.DefsReaching(pc, var);
  if (defs.empty()) {
    // Uninitialized local read.
    return Expr::MakeUnknown(pc);
  }
  ExprRef resolved;
  for (int def_pc : defs) {
    ExprRef e = StoredValue(def_pc);
    if (e == nullptr || e->kind == Expr::Kind::kUnknown) {
      return Expr::MakeUnknown(pc);
    }
    if (resolved == nullptr) {
      resolved = e;
    } else if (!resolved->Equals(*e)) {
      // Distinct values can flow here along different paths.
      return Expr::MakeUnknown(pc);
    }
  }
  return resolved;
}

ExprRef ExprRecovery::StoredValue(int def_pc) {
  auto memo = stored_memo_.find(def_pc);
  if (memo != stored_memo_.end()) return memo->second;
  if (in_progress_.count(def_pc) > 0) {
    // Loop-carried definition (the def's value depends on itself).
    return Expr::MakeUnknown(def_pc);
  }
  in_progress_.insert(def_pc);
  std::vector<ExprRef> stack = StackBefore(def_pc);
  in_progress_.erase(def_pc);
  ExprRef result =
      stack.empty() ? Expr::MakeUnknown(def_pc) : stack.back();
  stored_memo_[def_pc] = result;
  return result;
}

ExprRef ExprRecovery::BranchCondition(int branch_pc) {
  CountExprQuery();
  MANIMAL_CHECK(mril::IsConditionalBranch(fn_.code.at(branch_pc).op));
  std::vector<ExprRef> stack = StackBefore(branch_pc);
  return stack.empty() ? Expr::MakeUnknown(branch_pc) : stack.back();
}

std::pair<ExprRef, ExprRef> ExprRecovery::EmitOperands(int emit_pc) {
  CountExprQuery();
  MANIMAL_CHECK(fn_.code.at(emit_pc).op == Opcode::kEmit);
  std::vector<ExprRef> stack = StackBefore(emit_pc);
  if (stack.size() < 2) {
    return {Expr::MakeUnknown(emit_pc), Expr::MakeUnknown(emit_pc)};
  }
  // emit pops value (top), then key.
  return {stack[stack.size() - 2], stack[stack.size() - 1]};
}

ExprRef ExprRecovery::LogOperand(int log_pc) {
  CountExprQuery();
  MANIMAL_CHECK(fn_.code.at(log_pc).op == Opcode::kLog);
  std::vector<ExprRef> stack = StackBefore(log_pc);
  return stack.empty() ? Expr::MakeUnknown(log_pc) : stack.back();
}

std::vector<ExprRef> ExprRecovery::StackBefore(int pc) {
  const BasicBlock& bb = cfg_.block(cfg_.BlockOf(pc));
  std::vector<ExprRef> stack;  // block entry: empty (verified)
  // Terminators end a block, so p < pc never steps over one.
  for (int p = bb.first_pc; p < pc; ++p) {
    SymbolicStep(program_, fn_.code[p], p,
                 [this, p](VarRef var) { return ResolveLoad(p, var); },
                 &stack);
  }
  return stack;
}

std::vector<ExprRef> SymbolicStep(
    const Program& program, const Instruction& inst, int pc,
    const std::function<ExprRef(VarRef)>& load,
    std::vector<ExprRef>* stack) {
  const Builtin* builtin = nullptr;
  int pops = mril::GetOpcodeInfo(inst.op).pops;
  if (inst.op == Opcode::kCall) {
    builtin = BuiltinRegistry::Get().FindById(inst.operand);
    MANIMAL_CHECK(builtin != nullptr);
    pops = builtin->arity;
  }
  std::vector<ExprRef> args(pops);
  for (int i = pops - 1; i >= 0; --i) {
    if (stack->empty()) {
      args[i] = Expr::MakeUnknown(pc);
    } else {
      args[i] = std::move(stack->back());
      stack->pop_back();
    }
  }
  switch (inst.op) {
    case Opcode::kLoadConst:
      stack->push_back(
          Expr::MakeConst(program.constants.at(inst.operand), pc));
      return {};
    case Opcode::kLoadParam:
      stack->push_back(Expr::MakeParam(inst.operand, pc));
      return {};
    case Opcode::kLoadLocal:
      stack->push_back(load(VarRef{VarRef::Kind::kLocal, inst.operand}));
      return {};
    case Opcode::kLoadMember:
      stack->push_back(load(VarRef{VarRef::Kind::kMember, inst.operand}));
      return {};
    case Opcode::kGetField:
      stack->push_back(Expr::MakeField(std::move(args[0]), inst.operand, pc));
      return {};
    case Opcode::kDup:
      stack->push_back(args[0]);
      stack->push_back(std::move(args[0]));
      return {};
    case Opcode::kSwap:
      stack->push_back(std::move(args[1]));
      stack->push_back(std::move(args[0]));
      return {};
    case Opcode::kAdd:
    case Opcode::kSub:
    case Opcode::kMul:
    case Opcode::kDiv:
    case Opcode::kMod:
    case Opcode::kNeg:
    case Opcode::kCmpLt:
    case Opcode::kCmpLe:
    case Opcode::kCmpGt:
    case Opcode::kCmpGe:
    case Opcode::kCmpEq:
    case Opcode::kCmpNe:
    case Opcode::kAnd:
    case Opcode::kOr:
    case Opcode::kNot:
      stack->push_back(Expr::MakeOp(inst.op, std::move(args), pc));
      return {};
    case Opcode::kCall:
      stack->push_back(Expr::MakeCall(builtin, std::move(args), pc));
      return {};
    default:  // stores, pop, emit, log, branches, return, nop
      return args;
  }
}

}  // namespace manimal::analysis
