#include "codegen/shape.h"

#include <algorithm>
#include <set>
#include <string_view>
#include <utility>

#include "analysis/cfg.h"
#include "analysis/expr_recovery.h"
#include "analysis/reaching_defs.h"
#include "analysis/side_effects.h"
#include "analyzer/select.h"
#include "common/strings.h"
#include "mril/builtins.h"

namespace manimal::codegen {

using analysis::Cfg;
using analysis::Expr;
using analysis::ExprRef;
using mril::Opcode;

namespace {

// Opcodes whose VM handler can return an error status. Anything in
// map() drawn from this set must be reachable through the expressions
// the kernel evaluates, or a record could fault under the VM while the
// kernel silently succeeds.
bool CanFault(Opcode op) {
  switch (op) {
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
    case Opcode::kCall:
    case Opcode::kGetField:
      return true;
    default:
      return false;
  }
}

void CollectOriginPcs(const ExprRef& expr, std::set<int>* pcs) {
  if (expr == nullptr) return;
  if (expr->origin_pc >= 0) pcs->insert(expr->origin_pc);
  for (const ExprRef& a : expr->args) CollectOriginPcs(a, pcs);
}

// The first fault-capable instruction of `fn` outside `covered`, as a
// refusal; OK when every one is covered.
Status CheckFaultCoverage(const mril::Function& fn,
                          const std::set<int>& covered,
                          const char* covering) {
  for (size_t pc = 0; pc < fn.code.size(); ++pc) {
    if (CanFault(fn.code[pc].op) &&
        covered.count(static_cast<int>(pc)) == 0) {
      return Status::NotSupported(StrPrintf(
          "instruction at pc %zu (%s) is not covered by the %s", pc,
          std::string(mril::GetOpcodeInfo(fn.code[pc].op).mnemonic)
              .c_str(),
          covering));
    }
  }
  return Status::OK();
}

// ---- reduce folds ----

// While the loop is executed symbolically, a loop-carried local reads
// as parameter kCarriedParam + its slot. No admitted FoldShape keeps
// one.
constexpr int kCarriedParam = 1000;

bool IsParam(const ExprRef& e, int index) {
  return e->kind == Expr::Kind::kParam && e->index == index;
}

bool IsCall(const ExprRef& e, std::string_view name, size_t arity) {
  return e->kind == Expr::Kind::kCall && e->builtin != nullptr &&
         e->builtin->name == name && e->args.size() == arity;
}

// list.len(values)
bool IsValuesLen(const ExprRef& e) {
  return IsCall(e, "list.len", 1) &&
         IsParam(e->args[0], mril::kReduceValuesParam);
}

bool IsI64Const(const ExprRef& e, int64_t v) {
  return e->kind == Expr::Kind::kConst && e->constant.is_i64() &&
         e->constant.i64() == v;
}

// The operand stack and every local at one point of reduce().
struct SymState {
  std::vector<ExprRef> stack;
  std::vector<ExprRef> locals;
};

// What one symbolic walk executed.
struct Walk {
  int64_t steps = 0;
  ExprRef branch_cond;  // consumed by a conditional branch
  int emit_pc = -1;
  ExprRef emit_key, emit_value;
  bool returned = false;
};

// Executes fn.code[first..last] on `st`.
Status ExecRange(const mril::Program& program, const mril::Function& fn,
                 int first, int last, SymState* st, Walk* walk) {
  for (int pc = first; pc <= last; ++pc) {
    const mril::Instruction& inst = fn.code[pc];
    switch (inst.op) {
      case Opcode::kLog:
        return Status::NotSupported(StrPrintf("log at pc %d", pc));
      case Opcode::kLoadMember:
      case Opcode::kStoreMember:
        return Status::NotSupported(
            StrPrintf("member access at pc %d", pc));
      default:
        break;
    }
    // A popped value is discarded here; the coverage test refuses it
    // if it could fault.
    std::vector<ExprRef> used = analysis::SymbolicStep(
        program, inst, pc,
        [st](analysis::VarRef var) { return st->locals.at(var.slot); },
        &st->stack);
    switch (inst.op) {
      case Opcode::kStoreLocal:
        st->locals.at(inst.operand) = used[0];
        break;
      case Opcode::kEmit:
        walk->emit_pc = pc;
        walk->emit_key = used[0];
        walk->emit_value = used[1];
        break;
      case Opcode::kJmpIfTrue:
      case Opcode::kJmpIfFalse:
        walk->branch_cond = used[0];
        break;
      case Opcode::kReturn:
        walk->returned = true;
        break;
      default:
        break;
    }
  }
  walk->steps += last - first + 1;
  return Status::OK();
}

// Executes blocks from `block` along their one successor until it
// reaches `stop` (not executed) or a return. A conditional branch is
// refused: outside the loop test it is a key test or an early exit.
Status WalkStraight(const mril::Program& program, const mril::Function& fn,
                    const Cfg& cfg, int block, int stop, SymState* st,
                    Walk* walk) {
  for (size_t hops = 0; hops <= cfg.blocks().size(); ++hops) {
    if (block == stop) return Status::OK();
    const analysis::BasicBlock& bb = cfg.block(block);
    if (mril::IsConditionalBranch(fn.code[bb.last_pc].op)) {
      return Status::NotSupported(StrPrintf(
          "conditional branch at pc %d outside the loop test (a key "
          "test or an early exit)",
          bb.last_pc));
    }
    MANIMAL_RETURN_IF_ERROR(
        ExecRange(program, fn, bb.first_pc, bb.last_pc, st, walk));
    if (walk->returned) return Status::OK();
    block = cfg.edge(bb.succ_edges.at(0)).to;
  }
  return Status::Internal("control flow cycles outside the loop");
}

// Replaces list.get(values, i) of the loop counter i with the element
// leaf.
ExprRef LiftElement(const ExprRef& e, int counter_param) {
  if (IsCall(e, "list.get", 2) &&
      IsParam(e->args[0], mril::kReduceValuesParam) &&
      IsParam(e->args[1], counter_param)) {
    return Expr::MakeParam(kFoldElemParam, e->origin_pc);
  }
  if (e->args.empty()) return e;
  auto lifted = std::make_shared<Expr>(*e);
  for (ExprRef& a : lifted->args) a = LiftElement(a, counter_param);
  return lifted;
}

// Why `e` reads something other than key, list.len(values), constants
// and `leaf`; "" when it does not.
std::string LeafReason(const ExprRef& e, int leaf) {
  if (IsValuesLen(e)) return "";
  if (e->kind == Expr::Kind::kParam && e->index != mril::kReduceKeyParam &&
      e->index != leaf) {
    return e->index == mril::kReduceValuesParam
               ? "reads the values list other than as list.len(values) "
                 "or list.get(values, i)"
               : "reads a loop-carried local";
  }
  for (const ExprRef& a : e->args) {
    std::string reason = LeafReason(a, leaf);
    if (!reason.empty()) return reason;
  }
  return "";
}

// Why `e` is not a pure fold expression over key, list.len(values),
// constants and `leaf`; "" when it is.
std::string FoldExprReason(const ExprRef& e, int leaf) {
  std::string reason;
  if (!analysis::IsFunctional(e, &reason)) return reason;
  return LeafReason(e, leaf);
}

}  // namespace

std::string RelationalShape::Describe() const {
  std::string fields;
  if (whole_record) {
    fields = "whole-record";
  } else {
    for (int f : used_fields) {
      if (!fields.empty()) fields += ",";
      fields += std::to_string(f);
    }
    fields = "fields{" + fields + "}";
  }
  if (emit_pc < 0) return "never-emits " + fields;
  return StrPrintf(
      "select[%s] emit(%s, %s) %s", formula.ToString().c_str(),
      key_expr ? key_expr->ToString().c_str() : "?",
      value_expr ? value_expr->ToString().c_str() : "?", fields.c_str());
}

Result<RelationalShape> ExtractShape(const mril::Program& program) {
  const mril::Function& fn = program.map_fn;
  if (program.value_param_kind != mril::ValueParamKind::kRecord) {
    return Status::NotSupported("opaque value parameter");
  }
  std::vector<analysis::SideEffect> effects =
      analysis::FindSideEffects(fn);
  if (!effects.empty()) {
    return Status::NotSupported(
        StrPrintf("map() has side effects (%s at pc %d)",
                  effects[0].description.c_str(), effects[0].pc));
  }

  std::vector<int> emit_pcs;
  for (size_t pc = 0; pc < fn.code.size(); ++pc) {
    if (fn.code[pc].op == Opcode::kEmit) {
      emit_pcs.push_back(static_cast<int>(pc));
    }
  }
  if (emit_pcs.size() > 1) {
    return Status::NotSupported("multiple emit sites");
  }

  Cfg cfg = Cfg::Build(fn);
  if (cfg.HasCycle()) {
    return Status::NotSupported("loop in map()");
  }

  RelationalShape shape;
  analyzer::SelectResult sel = analyzer::FindSelect(program);
  if (emit_pcs.empty()) {
    // FALSE formula: the kernel skips every record (but the shape
    // still has to pass the fault-coverage test below — a never-emit
    // map may still divide by zero).
  } else if (sel.descriptor.has_value()) {
    shape.formula = sel.descriptor->formula;
  } else if (sel.always_emits) {
    shape.formula.disjuncts.push_back(analyzer::Conjunct{});
    shape.always_emits = true;
  } else {
    return Status::NotSupported("selection not detected: " +
                                sel.miss_reason);
  }

  analysis::ReachingDefs reaching(fn, cfg);
  analysis::ExprRecovery recovery(program, fn, cfg, reaching);

  std::string reason;
  std::vector<ExprRef> kernel_exprs;  // everything the kernel evaluates
  for (const analyzer::Conjunct& c : shape.formula.disjuncts) {
    for (const analyzer::SelectTerm& t : c.terms) {
      if (!analysis::IsFunctional(t.expr, &reason)) {
        return Status::NotSupported("non-functional selection term: " +
                                    reason);
      }
      kernel_exprs.push_back(t.expr);
    }
  }
  if (!emit_pcs.empty()) {
    shape.emit_pc = emit_pcs[0];
    auto [key_expr, value_expr] = recovery.EmitOperands(shape.emit_pc);
    if (!analysis::IsFunctional(key_expr, &reason)) {
      return Status::NotSupported("non-functional emit key: " + reason);
    }
    if (!analysis::IsFunctional(value_expr, &reason)) {
      return Status::NotSupported("non-functional emit value: " + reason);
    }
    shape.key_expr = key_expr;
    shape.value_expr = value_expr;
    kernel_exprs.push_back(key_expr);
    kernel_exprs.push_back(value_expr);
  }

  // Every conditional branch must test a formula term: the kernel
  // evaluates exactly the terms, so a branch over any other
  // expression could fault (non-bool condition, faulting operand)
  // invisibly to the kernel.
  for (size_t pc = 0; pc < fn.code.size(); ++pc) {
    if (!mril::IsConditionalBranch(fn.code[pc].op)) continue;
    ExprRef cond = recovery.BranchCondition(static_cast<int>(pc));
    bool matched = false;
    for (const ExprRef& term : kernel_exprs) {
      if (cond != nullptr && term->Equals(*cond)) {
        matched = true;
        break;
      }
    }
    if (!matched) {
      return Status::NotSupported(StrPrintf(
          "branch at pc %zu tests an expression outside the recovered "
          "selection formula", pc));
    }
  }

  // Fault coverage: every fault-capable instruction must feed an
  // expression the kernel evaluates. Dead computations (e.g. a stored
  // local nothing reads, a popped call result) fail this test — the
  // VM would still execute them, and they could fault.
  std::set<int> covered;
  for (const ExprRef& e : kernel_exprs) CollectOriginPcs(e, &covered);
  MANIMAL_RETURN_IF_ERROR(
      CheckFaultCoverage(fn, covered, "recovered expressions"));

  // Field usage, for the kernel's record-arity gate and for Describe.
  int num_fields = program.value_schema.opaque()
                       ? 1
                       : program.value_schema.num_fields();
  std::vector<bool> used(static_cast<size_t>(num_fields), false);
  for (const ExprRef& e : kernel_exprs) {
    if (!analysis::CollectUsedFields(e, &used)) {
      shape.whole_record = true;
    }
  }
  for (size_t i = 0; i < used.size(); ++i) {
    if (used[i]) shape.used_fields.push_back(static_cast<int>(i));
  }
  return shape;
}

std::string FoldShape::Describe() const {
  static constexpr std::string_view kNames[] = {"key", "values", "acc",
                                                "elem"};
  const std::string emit =
      StrPrintf("emit(%s, %s)", key_expr->ToString(kNames).c_str(),
                value_expr->ToString(kNames).c_str());
  if (g == nullptr) return "fold: " + emit;
  return StrPrintf(
      "fold acc = %s; per value acc = (acc %s %s); %s",
      init.ToString().c_str(),
      std::string(mril::GetOpcodeInfo(op).mnemonic).c_str(),
      g->ToString(kNames).c_str(), emit.c_str());
}

Result<FoldShape> ExtractFoldShape(const mril::Program& program) {
  if (!program.has_reduce()) return Status::NotSupported("no reduce()");
  const mril::Function& fn = *program.reduce_fn;
  int emits = 0;
  for (const mril::Instruction& inst : fn.code) {
    if (inst.op == Opcode::kEmit) ++emits;
  }
  if (emits != 1) {
    return Status::NotSupported(emits == 0 ? "reduce() never emits"
                                           : "multiple emit sites");
  }
  // Every cycle takes an edge back to a block at or before its source,
  // so with at most one such edge there is at most one loop, and every
  // walk that stops at its header ends.
  const Cfg cfg = Cfg::Build(fn);
  std::vector<int> back_edges;
  for (size_t e = 0; e < cfg.edges().size(); ++e) {
    const analysis::CfgEdge& edge = cfg.edge(static_cast<int>(e));
    if (cfg.block(edge.to).first_pc <= cfg.block(edge.from).first_pc) {
      back_edges.push_back(static_cast<int>(e));
    }
  }
  if (back_edges.size() > 1) {
    return Status::NotSupported("more than one loop (nested or in turn)");
  }

  FoldShape shape;
  SymState st;
  st.locals.assign(fn.num_locals, Expr::MakeConst(Value::Null(), -1));
  std::set<int> covered;  // pcs of everything the kernel evaluates
  Walk post;              // from the loop exit (or entry) to the return
  if (back_edges.empty()) {
    MANIMAL_RETURN_IF_ERROR(WalkStraight(program, fn, cfg,
                                         cfg.entry_block(), -1, &st, &post));
  } else {
    const analysis::CfgEdge& back = cfg.edge(back_edges[0]);
    const analysis::BasicBlock& header = cfg.block(back.to);
    const analysis::BasicBlock& body = cfg.block(back.from);
    Walk pre;
    MANIMAL_RETURN_IF_ERROR(WalkStraight(program, fn, cfg,
                                         cfg.entry_block(), back.to, &st,
                                         &pre));
    if (pre.emit_pc >= 0) {
      return Status::NotSupported("emit before the loop");
    }
    if (pre.returned) {
      return Status::NotSupported("return before the loop (an early exit)");
    }
    // The loop: a header that only tests, and a one-block body that
    // jumps back to it.
    const analysis::CfgEdge* stay = nullptr;
    const analysis::CfgEdge* exit = nullptr;
    for (int e : header.succ_edges) {
      (cfg.edge(e).to == back.from ? stay : exit) = &cfg.edge(e);
    }
    if (!mril::IsConditionalBranch(fn.code[header.last_pc].op) ||
        stay == nullptr || exit == nullptr ||
        body.pred_edges.size() != 1 ||
        fn.code[body.last_pc].op != Opcode::kJmp) {
      return Status::NotSupported(
          "loop is not a counted loop with a one-block body");
    }
    for (int pc = header.first_pc; pc <= header.last_pc; ++pc) {
      if (fn.code[pc].op == Opcode::kStoreLocal) {
        return Status::NotSupported("the loop test stores a local");
      }
    }
    std::vector<int> carried;  // locals the body stores
    for (int pc = body.first_pc; pc <= body.last_pc; ++pc) {
      const mril::Instruction& inst = fn.code[pc];
      if (inst.op == Opcode::kStoreLocal &&
          std::find(carried.begin(), carried.end(), inst.operand) ==
              carried.end()) {
        carried.push_back(inst.operand);
      }
    }
    if (carried.size() != 2) {
      return Status::NotSupported(
          carried.size() > 2 ? "second accumulator in the loop"
                             : "loop carries no accumulator");
    }
    SymState loop = st;
    for (int l : carried) {
      loop.locals[l] = Expr::MakeParam(kCarriedParam + l, -1);
    }

    // The test must be i < list.len(values) on the stay side.
    Walk test;
    SymState at_test = loop;
    MANIMAL_RETURN_IF_ERROR(ExecRange(program, fn, header.first_pc,
                                      header.last_pc, &at_test, &test));
    ExprRef cond = test.branch_cond;
    Opcode cmp = cond->kind == Expr::Kind::kOp ? cond->op : Opcode::kNop;
    if (stay->kind == analysis::EdgeKind::kFalse) {
      cmp = mril::NegateComparison(cmp);
    }
    int counter = -1;
    if (mril::IsComparison(cmp) && cond->args.size() == 2) {
      ExprRef lhs = cond->args[0], rhs = cond->args[1];
      if (IsValuesLen(lhs)) {
        std::swap(lhs, rhs);
        cmp = mril::MirrorComparison(cmp);
      }
      if (cmp == Opcode::kCmpLt && IsValuesLen(rhs) &&
          lhs->kind == Expr::Kind::kParam && lhs->index >= kCarriedParam) {
        counter = lhs->index - kCarriedParam;
      }
    }
    if (counter < 0 || test.emit_pc >= 0) {
      return Status::NotSupported("loop test is not i < list.len(values)");
    }
    const int acc = carried[0] == counter ? carried[1] : carried[0];
    if (!IsI64Const(st.locals[counter], 0)) {
      return Status::NotSupported("loop counter does not start at 0");
    }
    if (st.locals[acc]->kind != Expr::Kind::kConst) {
      return Status::NotSupported("accumulator init is not a constant");
    }
    shape.init = st.locals[acc]->constant;

    Walk iter;
    SymState after = loop;
    MANIMAL_RETURN_IF_ERROR(
        ExecRange(program, fn, body.first_pc, body.last_pc, &after, &iter));
    if (iter.emit_pc >= 0) {
      return Status::NotSupported("emit inside the loop");
    }
    const ExprRef& step = after.locals[counter];
    const bool steps_by_one =
        step->kind == Expr::Kind::kOp && step->op == Opcode::kAdd &&
        ((IsParam(step->args[0], kCarriedParam + counter) &&
          IsI64Const(step->args[1], 1)) ||
         (IsI64Const(step->args[0], 1) &&
          IsParam(step->args[1], kCarriedParam + counter)));
    if (!steps_by_one) {
      return Status::NotSupported("loop counter does not step by 1");
    }
    const ExprRef& update = after.locals[acc];
    if (update->kind != Expr::Kind::kOp || update->args.size() != 2 ||
        !IsParam(update->args[0], kCarriedParam + acc)) {
      return Status::NotSupported(
          "accumulator update is not acc = op(acc, g(elem))");
    }
    shape.op = update->op;
    shape.g = LiftElement(update->args[1], kCarriedParam + counter);
    const std::string reason = FoldExprReason(shape.g, kFoldElemParam);
    if (!reason.empty()) {
      return Status::NotSupported("accumulator update " + reason);
    }
    CollectOriginPcs(cond, &covered);
    CollectOriginPcs(step, &covered);
    CollectOriginPcs(update, &covered);

    // After the loop, acc holds the fold; the counter stays a
    // loop-carried leaf, so an emit that reads it is refused.
    loop.locals[acc] = Expr::MakeParam(kFoldAccParam, -1);
    MANIMAL_RETURN_IF_ERROR(
        WalkStraight(program, fn, cfg, exit->to, -1, &loop, &post));
    const int64_t test_steps = header.last_pc - header.first_pc + 1;
    shape.fixed_steps = pre.steps + test_steps;
    shape.steps_per_value = test_steps + iter.steps;
  }
  if (post.emit_pc < 0) {
    return Status::NotSupported(back_edges.empty()
                                    ? "return before the emit"
                                    : "no emit after the loop");
  }
  shape.fixed_steps += post.steps;
  shape.key_expr = post.emit_key;
  shape.value_expr = post.emit_value;
  for (const ExprRef* e : {&shape.key_expr, &shape.value_expr}) {
    const std::string reason = FoldExprReason(*e, kFoldAccParam);
    if (!reason.empty()) return Status::NotSupported("emit " + reason);
    CollectOriginPcs(*e, &covered);
  }
  MANIMAL_RETURN_IF_ERROR(CheckFaultCoverage(fn, covered, "fold"));
  return shape;
}

}  // namespace manimal::codegen
