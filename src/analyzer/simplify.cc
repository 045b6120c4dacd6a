#include "analyzer/simplify.h"

#include "analyzer/expr_eval.h"
#include "mril/opcode.h"

namespace manimal::analyzer {

using analysis::Expr;
using analysis::ExprRef;
using mril::Opcode;

namespace {

bool IsConst(const ExprRef& e) {
  return e != nullptr && e->kind == Expr::Kind::kConst;
}

// A subtree is foldable when every leaf is a constant and every
// interior node is a pure operator / functional builtin.
bool IsFoldable(const ExprRef& e) {
  if (e == nullptr) return false;
  switch (e->kind) {
    case Expr::Kind::kConst:
      return true;
    case Expr::Kind::kParam:
    case Expr::Kind::kField:
    case Expr::Kind::kMember:
    case Expr::Kind::kUnknown:
      return false;
    case Expr::Kind::kOp:
      for (const ExprRef& a : e->args) {
        if (!IsFoldable(a)) return false;
      }
      return true;
    case Expr::Kind::kCall:
      if (e->builtin == nullptr || !e->builtin->functional) return false;
      for (const ExprRef& a : e->args) {
        if (!IsFoldable(a)) return false;
      }
      return true;
  }
  return false;
}

}  // namespace

ExprRef Simplify(const ExprRef& expr) {
  if (expr == nullptr) return expr;
  if (expr->kind != Expr::Kind::kOp && expr->kind != Expr::Kind::kCall) {
    return expr;
  }

  // Simplify children first.
  std::vector<ExprRef> args;
  args.reserve(expr->args.size());
  bool changed = false;
  for (const ExprRef& a : expr->args) {
    ExprRef s = Simplify(a);
    changed = changed || (s.get() != a.get());
    args.push_back(std::move(s));
  }
  ExprRef node = expr;
  if (changed) {
    node = expr->kind == Expr::Kind::kOp
               ? Expr::MakeOp(expr->op, std::move(args), expr->origin_pc)
               : Expr::MakeCall(expr->builtin, std::move(args),
                                expr->origin_pc);
  }

  // Constant folding: exact because EvalExpr applies operators through
  // mril::ApplyOp, the VM's own definition. What the VM would raise on
  // (a zero divisor, an ordered comparison of incomparable kinds) does
  // not fold.
  if (IsFoldable(node)) {
    auto folded = EvalExpr(node, Value::Null(), Value::Null());
    if (folded.ok()) {
      return Expr::MakeConst(std::move(folded).value(), node->origin_pc);
    }
    return node;  // leave the error for the VM to raise
  }

  if (node->kind == Expr::Kind::kOp) {
    // not(not(e)) -> e ; not(a cmp b) -> a inverted-cmp b.
    if (node->op == Opcode::kNot && node->args.size() == 1) {
      const ExprRef& inner = node->args[0];
      if (inner != nullptr && inner->kind == Expr::Kind::kOp) {
        if (inner->op == Opcode::kNot && inner->args.size() == 1) {
          return inner->args[0];
        }
        if (mril::IsComparison(inner->op) && inner->args.size() == 2) {
          return Expr::MakeOp(mril::NegateComparison(inner->op),
                              inner->args, node->origin_pc);
        }
      }
    }
    // Canonical orientation: constant on the right.
    if (mril::IsComparison(node->op) && node->args.size() == 2 &&
        IsConst(node->args[0]) && !IsConst(node->args[1])) {
      return Expr::MakeOp(mril::MirrorComparison(node->op),
                          {node->args[1], node->args[0]},
                          node->origin_pc);
    }
  }
  return node;
}

}  // namespace manimal::analyzer
