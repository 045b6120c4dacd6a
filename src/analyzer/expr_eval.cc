#include "analyzer/expr_eval.h"

#include "mril/ops.h"

namespace manimal::analyzer {

using analysis::Expr;

Result<Value> EvalExpr(const ExprRef& expr, const Value& key,
                       const Value& value) {
  if (expr == nullptr) return Status::Internal("null expression");
  switch (expr->kind) {
    case Expr::Kind::kConst:
      return expr->constant;
    case Expr::Kind::kParam:
      if (expr->index == 0) return key;
      if (expr->index == 1) return value;
      return Status::Internal("bad param index in expression");
    case Expr::Kind::kField: {
      MANIMAL_ASSIGN_OR_RETURN(Value base,
                               EvalExpr(expr->args.at(0), key, value));
      if (!base.is_list()) {
        return Status::InvalidArgument("field access on non-record");
      }
      if (expr->index < 0 ||
          static_cast<size_t>(expr->index) >= base.list().size()) {
        return Status::InvalidArgument("field index out of range");
      }
      return base.list()[expr->index];
    }
    case Expr::Kind::kMember:
      return Status::InvalidArgument(
          "cannot evaluate member-dependent expression");
    case Expr::Kind::kUnknown:
      return Status::InvalidArgument("cannot evaluate unknown expression");
    case Expr::Kind::kOp: {
      const int arity = mril::GetOpcodeInfo(expr->op).pops;
      if (arity < 1 || static_cast<int>(expr->args.size()) != arity) {
        return Status::Internal("bad operand count in expression");
      }
      Value args[2];
      for (int i = 0; i < arity; ++i) {
        MANIMAL_ASSIGN_OR_RETURN(args[i], EvalExpr(expr->args[i], key, value));
      }
      // No arena: a str + str result must outlive this call.
      Value out;
      MANIMAL_RETURN_IF_ERROR(mril::ApplyOp(expr->op, args, &out, nullptr));
      return out;
    }
    case Expr::Kind::kCall: {
      if (expr->builtin == nullptr || !expr->builtin->functional) {
        return Status::InvalidArgument("cannot evaluate impure call");
      }
      std::vector<Value> args;
      args.reserve(expr->args.size());
      for (const ExprRef& a : expr->args) {
        MANIMAL_ASSIGN_OR_RETURN(Value v, EvalExpr(a, key, value));
        args.push_back(std::move(v));
      }
      Value out;
      MANIMAL_RETURN_IF_ERROR(expr->builtin->fn(args.data(), &out));
      return out;
    }
  }
  return Status::Internal("bad expression kind");
}

Result<bool> EvalFormula(const DnfFormula& formula, const Value& key,
                         const Value& value) {
  for (const Conjunct& c : formula.disjuncts) {
    bool all = true;
    for (const SelectTerm& t : c.terms) {
      MANIMAL_ASSIGN_OR_RETURN(Value v, EvalExpr(t.expr, key, value));
      if (!v.is_bool()) {
        return Status::InvalidArgument("non-boolean selection term");
      }
      if (v.bool_value() != t.polarity) {
        all = false;
        break;
      }
    }
    if (all) return true;
  }
  return false;
}

}  // namespace manimal::analyzer
