#include "analysis/expr.h"

#include "common/strings.h"
#include "mril/program.h"

namespace manimal::analysis {

bool Expr::Equals(const Expr& other) const {
  if (kind != other.kind) return false;
  switch (kind) {
    case Kind::kConst:
      if (!(constant == other.constant) ||
          constant.kind() != other.constant.kind()) {
        return false;
      }
      break;
    case Kind::kParam:
    case Kind::kMember:
      if (index != other.index) return false;
      break;
    case Kind::kField:
      if (index != other.index) return false;
      break;
    case Kind::kOp:
      if (op != other.op) return false;
      break;
    case Kind::kCall:
      if (builtin != other.builtin) return false;
      break;
    case Kind::kUnknown:
      return false;  // unknowns never compare equal, even to themselves
  }
  if (args.size() != other.args.size()) return false;
  for (size_t i = 0; i < args.size(); ++i) {
    if (!args[i]->Equals(*other.args[i])) return false;
  }
  return true;
}

std::string Expr::ToString(
    std::span<const std::string_view> param_names) const {
  auto sub = [param_names](const ExprRef& e) {
    return e->ToString(param_names);
  };
  switch (kind) {
    case Kind::kConst:
      return constant.ToString();
    case Kind::kParam:
      if (index >= 0 && static_cast<size_t>(index) < param_names.size()) {
        return std::string(param_names[index]);
      }
      return StrPrintf("param%d", index);
    case Kind::kField:
      return args.empty()
                 ? StrPrintf("?.field[%d]", index)
                 : StrPrintf("%s.field[%d]", sub(args[0]).c_str(), index);
    case Kind::kMember:
      return StrPrintf("member%d", index);
    case Kind::kOp: {
      std::string m(mril::GetOpcodeInfo(op).mnemonic);
      if (args.size() == 2) {
        return "(" + sub(args[0]) + " " + m + " " + sub(args[1]) + ")";
      }
      if (args.size() == 1) return "(" + m + " " + sub(args[0]) + ")";
      return m;
    }
    case Kind::kCall: {
      std::string out = builtin != nullptr ? builtin->name : "?call";
      out += "(";
      for (size_t i = 0; i < args.size(); ++i) {
        if (i) out += ", ";
        out += sub(args[i]);
      }
      out += ")";
      return out;
    }
    case Kind::kUnknown:
      return "<unknown>";
  }
  return "?";
}

ExprRef Expr::MakeConst(Value v, int pc) {
  auto e = std::make_shared<Expr>();
  e->kind = Kind::kConst;
  e->constant = std::move(v);
  e->origin_pc = pc;
  return e;
}

ExprRef Expr::MakeParam(int index, int pc) {
  auto e = std::make_shared<Expr>();
  e->kind = Kind::kParam;
  e->index = index;
  e->origin_pc = pc;
  return e;
}

ExprRef Expr::MakeField(ExprRef base, int index, int pc) {
  auto e = std::make_shared<Expr>();
  e->kind = Kind::kField;
  e->index = index;
  e->args.push_back(std::move(base));
  e->origin_pc = pc;
  return e;
}

ExprRef Expr::MakeMember(int index, int pc) {
  auto e = std::make_shared<Expr>();
  e->kind = Kind::kMember;
  e->index = index;
  e->origin_pc = pc;
  return e;
}

ExprRef Expr::MakeOp(mril::Opcode op, std::vector<ExprRef> args, int pc) {
  auto e = std::make_shared<Expr>();
  e->kind = Kind::kOp;
  e->op = op;
  e->args = std::move(args);
  e->origin_pc = pc;
  return e;
}

ExprRef Expr::MakeCall(const mril::Builtin* builtin,
                       std::vector<ExprRef> args, int pc) {
  auto e = std::make_shared<Expr>();
  e->kind = Kind::kCall;
  e->builtin = builtin;
  e->args = std::move(args);
  e->origin_pc = pc;
  return e;
}

ExprRef Expr::MakeUnknown(int pc) {
  auto e = std::make_shared<Expr>();
  e->kind = Kind::kUnknown;
  e->origin_pc = pc;
  return e;
}

int ValueFieldIndex(const ExprRef& expr) {
  if (expr == nullptr || expr->kind != Expr::Kind::kField ||
      expr->index < 0 || expr->args.empty() || expr->args[0] == nullptr ||
      expr->args[0]->kind != Expr::Kind::kParam ||
      expr->args[0]->index != 1) {
    return -1;
  }
  return expr->index;
}

bool CollectUsedFields(const ExprRef& expr, std::vector<bool>* used) {
  if (expr == nullptr) return false;
  switch (expr->kind) {
    case Expr::Kind::kField: {
      // Field access on the value parameter: record the index, and do
      // NOT recurse into the base (the base is the record itself, whose
      // "use" is exactly this field).
      const ExprRef& base = expr->args.empty() ? nullptr : expr->args[0];
      if (base != nullptr && base->kind == Expr::Kind::kParam &&
          base->index == mril::kMapValueParam) {
        if (expr->index >= 0 &&
            expr->index < static_cast<int>(used->size())) {
          (*used)[expr->index] = true;
          return true;
        }
        return false;
      }
      // Field-of-something-else: conservative.
      return false;
    }
    case Expr::Kind::kParam:
      // The whole record escaping (emitted or passed to a call) means
      // every field is used.
      if (expr->index == mril::kMapValueParam) return false;
      return true;
    case Expr::Kind::kUnknown:
      return false;
    case Expr::Kind::kConst:
    case Expr::Kind::kMember:
      return true;
    case Expr::Kind::kOp:
    case Expr::Kind::kCall:
      for (const ExprRef& a : expr->args) {
        if (!CollectUsedFields(a, used)) return false;
      }
      return true;
  }
  return false;
}

bool IsFunctional(const ExprRef& expr, std::string* reason) {
  if (expr == nullptr) {
    if (reason) *reason = "unresolved expression";
    return false;
  }
  switch (expr->kind) {
    case Expr::Kind::kConst:
    case Expr::Kind::kParam:
      return true;
    case Expr::Kind::kMember:
      if (reason) {
        *reason = StrPrintf(
            "depends on class member variable member%d (not a pure "
            "function of map() inputs)",
            expr->index);
      }
      return false;
    case Expr::Kind::kUnknown:
      if (reason) {
        *reason = "contains a value the analyzer could not resolve";
      }
      return false;
    case Expr::Kind::kField:
    case Expr::Kind::kOp:
      for (const ExprRef& a : expr->args) {
        if (!IsFunctional(a, reason)) return false;
      }
      return true;
    case Expr::Kind::kCall:
      if (expr->builtin == nullptr || !expr->builtin->functional) {
        if (reason) {
          *reason = StrPrintf(
              "calls %s, which the analyzer has no purity knowledge of",
              expr->builtin ? expr->builtin->name.c_str() : "?");
        }
        return false;
      }
      for (const ExprRef& a : expr->args) {
        if (!IsFunctional(a, reason)) return false;
      }
      return true;
  }
  return false;
}

}  // namespace manimal::analysis
