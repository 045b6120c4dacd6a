#include "mril/ops.h"

#include <cstdint>
#include <string>

#include "common/strings.h"

namespace manimal::mril {

namespace {

Status TypeError2(std::string_view what, const Value& a, const Value& b) {
  return Status::InvalidArgument(
      StrPrintf("%.*s: bad operand kinds %s, %s",
                static_cast<int>(what.size()), what.data(),
                ValueKindName(a.kind()), ValueKindName(b.kind())));
}

// Two's-complement wrapping through uint64_t: never C++ signed
// overflow.
int64_t Wrap(uint64_t v) { return static_cast<int64_t>(v); }

Status Arith(Opcode op, const Value& a, const Value& b, Value* out,
             ValueArena* arena) {
  if (op == Opcode::kAdd && a.is_str() && b.is_str()) {
    *out = arena != nullptr
               ? Value::Borrowed(arena->Concat(a.str(), b.str()))
               : Value::Str(std::string(a.str()).append(b.str()));
    return Status::OK();
  }
  if (!a.is_numeric() || !b.is_numeric()) {
    return TypeError2(GetOpcodeInfo(op).mnemonic, a, b);
  }
  if (a.is_i64() && b.is_i64()) {
    const int64_t x = a.i64(), y = b.i64();
    const uint64_t ux = static_cast<uint64_t>(x);
    const uint64_t uy = static_cast<uint64_t>(y);
    switch (op) {
      case Opcode::kAdd:
        *out = Value::I64(Wrap(ux + uy));
        return Status::OK();
      case Opcode::kSub:
        *out = Value::I64(Wrap(ux - uy));
        return Status::OK();
      case Opcode::kMul:
        *out = Value::I64(Wrap(ux * uy));
        return Status::OK();
      case Opcode::kDiv:
        if (y == 0) return Status::InvalidArgument("integer division by 0");
        // x / -1 is -x, which wraps for INT64_MIN as mul by -1 does.
        *out = Value::I64(y == -1 ? Wrap(0 - ux) : x / y);
        return Status::OK();
      default:  // kMod
        if (y == 0) return Status::InvalidArgument("integer modulo by 0");
        *out = Value::I64(y == -1 ? 0 : x % y);
        return Status::OK();
    }
  }
  const double x = a.AsF64(), y = b.AsF64();
  switch (op) {
    case Opcode::kAdd:
      *out = Value::F64(x + y);
      return Status::OK();
    case Opcode::kSub:
      *out = Value::F64(x - y);
      return Status::OK();
    case Opcode::kMul:
      *out = Value::F64(x * y);
      return Status::OK();
    case Opcode::kDiv:
      *out = Value::F64(x / y);
      return Status::OK();
    default:  // kMod
      return Status::InvalidArgument("mod requires integer operands");
  }
}

Status Compare(Opcode op, const Value& a, const Value& b, Value* out) {
  bool result;
  if (op == Opcode::kCmpEq || op == Opcode::kCmpNe) {
    result = (a == b) == (op == Opcode::kCmpEq);
  } else {
    if (!OrderedComparable(a.kind(), b.kind())) {
      return TypeError2("compare", a, b);
    }
    const int c = a.Compare(b);
    switch (op) {
      case Opcode::kCmpLt:
        result = c < 0;
        break;
      case Opcode::kCmpLe:
        result = c <= 0;
        break;
      case Opcode::kCmpGt:
        result = c > 0;
        break;
      default:  // kCmpGe
        result = c >= 0;
        break;
    }
  }
  *out = Value::Bool(result);
  return Status::OK();
}

}  // namespace

bool OrderedComparable(ValueKind a, ValueKind b) {
  auto numeric = [](ValueKind k) {
    return k == ValueKind::kI64 || k == ValueKind::kF64;
  };
  if (numeric(a) && numeric(b)) return true;
  return a == b && (a == ValueKind::kStr || a == ValueKind::kBool);
}

Status TypeError(std::string_view what, const Value& a) {
  return Status::InvalidArgument(
      StrPrintf("%.*s: bad operand kind %s", static_cast<int>(what.size()),
                what.data(), ValueKindName(a.kind())));
}

Status ApplyOp(Opcode op, const Value* args, Value* out, ValueArena* arena) {
  const Value& a = args[0];
  switch (op) {
    case Opcode::kAdd:
    case Opcode::kSub:
    case Opcode::kMul:
    case Opcode::kDiv:
    case Opcode::kMod:
      return Arith(op, a, args[1], out, arena);
    case Opcode::kNeg:
      if (const int64_t* x = a.if_i64()) {
        *out = Value::I64(Wrap(0 - static_cast<uint64_t>(*x)));
        return Status::OK();
      }
      if (const double* d = a.if_f64()) {
        *out = Value::F64(-*d);
        return Status::OK();
      }
      return TypeError("neg", a);
    case Opcode::kCmpLt:
    case Opcode::kCmpLe:
    case Opcode::kCmpGt:
    case Opcode::kCmpGe:
    case Opcode::kCmpEq:
    case Opcode::kCmpNe:
      return Compare(op, a, args[1], out);
    case Opcode::kAnd:
    case Opcode::kOr: {
      const bool* x = a.if_bool();
      const bool* y = args[1].if_bool();
      if (x == nullptr || y == nullptr) {
        return TypeError2("and/or", a, args[1]);
      }
      *out = Value::Bool(op == Opcode::kAnd ? (*x && *y) : (*x || *y));
      return Status::OK();
    }
    case Opcode::kNot:
      if (const bool* x = a.if_bool()) {
        *out = Value::Bool(!*x);
        return Status::OK();
      }
      return TypeError("not", a);
    default:
      return Status::Internal("not an operator: " +
                              std::string(GetOpcodeInfo(op).mnemonic));
  }
}

}  // namespace manimal::mril
