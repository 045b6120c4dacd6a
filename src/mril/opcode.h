// MRIL opcode set.
//
// MRIL ("MapReduce Intermediate Language") is the compiled form of user
// map()/reduce() functions in this reproduction. It plays the role that
// JVM bytecode plays in the paper: the Manimal analyzer receives only
// these compiled instructions — no annotations, no source — and must
// recover the program's data semantics from them (paper §3).
//
// The machine is a stack machine. Operands are single 32-bit immediates
// (constant-pool indexes, parameter/local/member slots, field indexes,
// jump targets, builtin ids).

#ifndef MANIMAL_MRIL_OPCODE_H_
#define MANIMAL_MRIL_OPCODE_H_

#include <cstdint>
#include <optional>
#include <string_view>

namespace manimal::mril {

// X(name, mnemonic, has_operand, pops, pushes)
// pops == -1 means "determined dynamically" (CALL).
#define MANIMAL_OPCODE_LIST(X)                       \
  X(kNop, "nop", false, 0, 0)                        \
  X(kLoadConst, "load_const", true, 0, 1)            \
  X(kLoadParam, "load_param", true, 0, 1)            \
  X(kLoadLocal, "load_local", true, 0, 1)            \
  X(kStoreLocal, "store_local", true, 1, 0)          \
  X(kLoadMember, "load_member", true, 0, 1)          \
  X(kStoreMember, "store_member", true, 1, 0)        \
  X(kGetField, "get_field", true, 1, 1)              \
  X(kDup, "dup", false, 1, 2)                        \
  X(kPop, "pop", false, 1, 0)                        \
  X(kSwap, "swap", false, 2, 2)                      \
  X(kAdd, "add", false, 2, 1)                        \
  X(kSub, "sub", false, 2, 1)                        \
  X(kMul, "mul", false, 2, 1)                        \
  X(kDiv, "div", false, 2, 1)                        \
  X(kMod, "mod", false, 2, 1)                        \
  X(kNeg, "neg", false, 1, 1)                        \
  X(kCmpLt, "cmp_lt", false, 2, 1)                   \
  X(kCmpLe, "cmp_le", false, 2, 1)                   \
  X(kCmpGt, "cmp_gt", false, 2, 1)                   \
  X(kCmpGe, "cmp_ge", false, 2, 1)                   \
  X(kCmpEq, "cmp_eq", false, 2, 1)                   \
  X(kCmpNe, "cmp_ne", false, 2, 1)                   \
  X(kAnd, "and", false, 2, 1)                        \
  X(kOr, "or", false, 2, 1)                          \
  X(kNot, "not", false, 1, 1)                        \
  X(kJmp, "jmp", true, 0, 0)                         \
  X(kJmpIfTrue, "jmp_if_true", true, 1, 0)           \
  X(kJmpIfFalse, "jmp_if_false", true, 1, 0)         \
  X(kCall, "call", true, -1, 1)                      \
  X(kEmit, "emit", false, 2, 0)                      \
  X(kLog, "log", false, 1, 0)                        \
  X(kReturn, "return", false, 0, 0)

enum class Opcode : uint8_t {
#define MANIMAL_OPCODE_ENUM(name, mnemonic, has_operand, pops, pushes) name,
  MANIMAL_OPCODE_LIST(MANIMAL_OPCODE_ENUM)
#undef MANIMAL_OPCODE_ENUM
};

constexpr int kNumOpcodes = 0
#define MANIMAL_OPCODE_COUNT(name, mnemonic, has_operand, pops, pushes) +1
    MANIMAL_OPCODE_LIST(MANIMAL_OPCODE_COUNT)
#undef MANIMAL_OPCODE_COUNT
    ;

// Static per-opcode metadata.
struct OpcodeInfo {
  std::string_view mnemonic;
  bool has_operand;
  int pops;    // -1: dynamic (kCall: builtin arity)
  int pushes;  // for kCall: 1 (builtins always push a result, maybe null)
};

const OpcodeInfo& GetOpcodeInfo(Opcode op);

// Looks up an opcode by its assembler mnemonic.
std::optional<Opcode> OpcodeFromMnemonic(std::string_view mnemonic);

inline bool IsBranch(Opcode op) {
  return op == Opcode::kJmp || op == Opcode::kJmpIfTrue ||
         op == Opcode::kJmpIfFalse;
}

inline bool IsConditionalBranch(Opcode op) {
  return op == Opcode::kJmpIfTrue || op == Opcode::kJmpIfFalse;
}

inline bool IsTerminator(Opcode op) {
  return op == Opcode::kJmp || op == Opcode::kReturn;
}

inline bool IsComparison(Opcode op) {
  switch (op) {
    case Opcode::kCmpLt:
    case Opcode::kCmpLe:
    case Opcode::kCmpGt:
    case Opcode::kCmpGe:
    case Opcode::kCmpEq:
    case Opcode::kCmpNe:
      return true;
    default:
      return false;
  }
}

// The comparison that holds exactly when `op` fails: !(a < b) is
// (a >= b). Non-comparisons are returned unchanged.
inline Opcode NegateComparison(Opcode op) {
  switch (op) {
    case Opcode::kCmpLt:
      return Opcode::kCmpGe;
    case Opcode::kCmpLe:
      return Opcode::kCmpGt;
    case Opcode::kCmpGt:
      return Opcode::kCmpLe;
    case Opcode::kCmpGe:
      return Opcode::kCmpLt;
    case Opcode::kCmpEq:
      return Opcode::kCmpNe;
    case Opcode::kCmpNe:
      return Opcode::kCmpEq;
    default:
      return op;
  }
}

// The comparison with its operands swapped: (a < b) is (b > a).
// Equality is symmetric; non-comparisons are returned unchanged.
inline Opcode MirrorComparison(Opcode op) {
  switch (op) {
    case Opcode::kCmpLt:
      return Opcode::kCmpGt;
    case Opcode::kCmpLe:
      return Opcode::kCmpGe;
    case Opcode::kCmpGt:
      return Opcode::kCmpLt;
    case Opcode::kCmpGe:
      return Opcode::kCmpLe;
    default:
      return op;
  }
}

}  // namespace manimal::mril

#endif  // MANIMAL_MRIL_OPCODE_H_
