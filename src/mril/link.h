// The MRIL link step: decodes a verified `Program` into a directly
// executable instruction stream so the interpreter's per-instruction
// work is a load, a dispatch, and the operation itself.
//
// Linking resolves, once per task instead of once per executed
// instruction:
//   - constant-pool indexes      -> `const Value*` into the program
//   - builtin ids                -> `const Builtin*` (+ arity immediate)
//   - jump targets               -> indexes into the linked stream
//   - the optimizer field remap  -> folded into get_field operands
//     (projected-away reads become kGetFieldNull; out-of-remap reads
//     become kGetFieldBadRemap, erroring only if actually executed)
// and fuses the two dominant instruction pairs into superinstructions:
//   - LoadParam p; GetField f    -> kLoadParamField   (p, f)
//   - Cmp??; JmpIfTrue/False t   -> kCmp??Br          (t, sense)
// Fusion is legal because the verifier rejects jumps into the middle
// of a pair (a fused second half is never itself a jump target — we
// check), and kNop is dropped entirely. One linked instruction counts
// as one VM step, so a fused pair costs one step.
//
// Each linked function ends with a kFellOffEnd sentinel, which lets
// the interpreter drop its `pc < n` bounds check: falling off the end
// executes the sentinel and reports the same Internal error the
// unlinked interpreter produced.

#ifndef MANIMAL_MRIL_LINK_H_
#define MANIMAL_MRIL_LINK_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "mril/builtins.h"
#include "mril/program.h"

namespace manimal::mril {

// Linked opcodes: the Opcode set minus kNop, plus resolved get_field
// variants, superinstructions, and the end sentinel.
#define MANIMAL_LOP_LIST(X)                                          \
  X(kLoadConst)                                                      \
  X(kLoadParam)                                                      \
  X(kLoadLocal)                                                      \
  X(kStoreLocal)                                                     \
  X(kLoadMember)                                                     \
  X(kStoreMember)                                                    \
  X(kGetField)                                                       \
  X(kGetFieldNull)     /* projected-away field: observe null */      \
  X(kGetFieldBadRemap) /* outside the remap: Internal if run */      \
  X(kDup)                                                            \
  X(kPop)                                                            \
  X(kSwap)                                                           \
  X(kAdd)                                                            \
  X(kSub)                                                            \
  X(kMul)                                                            \
  X(kDiv)                                                            \
  X(kMod)                                                            \
  X(kNeg)                                                            \
  X(kCmpLt)                                                          \
  X(kCmpLe)                                                          \
  X(kCmpGt)                                                          \
  X(kCmpGe)                                                          \
  X(kCmpEq)                                                          \
  X(kCmpNe)                                                          \
  X(kAnd)                                                            \
  X(kOr)                                                             \
  X(kNot)                                                            \
  X(kJmp)                                                            \
  X(kJmpIfTrue)                                                      \
  X(kJmpIfFalse)                                                     \
  X(kCall)                                                           \
  X(kEmit)                                                           \
  X(kLog)                                                            \
  X(kReturn)                                                         \
  X(kLoadParamField) /* LoadParam a; GetField b */                   \
  X(kCmpLtBr)        /* CmpLt; JmpIf(b) a */                         \
  X(kCmpLeBr)                                                        \
  X(kCmpGtBr)                                                        \
  X(kCmpGeBr)                                                        \
  X(kCmpEqBr)                                                        \
  X(kCmpNeBr)                                                        \
  X(kFellOffEnd)

enum class LOp : uint8_t {
#define MANIMAL_LOP_ENUM(name) name,
  MANIMAL_LOP_LIST(MANIMAL_LOP_ENUM)
#undef MANIMAL_LOP_ENUM
};

constexpr int kNumLOps = 0
#define MANIMAL_LOP_COUNT(name) +1
    MANIMAL_LOP_LIST(MANIMAL_LOP_COUNT)
#undef MANIMAL_LOP_COUNT
    ;

std::string_view LOpName(LOp op);

// One linked instruction. Operand meaning by op:
//   kLoadConst                 constant -> pool entry
//   kCall                      builtin; a = arity, b = builtin id
//   kLoadParamField            a = param slot, b = field index
//   kCmp??Br                   a = target, b = branch sense (1 = taken
//                              when the comparison is true)
//   kJmp/kJmpIfTrue/kJmpIfFalse  a = target
//   everything else            a = slot / field index
struct LInsn {
  LOp op;
  int32_t a = 0;
  int32_t b = 0;
  union {
    const Builtin* builtin;  // kCall
    const Value* constant;   // kLoadConst
    const void* raw = nullptr;
  };
};

struct LinkedFunction {
  const Function* source = nullptr;
  std::vector<LInsn> code;  // always ends with kFellOffEnd
  int num_locals = 0;
  // Exact operand-stack high-water mark (from the verifier's stack
  // discipline: depth is consistent per pc and zero at every branch
  // and return, so a single linear pass computes it).
  int max_stack = 0;
  int num_fused = 0;  // superinstructions emitted (tests/telemetry)
};

struct LinkedProgram {
  const Program* program = nullptr;
  LinkedFunction map_fn;
  bool has_reduce = false;
  LinkedFunction reduce_fn;
};

struct LinkOptions {
  // Map-side get_field remap; same semantics as VmOptions::field_remap.
  std::vector<int> field_remap;
  // Tests can disable fusion to compare fused vs. unfused streams.
  bool enable_superinstructions = true;
};

// Links `program`, which must reference live storage for the lifetime
// of the result (linked instructions point into its constant pool).
// Programs that violate verifier invariants (bad slot indexes,
// unknown builtins, inconsistent stack depths) are rejected with
// InvalidArgument rather than UB — VmInstance surfaces that Status
// from Invoke, so unverified garbage stays memory-safe.
Result<LinkedProgram> Link(const Program& program,
                           const LinkOptions& options);

}  // namespace manimal::mril

#endif  // MANIMAL_MRIL_LINK_H_
