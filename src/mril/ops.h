// MRIL operator semantics, defined once.
//
// `ApplyOp` is the reference meaning of every value operator (add sub
// mul div mod neg, the six comparisons, and or not). Each evaluator
// calls it the way it calls a builtin's function pointer: the VM for
// everything off its inline fast paths, the native kernel's operator
// nodes, and the analyzer's expression evaluator (constant folding,
// reduce-key filters, index keys). So an evaluator outside the VM
// raises exactly where the VM raises. See docs/mril.md.

#ifndef MANIMAL_MRIL_OPS_H_
#define MANIMAL_MRIL_OPS_H_

#include <string_view>

#include "common/status.h"
#include "mril/opcode.h"
#include "serde/value.h"

namespace manimal::mril {

// Can an ordered comparison (cmp_lt/le/gt/ge) of these kinds succeed?
// Numerics order with each other, str and bool only with their own
// kind; every other pairing raises. Equality (cmp_eq/ne) is total
// across kinds.
bool OrderedComparable(ValueKind a, ValueKind b);

// Applies `op` to args[0] (and args[1] for a binary operator) into
// *out. i64 arithmetic wraps (two's complement) like the JVM's, which
// also defines INT64_MIN / -1 == INT64_MIN and INT64_MIN % -1 == 0.
// Bad operand kinds, a zero i64 divisor and mod on doubles fail with
// InvalidArgument; a non-operator opcode with Internal. `str + str`
// concatenates into `arena` (a borrowed view, valid until its next
// Reset) or, when `arena` is null, into an owned string.
Status ApplyOp(Opcode op, const Value* args, Value* out, ValueArena* arena);

// The InvalidArgument every MRIL operand-kind error carries:
// "<what>: bad operand kind <kind>".
Status TypeError(std::string_view what, const Value& a);

}  // namespace manimal::mril

#endif  // MANIMAL_MRIL_OPS_H_
