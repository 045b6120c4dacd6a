// The native execution tier: compiles an admitted relational shape
// (codegen/shape.h) into a specialized evaluator that replaces the VM
// on the map hot path, and an admitted reduce fold into one that
// replaces it on the reduce side.
//
// The kernel is a closure tree: small evaluator nodes built at
// job-prepare time, with template-instantiated typed fast paths for
// the dominant term shapes (e.g. an i64 field compared against an i64
// constant) and conjunct short-circuiting in selectivity order.
// NativeKernel hides that tree from callers.
//
// Exactness contract: for every record (or group), Run() either
// reproduces the VM's observable behavior (emit the identical pair, or
// emit nothing) or returns kBailout, in which case the caller MUST
// replay the record (the whole group) through the VM, which also
// reproduces any error the VM would have raised. Bailing out is
// always safe; the compiler only proves that non-bailout outcomes are
// exact.
//
// Evaluation discipline (why reordering is safe): a node is "total"
// when its evaluation provably cannot fault for schema-conformant
// records. Only total terms participate in short-circuit evaluation;
// every non-total expression in the shape (a division, a builtin
// call) is evaluated up front on every record, with any fault turning
// into kBailout — so the kernel never skips an expression the VM
// might have faulted on.

#ifndef MANIMAL_CODEGEN_KERNEL_H_
#define MANIMAL_CODEGEN_KERNEL_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "codegen/shape.h"
#include "common/status.h"
#include "mril/vm.h"
#include "serde/value.h"

namespace manimal::codegen {

enum class KernelOutcome {
  kSkip,     // the record does not satisfy the selection
  kEmit,     // *out_key / *out_value hold the emitted pair
  kBailout,  // exactness not provable for this record: replay via VM
};

// Per-caller mutable state, so one immutable kernel can serve many
// threads. Reused across records; Run() resets what it needs.
struct KernelScratch {
  ValueArena arena;
  std::vector<Value> slots;
};

class NativeKernel {
 public:
  virtual ~NativeKernel() = default;

  // Evaluates one map input, or for a reduce kernel one group (then
  // `record` is the group's values list and the outcome is never
  // kSkip). Emitted values may borrow from `record` or from
  // scratch->arena — valid until the next Run() with the same scratch
  // or the record buffer's invalidation, whichever is first (the same
  // lifetime contract as InputSplit::Next()).
  virtual KernelOutcome Run(const Value& key, const Value& record,
                            KernelScratch* scratch, Value* out_key,
                            Value* out_value) const = 0;

  virtual std::string Describe() const = 0;
};

struct CompileOptions {
  // original-field -> runtime-slot remap of the input layout (same
  // semantics as mril::VmOptions::field_remap); empty = identity.
  std::vector<int> field_remap;

  // Optional per-term selectivity estimates keyed by
  // SelectTerm::ToString() (the optimizer derives them from the
  // per-column statistics); total conjunct terms are short-circuited
  // most-selective-first. Terms without an estimate use a static
  // cost/selectivity heuristic.
  std::vector<std::pair<std::string, double>> term_selectivity;
};

// Extracts the program's shape and compiles it. Returns
// StatusCode::kNotSupported (with a reason) for programs the admission
// gate (codegen/shape.h) rejects.
Result<std::shared_ptr<const NativeKernel>> CompileKernel(
    const mril::Program& program, const CompileOptions& options);

// Extracts the reduce's fold shape (codegen/shape.h) and compiles it.
// `replay_vm` is the options of the VM that replays bailed groups: the
// kernel bails on every group that VM could not finish within
// max_steps_per_invocation. Returns StatusCode::kNotSupported (with a
// reason) for reduces ExtractFoldShape refuses.
Result<std::shared_ptr<const NativeKernel>> CompileReduceKernel(
    const mril::Program& program, const mril::VmOptions& replay_vm);

}  // namespace manimal::codegen

#endif  // MANIMAL_CODEGEN_KERNEL_H_
