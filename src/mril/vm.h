// The MRIL interpreter — the part of the execution fabric that actually
// runs user map()/reduce() code over records.
//
// A VmInstance holds the per-task runtime state: the program's member
// variables (persisting across map() invocations within a task, which
// is what makes Figure 2's numMapsRun pattern observable), the emit
// sink, the log sink, and step limits.
//
// Construction links the program (see mril/link.h) into a resolved
// instruction stream, and each invocation executes that stream in one
// portable switch loop. Operand stack and locals live in flat buffers
// sized once from the link step's exact high-water marks, and string
// temporaries (concats) go into a per-instance ValueArena that is
// reset — not freed — at each invocation entry, so the per-record hot
// path performs no heap allocation. See docs/mril.md "VM internals".

#ifndef MANIMAL_MRIL_VM_H_
#define MANIMAL_MRIL_VM_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "mril/link.h"
#include "mril/program.h"

namespace manimal::mril {

// Receives (key, value) pairs emitted by user code. The VM promotes
// borrowed strings with EnsureOwned() before calling the sink, so a
// sink may retain the Values.
using EmitSink = std::function<Status(const Value& key, const Value& value)>;

// Receives values passed to the `log` side-effect instruction
// (promoted like emits).
using LogSink = std::function<void(const Value& value)>;

struct VmOptions {
  // Abort an invocation after this many executed instructions (guards
  // against accidental infinite loops in user code). Counted in
  // *linked* instructions: a fused superinstruction is one step.
  int64_t max_steps_per_invocation = 50'000'000;

  // When set (non-empty), get_field indexes on the map value parameter
  // are remapped for projected input files: field_remap[original_field]
  // is the slot of that field in the runtime (projected) record, or -1
  // if the field was projected away. The optimizer only projects away
  // fields it proved the program never reads, so a -1 access is an
  // internal error. Folded into the instruction stream at link time.
  std::vector<int> field_remap;
};

class VmInstance {
 public:
  // The program must have passed VerifyProgram. (Programs that
  // violate verifier invariants fail to link; Invoke* then returns
  // the link error instead of executing.)
  VmInstance(const Program* program, VmOptions options = {});

  // Flushes accumulated telemetry ("mril.instructions",
  // "mril.invocations", "mril.builtin.<name>" counters) to the
  // metrics registry through pointers cached once per process.
  ~VmInstance();

  void set_emit_sink(EmitSink sink) { emit_ = std::move(sink); }
  void set_log_sink(LogSink sink) { log_ = std::move(sink); }

  // Runs map(key, value). `value` is the deserialized record (a list
  // value) or the opaque blob (a str value). Borrowed strings inside
  // `value` must stay valid for the duration of the call only.
  Status InvokeMap(const Value& key, const Value& value);

  // Runs reduce(key, values).
  Status InvokeReduce(const Value& key, const Value& values);

  // Member-variable state (tests inspect this; Fig. 2 scenarios).
  const Value& member(int idx) const { return members_.at(idx); }
  void ResetMembers();

  int64_t total_steps() const { return total_steps_; }
  int64_t map_invocations() const { return map_invocations_; }

  // Introspection for tests/telemetry.
  const LinkedProgram& linked() const { return linked_; }
  const Status& link_status() const { return link_status_; }

 private:
  Status Invoke(const LinkedFunction& fn, const Value& p0, const Value& p1);

  // The interpreter loop.
  Status Run(const LinkedFunction& fn, const Value* const* params);

  const Program* program_;
  VmOptions options_;
  LinkedProgram linked_;
  Status link_status_;
  std::vector<Value> members_;
  EmitSink emit_;
  LogSink log_;
  // Flat invocation state, sized once at construction from the linked
  // functions' exact stack/locals bounds and reused across records.
  std::vector<Value> stack_;
  std::vector<Value> locals_;
  ValueArena arena_;
  int64_t total_steps_ = 0;
  int64_t map_invocations_ = 0;
  int64_t reduce_invocations_ = 0;
  // Per-builtin-id call counts, flushed to named counters at
  // destruction (a plain array increment on the kCall hot path).
  std::vector<int64_t> builtin_calls_;
};

}  // namespace manimal::mril

#endif  // MANIMAL_MRIL_VM_H_
