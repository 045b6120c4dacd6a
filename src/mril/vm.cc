#include "mril/vm.h"

#include <algorithm>
#include <utility>

#include "common/strings.h"
#include "mril/builtins.h"
#include "mril/ops.h"
#include "obs/metrics.h"

namespace manimal::mril {

namespace {

// Registry counter pointers, resolved once per process so VmInstance
// teardown is plain pointer arithmetic — no name concat, no registry
// lock — on the per-task flush.
struct VmCounters {
  obs::Counter* instructions;
  obs::Counter* invocations;
  std::vector<obs::Counter*> builtin;  // indexed by builtin id
};

const VmCounters& GetVmCounters() {
  static const VmCounters* counters = [] {
    auto* c = new VmCounters();
    auto& metrics = obs::MetricsRegistry::Get();
    c->instructions = metrics.GetCounter("mril.instructions");
    c->invocations = metrics.GetCounter("mril.invocations");
    const BuiltinRegistry& registry = BuiltinRegistry::Get();
    c->builtin.reserve(registry.size());
    for (const Builtin& b : registry.all()) {
      c->builtin.push_back(metrics.GetCounter("mril.builtin." + b.name));
    }
    return c;
  }();
  return *counters;
}

}  // namespace

VmInstance::VmInstance(const Program* program, VmOptions options)
    : program_(program),
      options_(std::move(options)),
      builtin_calls_(BuiltinRegistry::Get().size(), 0) {
  LinkOptions link_options;
  link_options.field_remap = options_.field_remap;
  Result<LinkedProgram> linked = Link(*program, link_options);
  if (linked.ok()) {
    linked_ = std::move(*linked);
    int max_stack = linked_.map_fn.max_stack;
    int num_locals = linked_.map_fn.num_locals;
    if (linked_.has_reduce) {
      max_stack = std::max(max_stack, linked_.reduce_fn.max_stack);
      num_locals = std::max(num_locals, linked_.reduce_fn.num_locals);
    }
    stack_.resize(max_stack);
    locals_.resize(num_locals);
  } else {
    link_status_ = linked.status();
  }
  ResetMembers();
}

VmInstance::~VmInstance() {
  if (total_steps_ == 0 && map_invocations_ == 0 &&
      reduce_invocations_ == 0) {
    return;
  }
  const VmCounters& counters = GetVmCounters();
  counters.instructions->Add(total_steps_);
  counters.invocations->Add(map_invocations_ + reduce_invocations_);
  for (size_t id = 0; id < builtin_calls_.size(); ++id) {
    if (builtin_calls_[id] == 0) continue;
    counters.builtin[id]->Add(builtin_calls_[id]);
  }
}

void VmInstance::ResetMembers() {
  members_.clear();
  members_.reserve(program_->members.size());
  for (const MemberVar& m : program_->members) {
    members_.push_back(m.initial_value);
  }
}

Status VmInstance::InvokeMap(const Value& key, const Value& value) {
  ++map_invocations_;
  return Invoke(linked_.map_fn, key, value);
}

Status VmInstance::InvokeReduce(const Value& key, const Value& values) {
  if (!program_->reduce_fn.has_value()) {
    return Status::InvalidArgument("program has no reduce()");
  }
  ++reduce_invocations_;
  return Invoke(linked_.reduce_fn, key, values);
}

Status VmInstance::Invoke(const LinkedFunction& fn, const Value& p0,
                          const Value& p1) {
  MANIMAL_RETURN_IF_ERROR(link_status_);
  // Reclaim the previous invocation's string temporaries. Safe because
  // the loop clears its stack and locals on exit: nothing that could
  // point into the arena survives between invocations except members
  // and emitted/logged values, which are promoted to owned storage.
  arena_.Reset();
  // Borrowed-string buffers (the arena just reset, the caller's record
  // buffer) may be recycled across invocations; kill any builtin memo
  // keyed on their addresses.
  InvalidateBorrowedStringMemos();
  const Value* params[2] = {&p0, &p1};
  return Run(fn, params);
}

// The interpreter loop over a linked instruction stream: one `switch`
// per executed instruction, each handler ending in `continue` (next
// instruction) or `goto L_done` (return or error).
//
// Invariants relied on (established by the link step):
//   - every function ends with kFellOffEnd, so `ip` never runs past
//     the end and no per-step bounds check is needed;
//   - `stack_` holds at least max_stack slots and `locals_` at least
//     num_locals, so sp never indexes out of the flat buffers;
//   - branch targets index into the linked stream.
Status VmInstance::Run(const LinkedFunction& lf, const Value* const* params) {
  const LInsn* const code = lf.code.data();
  const LInsn* ip = code;
  Value* const stack = stack_.data();
  Value* const locals = locals_.data();
  Value* const members = members_.data();
  int sp = 0;
  int64_t steps = 0;
  const int64_t max_steps = options_.max_steps_per_invocation;
  Status ret = Status::OK();

  for (;;) {
    if (++steps > max_steps) goto L_too_many_steps;
    switch (ip->op) {
      case LOp::kLoadConst:
        stack[sp++] = *ip->constant;
        ++ip;
        continue;
      case LOp::kLoadParam:
        stack[sp++] = *params[ip->a];
        ++ip;
        continue;
      case LOp::kLoadLocal:
        stack[sp++] = locals[ip->a];
        ++ip;
        continue;
      case LOp::kStoreLocal:
        // Locals never outlive the invocation (the arena is reset at
        // the *next* invocation's entry), so no promotion here.
        locals[ip->a] = std::move(stack[--sp]);
        ++ip;
        continue;
      case LOp::kLoadMember:
        stack[sp++] = members[ip->a];
        ++ip;
        continue;
      case LOp::kStoreMember: {
        // Members persist across invocations — promote borrowed strings.
        Value v = std::move(stack[--sp]);
        v.EnsureOwned();
        members[ip->a] = std::move(v);
        ++ip;
        continue;
      }
      case LOp::kGetField: {
        Value& slot = stack[sp - 1];
        if (!slot.is_list()) {
          ret = TypeError("get_field", slot);
          goto L_done;
        }
        const ValueList& fields = slot.list();
        const int32_t idx = ip->a;
        if (static_cast<uint32_t>(idx) >= fields.size()) {
          ret = Status::InvalidArgument(
              StrPrintf("get_field %d out of range (%zu fields)", idx,
                        fields.size()));
          goto L_done;
        }
        // Through a temporary: assigning `slot` drops the record, which
        // may be the storage `fields[idx]` lives in.
        Value field = fields[idx];
        slot = std::move(field);
        ++ip;
        continue;
      }
      case LOp::kGetFieldNull: {
        // The field was projected away. The analyzer only removes
        // fields whose every output-relevant use is absent, so this
        // read can feed nothing but debug logging — which the paper
        // explicitly allows optimization to perturb (§2.2/Appendix C).
        // Observe null.
        Value& slot = stack[sp - 1];
        if (!slot.is_list()) {
          ret = TypeError("get_field", slot);
          goto L_done;
        }
        slot = Value::Null();
        ++ip;
        continue;
      }
      case LOp::kGetFieldBadRemap: {
        Value& slot = stack[sp - 1];
        if (!slot.is_list()) {
          ret = TypeError("get_field", slot);
          goto L_done;
        }
        ret = Status::Internal(
            StrPrintf("get_field %d outside the field remap", ip->a));
        goto L_done;
      }
      case LOp::kDup:
        stack[sp] = stack[sp - 1];
        ++sp;
        ++ip;
        continue;
      case LOp::kPop:
        // Clear the slot: a stale reference would pin refcounted
        // storage (and defeat the engine's unique-list record reuse).
        stack[--sp] = Value();
        ++ip;
        continue;
      case LOp::kSwap:
        std::swap(stack[sp - 1], stack[sp - 2]);
        ++ip;
        continue;

// Off an operator's inline fast path, the VM applies it through
// mril::ApplyOp (the one definition every evaluator shares) to the top
// ARITY stack slots, leaving the result in the lowest.
#define MANIMAL_VM_APPLY_OP(OPCODE, ARITY)                          \
  {                                                                 \
    Value out;                                                      \
    ret = ApplyOp(OPCODE, stack + (sp - (ARITY)), &out, &arena_);   \
    if (!ret.ok()) goto L_done;                                     \
    stack[sp - (ARITY)] = std::move(out);                           \
  }

// A binary operator whose operands both hold PROBE's representation
// is computed inline as FAST_EXPR over x and y.
#define MANIMAL_VM_BINARY(LOPNAME, OPCODE, PROBE, FAST_EXPR) \
  case LOp::LOPNAME: {                                       \
    Value& a = stack[sp - 2];                                \
    Value& b = stack[sp - 1];                                \
    const auto* xp = a.PROBE();                              \
    const auto* yp = b.PROBE();                              \
    if (xp != nullptr && yp != nullptr) {                    \
      const auto x = *xp;                                    \
      const auto y = *yp;                                    \
      a = FAST_EXPR;                                         \
    } else {                                                 \
      MANIMAL_VM_APPLY_OP(OPCODE, 2)                         \
    }                                                        \
    b = Value();                                             \
    --sp;                                                    \
    ++ip;                                                    \
    continue;                                                \
  }

      // i64 arithmetic wraps two's-complement (via unsigned), as
      // ApplyOp defines it. Division takes ApplyOp for its zero and
      // INT64_MIN / -1 cases.
      MANIMAL_VM_BINARY(kAdd, Opcode::kAdd, if_i64,
                        Value::I64(static_cast<int64_t>(
                            static_cast<uint64_t>(x) +
                            static_cast<uint64_t>(y))))
      MANIMAL_VM_BINARY(kSub, Opcode::kSub, if_i64,
                        Value::I64(static_cast<int64_t>(
                            static_cast<uint64_t>(x) -
                            static_cast<uint64_t>(y))))
      MANIMAL_VM_BINARY(kMul, Opcode::kMul, if_i64,
                        Value::I64(static_cast<int64_t>(
                            static_cast<uint64_t>(x) *
                            static_cast<uint64_t>(y))))
      MANIMAL_VM_BINARY(kCmpLt, Opcode::kCmpLt, if_i64, Value::Bool(x < y))
      MANIMAL_VM_BINARY(kCmpLe, Opcode::kCmpLe, if_i64, Value::Bool(x <= y))
      MANIMAL_VM_BINARY(kCmpGt, Opcode::kCmpGt, if_i64, Value::Bool(x > y))
      MANIMAL_VM_BINARY(kCmpGe, Opcode::kCmpGe, if_i64, Value::Bool(x >= y))
      MANIMAL_VM_BINARY(kCmpEq, Opcode::kCmpEq, if_i64, Value::Bool(x == y))
      MANIMAL_VM_BINARY(kCmpNe, Opcode::kCmpNe, if_i64, Value::Bool(x != y))
      MANIMAL_VM_BINARY(kAnd, Opcode::kAnd, if_bool, Value::Bool(x && y))
      MANIMAL_VM_BINARY(kOr, Opcode::kOr, if_bool, Value::Bool(x || y))
#undef MANIMAL_VM_BINARY

      case LOp::kDiv:
        MANIMAL_VM_APPLY_OP(Opcode::kDiv, 2)
        stack[--sp] = Value();
        ++ip;
        continue;
      case LOp::kMod:
        MANIMAL_VM_APPLY_OP(Opcode::kMod, 2)
        stack[--sp] = Value();
        ++ip;
        continue;

      case LOp::kNeg: {
        Value& a = stack[sp - 1];
        if (const int64_t* x = a.if_i64()) {
          a = Value::I64(static_cast<int64_t>(0 - static_cast<uint64_t>(*x)));
        } else if (const double* d = a.if_f64()) {
          a = Value::F64(-*d);
        } else {
          MANIMAL_VM_APPLY_OP(Opcode::kNeg, 1)
        }
        ++ip;
        continue;
      }
      case LOp::kNot: {
        Value& a = stack[sp - 1];
        if (const bool* x = a.if_bool()) {
          a = Value::Bool(!*x);
        } else {
          MANIMAL_VM_APPLY_OP(Opcode::kNot, 1)
        }
        ++ip;
        continue;
      }
#undef MANIMAL_VM_APPLY_OP

      case LOp::kJmp:
        ip = code + ip->a;
        continue;
      case LOp::kJmpIfTrue: {
        Value& c = stack[--sp];
        const bool* x = c.if_bool();
        if (x == nullptr) {
          ret = TypeError("branch condition", c);
          goto L_done;
        }
        ip = *x ? code + ip->a : ip + 1;
        c = Value();
        continue;
      }
      case LOp::kJmpIfFalse: {
        Value& c = stack[--sp];
        const bool* x = c.if_bool();
        if (x == nullptr) {
          ret = TypeError("branch condition", c);
          goto L_done;
        }
        ip = *x ? ip + 1 : code + ip->a;
        c = Value();
        continue;
      }

      case LOp::kCall: {
        // a = arity, b = builtin id. Arguments are a slice of the
        // operand stack; the result is computed into a temporary (it
        // may alias args semantically) and moved into the freed slot.
        const Builtin* bi = ip->builtin;
        const int arity = ip->a;
        ++builtin_calls_[ip->b];
        Value result;
        ret = bi->fn(stack + (sp - arity), &result);
        if (!ret.ok()) goto L_done;
        for (int i = 0; i < arity; ++i) stack[--sp] = Value();
        stack[sp++] = std::move(result);
        ++ip;
        continue;
      }

      case LOp::kEmit: {
        Value value = std::move(stack[--sp]);
        Value key = std::move(stack[--sp]);
        if (emit_) {
          // The sink may retain the pair past this record's buffers.
          key.EnsureOwned();
          value.EnsureOwned();
          ret = emit_(key, value);
          if (!ret.ok()) goto L_done;
        }
        ++ip;
        continue;
      }
      case LOp::kLog: {
        Value v = std::move(stack[--sp]);
        if (log_) {
          v.EnsureOwned();
          log_(v);
        }
        ++ip;
        continue;
      }
      case LOp::kReturn:
        goto L_done;

      case LOp::kLoadParamField: {
        // Fused LoadParam a; GetField b — the dominant record-access
        // pattern. The param is read in place: no refcount traffic on
        // the record list.
        const Value& rec = *params[ip->a];
        if (!rec.is_list()) {
          ret = TypeError("get_field", rec);
          goto L_done;
        }
        const ValueList& fields = rec.list();
        const int32_t idx = ip->b;
        if (static_cast<uint32_t>(idx) >= fields.size()) {
          ret = Status::InvalidArgument(
              StrPrintf("get_field %d out of range (%zu fields)", idx,
                        fields.size()));
          goto L_done;
        }
        stack[sp++] = fields[idx];
        ++ip;
        continue;
      }

#define MANIMAL_VM_CMPBR(LOPNAME, OPCODE, I64_EXPR)          \
  case LOp::LOPNAME: {                                       \
    Value& a = stack[sp - 2];                                \
    Value& b = stack[sp - 1];                                \
    bool cond;                                               \
    const int64_t* xp = a.if_i64();                          \
    const int64_t* yp = b.if_i64();                          \
    if (xp != nullptr && yp != nullptr) {                    \
      const int64_t x = *xp;                                 \
      const int64_t y = *yp;                                 \
      cond = (I64_EXPR);                                     \
    } else {                                                 \
      Value out;                                             \
      ret = ApplyOp(OPCODE, &a, &out, &arena_);              \
      if (!ret.ok()) goto L_done;                            \
      cond = out.bool_value();                               \
    }                                                        \
    a = Value();                                             \
    b = Value();                                             \
    sp -= 2;                                                 \
    ip = (cond == (ip->b != 0)) ? code + ip->a : ip + 1;     \
    continue;                                                \
  }

      MANIMAL_VM_CMPBR(kCmpLtBr, Opcode::kCmpLt, x < y)
      MANIMAL_VM_CMPBR(kCmpLeBr, Opcode::kCmpLe, x <= y)
      MANIMAL_VM_CMPBR(kCmpGtBr, Opcode::kCmpGt, x > y)
      MANIMAL_VM_CMPBR(kCmpGeBr, Opcode::kCmpGe, x >= y)
      MANIMAL_VM_CMPBR(kCmpEqBr, Opcode::kCmpEq, x == y)
      MANIMAL_VM_CMPBR(kCmpNeBr, Opcode::kCmpNe, x != y)
#undef MANIMAL_VM_CMPBR

      case LOp::kFellOffEnd:
        ret = Status::Internal(lf.source->name +
                               ": fell off end of bytecode");
        goto L_done;
    }
  }

L_too_many_steps:
  ret = Status::Internal(
      StrPrintf("%s: exceeded %lld steps (infinite loop?)",
                lf.source->name.c_str(), static_cast<long long>(max_steps)));
L_done:
  total_steps_ += steps;
  // Drop anything the invocation left behind: stale stack/locals
  // references would pin record storage (blocking the engine's
  // unique-list reuse) and may point into the arena, which the next
  // invocation resets.
  for (int i = 0; i < sp; ++i) stack[i] = Value();
  for (int i = 0; i < lf.num_locals; ++i) locals[i] = Value();
  return ret;
}

}  // namespace manimal::mril
