#include "mril/vm.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/strings.h"
#include "mril/builtins.h"
#include "obs/metrics.h"

namespace manimal::mril {

namespace {

Status TypeError(const char* op, const Value& a) {
  return Status::InvalidArgument(StrPrintf("%s: bad operand kind %s", op,
                                           ValueKindName(a.kind())));
}

Status TypeError2(std::string_view op, const Value& a, const Value& b) {
  return Status::InvalidArgument(
      StrPrintf("%.*s: bad operand kinds %s, %s",
                static_cast<int>(op.size()), op.data(),
                ValueKindName(a.kind()), ValueKindName(b.kind())));
}

// Arithmetic off the all-i64 fast path: doubles, mixed numerics,
// string concatenation (kAdd), and the div/mod zero checks. Concat
// results are arena-backed views (inline when short) — the per-record
// reset reclaims them without freeing.
Status ArithSlow(Opcode op, const Value& a, const Value& b, Value* out,
                 ValueArena* arena) {
  if (op == Opcode::kAdd && a.is_str() && b.is_str()) {
    *out = Value::Borrowed(arena->Concat(a.str(), b.str()));
    return Status::OK();
  }
  if (!a.is_numeric() || !b.is_numeric()) {
    return TypeError2(GetOpcodeInfo(op).mnemonic, a, b);
  }
  if (a.is_i64() && b.is_i64()) {
    int64_t x = a.i64(), y = b.i64();
    // Arithmetic is defined two's-complement wrapping (via unsigned),
    // like the JVM's — never C++ signed-overflow UB.
    auto wrap = [](uint64_t v) { return static_cast<int64_t>(v); };
    switch (op) {
      case Opcode::kAdd:
        *out = Value::I64(wrap(static_cast<uint64_t>(x) +
                               static_cast<uint64_t>(y)));
        return Status::OK();
      case Opcode::kSub:
        *out = Value::I64(wrap(static_cast<uint64_t>(x) -
                               static_cast<uint64_t>(y)));
        return Status::OK();
      case Opcode::kMul:
        *out = Value::I64(wrap(static_cast<uint64_t>(x) *
                               static_cast<uint64_t>(y)));
        return Status::OK();
      case Opcode::kDiv:
        if (y == 0) return Status::InvalidArgument("integer division by 0");
        *out = Value::I64(x / y);
        return Status::OK();
      case Opcode::kMod:
        if (y == 0) return Status::InvalidArgument("integer modulo by 0");
        *out = Value::I64(x % y);
        return Status::OK();
      default:
        MANIMAL_UNREACHABLE();
    }
  }
  double x = a.AsF64(), y = b.AsF64();
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
    case Opcode::kMod:
      return Status::InvalidArgument("mod requires integer operands");
    default:
      MANIMAL_UNREACHABLE();
  }
}

// Comparison off the all-i64 fast path.
Status CompareSlow(Opcode op, const Value& a, const Value& b, bool* out) {
  // Equality works across kinds; ordering needs comparable kinds.
  if (op == Opcode::kCmpEq) {
    *out = (a == b);
    return Status::OK();
  }
  if (op == Opcode::kCmpNe) {
    *out = !(a == b);
    return Status::OK();
  }
  bool comparable = (a.is_numeric() && b.is_numeric()) ||
                    (a.is_str() && b.is_str()) ||
                    (a.is_bool() && b.is_bool());
  if (!comparable) return TypeError2("compare", a, b);
  int c = a.Compare(b);
  switch (op) {
    case Opcode::kCmpLt:
      *out = c < 0;
      return Status::OK();
    case Opcode::kCmpLe:
      *out = c <= 0;
      return Status::OK();
    case Opcode::kCmpGt:
      *out = c > 0;
      return Status::OK();
    case Opcode::kCmpGe:
      *out = c >= 0;
      return Status::OK();
    default:
      MANIMAL_UNREACHABLE();
  }
}

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

#define MANIMAL_VM_ARITH_I64(LOPNAME, OPCODE, WRAP_EXPR)             \
  case LOp::LOPNAME: {                                               \
    Value& a = stack[sp - 2];                                        \
    Value& b = stack[sp - 1];                                        \
    const int64_t* xp = a.if_i64();                                  \
    const int64_t* yp = b.if_i64();                                  \
    if (xp != nullptr && yp != nullptr) {                            \
      const uint64_t ux = static_cast<uint64_t>(*xp);                \
      const uint64_t uy = static_cast<uint64_t>(*yp);                \
      a = Value::I64(WRAP_EXPR);                                     \
    } else {                                                         \
      Value out;                                                     \
      ret = ArithSlow(OPCODE, a, b, &out, &arena_);                  \
      if (!ret.ok()) goto L_done;                                    \
      a = std::move(out);                                            \
    }                                                                \
    b = Value();                                                     \
    --sp;                                                            \
    ++ip;                                                            \
    continue;                                                        \
  }

      // Arithmetic is defined two's-complement wrapping (via unsigned),
      // like the JVM's — never C++ signed-overflow UB. Division routes
      // through the slow path for its zero check.
      MANIMAL_VM_ARITH_I64(kAdd, Opcode::kAdd, static_cast<int64_t>(ux + uy))
      MANIMAL_VM_ARITH_I64(kSub, Opcode::kSub, static_cast<int64_t>(ux - uy))
      MANIMAL_VM_ARITH_I64(kMul, Opcode::kMul, static_cast<int64_t>(ux * uy))
#undef MANIMAL_VM_ARITH_I64

#define MANIMAL_VM_ARITH_SLOW(LOPNAME, OPCODE)               \
  case LOp::LOPNAME: {                                       \
    Value& a = stack[sp - 2];                                \
    Value& b = stack[sp - 1];                                \
    Value out;                                               \
    ret = ArithSlow(OPCODE, a, b, &out, &arena_);            \
    if (!ret.ok()) goto L_done;                              \
    a = std::move(out);                                      \
    b = Value();                                             \
    --sp;                                                    \
    ++ip;                                                    \
    continue;                                                \
  }

      MANIMAL_VM_ARITH_SLOW(kDiv, Opcode::kDiv)
      MANIMAL_VM_ARITH_SLOW(kMod, Opcode::kMod)
#undef MANIMAL_VM_ARITH_SLOW

      case LOp::kNeg: {
        Value& a = stack[sp - 1];
        if (const int64_t* x = a.if_i64()) {
          a = Value::I64(-*x);
        } else if (const double* d = a.if_f64()) {
          a = Value::F64(-*d);
        } else {
          ret = TypeError("neg", a);
          goto L_done;
        }
        ++ip;
        continue;
      }

#define MANIMAL_VM_CMP(LOPNAME, OPCODE, I64_EXPR)  \
  case LOp::LOPNAME: {                             \
    Value& a = stack[sp - 2];                      \
    Value& b = stack[sp - 1];                      \
    bool cond;                                     \
    const int64_t* xp = a.if_i64();                \
    const int64_t* yp = b.if_i64();                \
    if (xp != nullptr && yp != nullptr) {          \
      const int64_t x = *xp;                       \
      const int64_t y = *yp;                       \
      cond = (I64_EXPR);                           \
    } else {                                       \
      ret = CompareSlow(OPCODE, a, b, &cond);      \
      if (!ret.ok()) goto L_done;                  \
    }                                              \
    a = Value::Bool(cond);                         \
    b = Value();                                   \
    --sp;                                          \
    ++ip;                                          \
    continue;                                      \
  }

      MANIMAL_VM_CMP(kCmpLt, Opcode::kCmpLt, x < y)
      MANIMAL_VM_CMP(kCmpLe, Opcode::kCmpLe, x <= y)
      MANIMAL_VM_CMP(kCmpGt, Opcode::kCmpGt, x > y)
      MANIMAL_VM_CMP(kCmpGe, Opcode::kCmpGe, x >= y)
      MANIMAL_VM_CMP(kCmpEq, Opcode::kCmpEq, x == y)
      MANIMAL_VM_CMP(kCmpNe, Opcode::kCmpNe, x != y)
#undef MANIMAL_VM_CMP

      case LOp::kAnd: {
        Value& a = stack[sp - 2];
        Value& b = stack[sp - 1];
        const bool* x = a.if_bool();
        const bool* y = b.if_bool();
        if (x == nullptr || y == nullptr) {
          ret = TypeError2("and/or", a, b);
          goto L_done;
        }
        a = Value::Bool(*x && *y);
        b = Value();
        --sp;
        ++ip;
        continue;
      }
      case LOp::kOr: {
        Value& a = stack[sp - 2];
        Value& b = stack[sp - 1];
        const bool* x = a.if_bool();
        const bool* y = b.if_bool();
        if (x == nullptr || y == nullptr) {
          ret = TypeError2("and/or", a, b);
          goto L_done;
        }
        a = Value::Bool(*x || *y);
        b = Value();
        --sp;
        ++ip;
        continue;
      }
      case LOp::kNot: {
        Value& a = stack[sp - 1];
        const bool* x = a.if_bool();
        if (x == nullptr) {
          ret = TypeError("not", a);
          goto L_done;
        }
        a = Value::Bool(!*x);
        ++ip;
        continue;
      }

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

#define MANIMAL_VM_CMPBR(LOPNAME, OPCODE, I64_EXPR)        \
  case LOp::LOPNAME: {                                     \
    Value& a = stack[sp - 2];                              \
    Value& b = stack[sp - 1];                              \
    bool cond;                                             \
    const int64_t* xp = a.if_i64();                        \
    const int64_t* yp = b.if_i64();                        \
    if (xp != nullptr && yp != nullptr) {                  \
      const int64_t x = *xp;                               \
      const int64_t y = *yp;                               \
      cond = (I64_EXPR);                                   \
    } else {                                               \
      ret = CompareSlow(OPCODE, a, b, &cond);              \
      if (!ret.ok()) goto L_done;                          \
    }                                                      \
    a = Value();                                           \
    b = Value();                                           \
    sp -= 2;                                               \
    ip = (cond == (ip->b != 0)) ? code + ip->a : ip + 1;   \
    continue;                                              \
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
