#include "codegen/kernel.h"

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <utility>

#include "common/strings.h"
#include "mril/builtins.h"
#include "mril/ops.h"

namespace manimal::codegen {

using analysis::Expr;
using analysis::ExprRef;
using mril::Opcode;

namespace {

// Everything a node may touch while evaluating one record. `fields`
// is null when the record is not a list (possible only for shapes
// that never dereference it — the arity gate bails first otherwise).
// A reduce fold evaluates over one group: `record` is its values
// list, and `elem` / `acc` are the current element and the
// accumulator (null where the fold has none).
struct EvalCtx {
  const Value* key;
  const Value* record;
  const ValueList* fields;
  ValueArena* arena;
  const Value* elem = nullptr;
  const Value* acc = nullptr;
};

// One evaluator. Eval() returns false to bail out: the caller replays
// the record through the VM, which reproduces whatever the VM's
// behavior (including an error) would have been. `total` marks nodes
// that provably cannot bail for schema-conformant records — only
// those may be skipped by short-circuit evaluation.
class Node {
 public:
  virtual ~Node() = default;
  virtual bool Eval(EvalCtx& ctx, Value* out) const = 0;

  bool total = false;
  // Schema-derived static kind of the result; nullopt when unknown.
  std::optional<ValueKind> kind;
};

class ConstNode final : public Node {
 public:
  explicit ConstNode(Value v) : v_(std::move(v)) {}
  bool Eval(EvalCtx&, Value* out) const override {
    *out = v_;
    return true;
  }

 private:
  Value v_;
};

class KeyNode final : public Node {
 public:
  bool Eval(EvalCtx& ctx, Value* out) const override {
    *out = *ctx.key;
    return true;
  }
};

class RecordNode final : public Node {
 public:
  bool Eval(EvalCtx& ctx, Value* out) const override {
    *out = *ctx.record;
    return true;
  }
};

class ElemNode final : public Node {
 public:
  bool Eval(EvalCtx& ctx, Value* out) const override {
    *out = *ctx.elem;
    return true;
  }
};

class AccNode final : public Node {
 public:
  bool Eval(EvalCtx& ctx, Value* out) const override {
    *out = *ctx.acc;
    return true;
  }
};

// Plain field read of the value record; the kernel's arity gate has
// already proven the slot in bounds and the record a list.
class FieldNode final : public Node {
 public:
  explicit FieldNode(int slot) : slot_(slot) {}
  bool Eval(EvalCtx& ctx, Value* out) const override {
    *out = (*ctx.fields)[slot_];
    return true;
  }
  int slot() const { return slot_; }

 private:
  int slot_;
};

// A field the input layout projected away: the linked VM observes
// null (kGetFieldNull), so the kernel does too.
class NullFieldNode final : public Node {
 public:
  bool Eval(EvalCtx&, Value* out) const override {
    *out = Value();
    return true;
  }
};

// Field access whose base is not the value parameter (nested lists):
// checked at runtime, bails where the VM would raise.
class GenericFieldNode final : public Node {
 public:
  GenericFieldNode(const Node* base, int index)
      : base_(base), index_(index) {}
  bool Eval(EvalCtx& ctx, Value* out) const override {
    Value base;
    if (!base_->Eval(ctx, &base)) return false;
    if (!base.is_list()) return false;
    if (index_ < 0 ||
        static_cast<size_t>(index_) >= base.list().size()) {
      return false;
    }
    *out = base.list()[index_];
    return true;
  }

 private:
  const Node* base_;
  int index_;
};

// ---- comparison fast paths -------------------------------------
//
// One comparator per field type (the "template-instantiated predicate
// evaluator"): the i64 family compares raw integers; the others
// verify the runtime representation and route through Value::Compare
// so NaN and storage-class subtleties keep VM semantics.

struct LtOp {
  static bool I64(int64_t a, int64_t b) { return a < b; }
  static bool FromCmp(int c) { return c < 0; }
};
struct LeOp {
  static bool I64(int64_t a, int64_t b) { return a <= b; }
  static bool FromCmp(int c) { return c <= 0; }
};
struct GtOp {
  static bool I64(int64_t a, int64_t b) { return a > b; }
  static bool FromCmp(int c) { return c > 0; }
};
struct GeOp {
  static bool I64(int64_t a, int64_t b) { return a >= b; }
  static bool FromCmp(int c) { return c >= 0; }
};
struct EqOp {
  static bool I64(int64_t a, int64_t b) { return a == b; }
  static bool FromCmp(int c) { return c == 0; }
};
struct NeOp {
  static bool I64(int64_t a, int64_t b) { return a != b; }
  static bool FromCmp(int c) { return c != 0; }
};

template <typename Op>
class I64FieldCmpNode final : public Node {
 public:
  I64FieldCmpNode(int slot, int64_t rhs) : slot_(slot), rhs_(rhs) {}
  bool Eval(EvalCtx& ctx, Value* out) const override {
    const int64_t* x = (*ctx.fields)[slot_].if_i64();
    if (x == nullptr) return false;  // schema deviation: replay via VM
    *out = Value::Bool(Op::I64(*x, rhs_));
    return true;
  }

 private:
  int slot_;
  int64_t rhs_;
};

template <ValueKind K, typename Op>
class TypedFieldCmpNode final : public Node {
 public:
  TypedFieldCmpNode(int slot, Value rhs)
      : slot_(slot), rhs_(std::move(rhs)) {}
  bool Eval(EvalCtx& ctx, Value* out) const override {
    const Value& f = (*ctx.fields)[slot_];
    if (f.kind() != K) return false;
    *out = Value::Bool(Op::FromCmp(f.Compare(rhs_)));
    return true;
  }

 private:
  int slot_;
  Value rhs_;
};

// An MRIL operator applied through mril::ApplyOp, the VM's own slow
// path, so results agree by construction: the node bails exactly
// where the VM raises. Like the VM's, and/or evaluate both operands
// (no short circuit), so fault behavior is identical too.
class OpNode final : public Node {
 public:
  // `rhs` is null for the unary operators (neg, not).
  OpNode(Opcode op, const Node* lhs, const Node* rhs)
      : op_(op), lhs_(lhs), rhs_(rhs) {}
  bool Eval(EvalCtx& ctx, Value* out) const override {
    Value args[2];
    if (!lhs_->Eval(ctx, &args[0])) return false;
    if (rhs_ != nullptr && !rhs_->Eval(ctx, &args[1])) return false;
    return mril::ApplyOp(op_, args, out, ctx.arena).ok();
  }

 private:
  Opcode op_;
  const Node* lhs_;
  const Node* rhs_;
};

// Direct builtin dispatch — the same function pointer the VM calls,
// so semantics match by construction. Any error status bails.
class CallNode final : public Node {
 public:
  CallNode(const mril::Builtin* builtin, std::vector<const Node*> args)
      : builtin_(builtin), args_(std::move(args)) {}
  bool Eval(EvalCtx& ctx, Value* out) const override {
    Value argv[8];
    std::vector<Value> heap_argv;
    Value* slots = argv;
    if (args_.size() > 8) {
      heap_argv.resize(args_.size());
      slots = heap_argv.data();
    }
    for (size_t i = 0; i < args_.size(); ++i) {
      if (!args_[i]->Eval(ctx, &slots[i])) return false;
    }
    Value result;
    if (!builtin_->fn(slots, &result).ok()) return false;
    *out = std::move(result);
    return true;
  }

 private:
  const mril::Builtin* builtin_;
  std::vector<const Node*> args_;
};

// ---- compiler ---------------------------------------------------

bool IsNumericKind(std::optional<ValueKind> k) {
  return k == ValueKind::kI64 || k == ValueKind::kF64;
}

// Builds nodes for map() expressions, or with `reduce` set for the
// expressions of a reduce fold (codegen/shape.h FoldShape).
class Compiler {
 public:
  Compiler(const mril::Program& program, const CompileOptions& options,
           bool reduce = false)
      : program_(program), options_(options), reduce_(reduce) {}

  Result<const Node*> Build(const ExprRef& expr) {
    if (expr == nullptr) {
      return Status::NotSupported("unrecoverable expression");
    }
    switch (expr->kind) {
      case Expr::Kind::kConst: {
        auto node = std::make_unique<ConstNode>(expr->constant);
        node->total = true;
        node->kind = expr->constant.kind();
        return Own(std::move(node));
      }
      case Expr::Kind::kParam: {
        std::unique_ptr<Node> node;
        if (expr->index == mril::kMapKeyParam) {
          node = std::make_unique<KeyNode>();
          // A reduce key is whatever map() emitted.
          if (!reduce_) node->kind = FieldValueKind(program_.key_type);
        } else if (expr->index == mril::kMapValueParam) {
          node = std::make_unique<RecordNode>();
          node->kind = ValueKind::kList;
        } else if (reduce_ && expr->index == kFoldElemParam) {
          node = std::make_unique<ElemNode>();
        } else if (reduce_ && expr->index == kFoldAccParam) {
          node = std::make_unique<AccNode>();
        } else {
          return Status::NotSupported("unexpected parameter index");
        }
        node->total = true;
        return Own(std::move(node));
      }
      case Expr::Kind::kField:
        return BuildField(expr);
      case Expr::Kind::kOp:
        return BuildOp(expr);
      case Expr::Kind::kCall: {
        if (expr->builtin == nullptr || !expr->builtin->functional) {
          return Status::NotSupported("call to non-functional builtin");
        }
        std::vector<const Node*> args;
        for (const ExprRef& a : expr->args) {
          MANIMAL_ASSIGN_OR_RETURN(const Node* n, Build(a));
          args.push_back(n);
        }
        auto node =
            std::make_unique<CallNode>(expr->builtin, std::move(args));
        node->kind = expr->builtin->result_kind;
        has_calls_ = true;
        return Own(std::move(node));  // never total: builtins may error
      }
      case Expr::Kind::kMember:
        return Status::NotSupported("member-dependent expression");
      case Expr::Kind::kUnknown:
        return Status::NotSupported("unresolved expression");
    }
    return Status::NotSupported("bad expression kind");
  }

  // Builds a selection term, preferring a typed field-vs-constant
  // comparator when the shapes line up.
  Result<const Node*> BuildTerm(const ExprRef& expr) {
    if (expr->kind == Expr::Kind::kOp &&
        mril::IsComparison(expr->op) && expr->args.size() == 2) {
      const ExprRef& l = expr->args[0];
      const ExprRef& r = expr->args[1];
      if (IsPlainField(l) && r->kind == Expr::Kind::kConst) {
        MANIMAL_ASSIGN_OR_RETURN(
            const Node* typed,
            BuildTypedCmp(expr->op, l->index, r->constant));
        if (typed != nullptr) return typed;
      }
    }
    return Build(expr);
  }

  int min_arity() const { return min_arity_; }
  bool has_calls() const { return has_calls_; }
  std::vector<std::unique_ptr<Node>> TakeNodes() {
    return std::move(nodes_);
  }

 private:
  const Node* Own(std::unique_ptr<Node> node) {
    nodes_.push_back(std::move(node));
    return nodes_.back().get();
  }

  static bool IsPlainField(const ExprRef& e) {
    return e->kind == Expr::Kind::kField && e->args.size() == 1 &&
           e->args[0]->kind == Expr::Kind::kParam &&
           e->args[0]->index == mril::kMapValueParam;
  }

  // Resolves an original field index through the layout remap.
  // Returns the runtime slot, -2 for projected-away (null), or an
  // error for an unmappable index (the linked VM raises Internal).
  Result<int> ResolveSlot(int index) {
    if (index < 0 ||
        (!program_.value_schema.opaque() &&
         index >= program_.value_schema.num_fields())) {
      return Status::NotSupported("field index outside schema");
    }
    if (options_.field_remap.empty()) return index;
    if (index >= static_cast<int>(options_.field_remap.size())) {
      return Status::NotSupported("field index outside layout remap");
    }
    if (options_.field_remap[index] < 0) return -2;
    return options_.field_remap[index];
  }

  Result<const Node*> BuildField(const ExprRef& expr) {
    const ExprRef& base = expr->args.at(0);
    if (reduce_ || !(base->kind == Expr::Kind::kParam &&
                     base->index == mril::kMapValueParam)) {
      MANIMAL_ASSIGN_OR_RETURN(const Node* base_node, Build(base));
      auto node =
          std::make_unique<GenericFieldNode>(base_node, expr->index);
      return Own(std::move(node));
    }
    if (program_.value_schema.opaque()) {
      return Status::NotSupported("field access into opaque value");
    }
    MANIMAL_ASSIGN_OR_RETURN(int slot, ResolveSlot(expr->index));
    if (slot == -2) {
      auto node = std::make_unique<NullFieldNode>();
      node->total = true;
      node->kind = ValueKind::kNull;
      return Own(std::move(node));
    }
    min_arity_ = std::max(min_arity_, slot + 1);
    auto node = std::make_unique<FieldNode>(slot);
    node->total = true;  // the arity gate proves the slot in bounds
    node->kind =
        FieldValueKind(program_.value_schema.field(expr->index).type);
    return Own(std::move(node));
  }

  // nullptr (no error) when no typed comparator applies.
  Result<const Node*> BuildTypedCmp(Opcode op, int field_index,
                                    const Value& rhs) {
    if (program_.value_schema.opaque()) return nullptr;
    MANIMAL_ASSIGN_OR_RETURN(int slot, ResolveSlot(field_index));
    if (slot == -2) return nullptr;  // null field: generic path
    const FieldType ft = program_.value_schema.field(field_index).type;
    std::unique_ptr<Node> node;
    if (ft == FieldType::kI64 && rhs.is_i64()) {
      node = MakeI64Cmp(op, slot, rhs.i64());
    } else if (ft == FieldType::kF64 && rhs.is_numeric()) {
      node = MakeTypedCmp<ValueKind::kF64>(op, slot, rhs);
    } else if (ft == FieldType::kStr && rhs.is_str()) {
      node = MakeTypedCmp<ValueKind::kStr>(op, slot, rhs);
    } else if (ft == FieldType::kBool && rhs.is_bool()) {
      node = MakeTypedCmp<ValueKind::kBool>(op, slot, rhs);
    }
    if (node == nullptr) return nullptr;
    min_arity_ = std::max(min_arity_, slot + 1);
    node->total = true;
    node->kind = ValueKind::kBool;
    return Own(std::move(node));
  }

  static std::unique_ptr<Node> MakeI64Cmp(Opcode op, int slot,
                                          int64_t rhs) {
    switch (op) {
      case Opcode::kCmpLt:
        return std::make_unique<I64FieldCmpNode<LtOp>>(slot, rhs);
      case Opcode::kCmpLe:
        return std::make_unique<I64FieldCmpNode<LeOp>>(slot, rhs);
      case Opcode::kCmpGt:
        return std::make_unique<I64FieldCmpNode<GtOp>>(slot, rhs);
      case Opcode::kCmpGe:
        return std::make_unique<I64FieldCmpNode<GeOp>>(slot, rhs);
      case Opcode::kCmpEq:
        return std::make_unique<I64FieldCmpNode<EqOp>>(slot, rhs);
      default:
        return std::make_unique<I64FieldCmpNode<NeOp>>(slot, rhs);
    }
  }

  template <ValueKind K>
  static std::unique_ptr<Node> MakeTypedCmp(Opcode op, int slot,
                                            const Value& rhs) {
    switch (op) {
      case Opcode::kCmpLt:
        return std::make_unique<TypedFieldCmpNode<K, LtOp>>(slot, rhs);
      case Opcode::kCmpLe:
        return std::make_unique<TypedFieldCmpNode<K, LeOp>>(slot, rhs);
      case Opcode::kCmpGt:
        return std::make_unique<TypedFieldCmpNode<K, GtOp>>(slot, rhs);
      case Opcode::kCmpGe:
        return std::make_unique<TypedFieldCmpNode<K, GeOp>>(slot, rhs);
      case Opcode::kCmpEq:
        return std::make_unique<TypedFieldCmpNode<K, EqOp>>(slot, rhs);
      default:
        return std::make_unique<TypedFieldCmpNode<K, NeOp>>(slot, rhs);
    }
  }

  Result<const Node*> BuildOp(const ExprRef& expr) {
    const Opcode op = expr->op;
    const int arity = mril::GetOpcodeInfo(op).pops;
    if (arity < 1 || static_cast<int>(expr->args.size()) != arity) {
      return Status::NotSupported(
          "bad operand count for " +
          std::string(mril::GetOpcodeInfo(op).mnemonic));
    }
    MANIMAL_ASSIGN_OR_RETURN(const Node* lhs, Build(expr->args[0]));
    const Node* rhs = nullptr;
    if (arity == 2) {
      MANIMAL_ASSIGN_OR_RETURN(rhs, Build(expr->args[1]));
    }
    auto node = std::make_unique<OpNode>(op, lhs, rhs);
    const bool args_total = lhs->total && (rhs == nullptr || rhs->total);
    if (mril::IsComparison(op)) {
      node->kind = ValueKind::kBool;
      // Equality works across kinds; ordering needs comparable ones.
      node->total = args_total &&
                    (op == Opcode::kCmpEq || op == Opcode::kCmpNe ||
                     (lhs->kind.has_value() && rhs->kind.has_value() &&
                      mril::OrderedComparable(*lhs->kind, *rhs->kind)));
    } else if (op == Opcode::kAdd || op == Opcode::kSub ||
               op == Opcode::kMul || op == Opcode::kDiv ||
               op == Opcode::kMod) {
      SetArithMeta(op, expr, lhs, rhs, node.get());
    } else if (op == Opcode::kNeg) {
      node->kind = lhs->kind;
      node->total = args_total && IsNumericKind(lhs->kind);
    } else if (op == Opcode::kNot || op == Opcode::kAnd ||
               op == Opcode::kOr) {
      node->kind = ValueKind::kBool;
      node->total = args_total && lhs->kind == ValueKind::kBool &&
                    (rhs == nullptr || rhs->kind == ValueKind::kBool);
    } else {
      return Status::NotSupported(
          "unsupported opcode in expression: " +
          std::string(mril::GetOpcodeInfo(op).mnemonic));
    }
    return Own(std::move(node));
  }

  void SetArithMeta(Opcode op, const ExprRef& expr, const Node* lhs,
                    const Node* rhs, Node* node) {
    const auto lk = lhs->kind;
    const auto rk = rhs->kind;
    const bool args_total = lhs->total && rhs->total;
    if (op == Opcode::kAdd && lk == ValueKind::kStr &&
        rk == ValueKind::kStr) {
      node->kind = ValueKind::kStr;
      node->total = args_total;
      return;
    }
    if (!IsNumericKind(lk) || !IsNumericKind(rk)) return;  // unknown
    const bool both_i64 =
        lk == ValueKind::kI64 && rk == ValueKind::kI64;
    node->kind = both_i64 ? ValueKind::kI64 : ValueKind::kF64;
    switch (op) {
      case Opcode::kAdd:
      case Opcode::kSub:
      case Opcode::kMul:
        node->total = args_total;
        return;
      case Opcode::kDiv:
        // i64 division faults on a zero divisor; f64 never does.
        node->total =
            args_total &&
            (!both_i64 || NonZeroI64Const(expr->args[1]));
        return;
      default:  // kMod: i64-only in the VM
        node->total = args_total && both_i64 &&
                      NonZeroI64Const(expr->args[1]);
        return;
    }
  }

  static bool NonZeroI64Const(const ExprRef& e) {
    return e->kind == Expr::Kind::kConst && e->constant.is_i64() &&
           e->constant.i64() != 0;
  }

  const mril::Program& program_;
  const CompileOptions& options_;
  const bool reduce_;
  std::vector<std::unique_ptr<Node>> nodes_;
  int min_arity_ = 0;
  bool has_calls_ = false;
};

// ---- the assembled kernel ---------------------------------------

struct TermEval {
  const Node* node = nullptr;
  bool polarity = true;
  int slot = -1;  // prepass cache slot; -1 = evaluate lazily (total)
  double selectivity = 0.5;
};

class ClosureKernel final : public NativeKernel {
 public:
  KernelOutcome Run(const Value& key, const Value& record,
                    KernelScratch* scratch, Value* out_key,
                    Value* out_value) const override {
    const ValueList* fields =
        record.is_list() ? &record.list() : nullptr;
    if (min_arity_ > 0 &&
        (fields == nullptr ||
         static_cast<int>(fields->size()) < min_arity_)) {
      return KernelOutcome::kBailout;
    }
    if (has_calls_) mril::InvalidateBorrowedStringMemos();
    scratch->arena.Reset();
    if (static_cast<int>(scratch->slots.size()) < num_slots_) {
      scratch->slots.resize(num_slots_);
    }
    EvalCtx ctx{&key, &record, fields, &scratch->arena};
    // Pre-pass: every non-total expression runs on every record, so
    // the kernel can never skip an expression the VM might fault on.
    for (const auto& [node, slot] : prepass_) {
      if (!node->Eval(ctx, &scratch->slots[slot])) {
        return KernelOutcome::kBailout;
      }
    }
    bool pass = false;
    for (const std::vector<TermEval>& conjunct : disjuncts_) {
      bool all = true;
      for (const TermEval& term : conjunct) {
        Value local;
        const Value* tv;
        if (term.slot >= 0) {
          tv = &scratch->slots[term.slot];
        } else {
          if (!term.node->Eval(ctx, &local)) {
            return KernelOutcome::kBailout;
          }
          tv = &local;
        }
        const bool* b = tv->if_bool();
        if (b == nullptr) return KernelOutcome::kBailout;
        if (*b != term.polarity) {
          all = false;
          break;
        }
      }
      if (all) {
        pass = true;
        break;
      }
    }
    if (!pass) return KernelOutcome::kSkip;
    if (key_slot_ >= 0) {
      *out_key = std::move(scratch->slots[key_slot_]);
    } else if (!key_node_->Eval(ctx, out_key)) {
      return KernelOutcome::kBailout;
    }
    if (value_slot_ >= 0) {
      *out_value = std::move(scratch->slots[value_slot_]);
    } else if (!value_node_->Eval(ctx, out_value)) {
      return KernelOutcome::kBailout;
    }
    return KernelOutcome::kEmit;
  }

  std::string Describe() const override { return describe_; }

  // Filled in by CompileKernel.
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::vector<TermEval>> disjuncts_;
  std::vector<std::pair<const Node*, int>> prepass_;
  const Node* key_node_ = nullptr;
  const Node* value_node_ = nullptr;
  int key_slot_ = -1;
  int value_slot_ = -1;
  int min_arity_ = 0;
  int num_slots_ = 0;
  bool has_calls_ = false;
  std::string describe_;
};

// A reduce fold over one group: acc = init, then acc = op(acc,
// g(elem)) per value in the group's order through mril::ApplyOp, then
// the emit. Any failure bails before anything is emitted, and so does
// a group long enough that the VM could run out of steps.
class FoldKernel final : public NativeKernel {
 public:
  KernelOutcome Run(const Value& key, const Value& values,
                    KernelScratch* scratch, Value* out_key,
                    Value* out_value) const override {
    if (!values.is_list()) return KernelOutcome::kBailout;
    const ValueList& list = values.list();
    if (max_values_ < 0 ||
        list.size() > static_cast<uint64_t>(max_values_)) {
      return KernelOutcome::kBailout;
    }
    // Once per group, as the VM does once per invocation: the arena
    // and the group's borrowed buffers are recycled between groups.
    if (has_calls_) mril::InvalidateBorrowedStringMemos();
    scratch->arena.Reset();
    EvalCtx ctx{&key, &values, nullptr, &scratch->arena};
    Value acc = init_;
    if (g_ != nullptr) {
      Value args[2];
      for (const Value& elem : list) {
        ctx.elem = &elem;
        if (!g_->Eval(ctx, &args[1])) return KernelOutcome::kBailout;
        args[0] = std::move(acc);
        if (!mril::ApplyOp(op_, args, &acc, ctx.arena).ok()) {
          return KernelOutcome::kBailout;
        }
      }
    }
    ctx.acc = &acc;
    if (!key_node_->Eval(ctx, out_key) ||
        !value_node_->Eval(ctx, out_value)) {
      return KernelOutcome::kBailout;
    }
    return KernelOutcome::kEmit;
  }

  std::string Describe() const override { return describe_; }

  // Filled in by CompileReduceKernel.
  std::vector<std::unique_ptr<Node>> nodes_;
  Value init_;
  Opcode op_ = Opcode::kNop;
  const Node* g_ = nullptr;  // null for a loop-free reduce
  const Node* key_node_ = nullptr;
  const Node* value_node_ = nullptr;
  int64_t max_values_ = -1;  // -1: the VM runs out of steps on any group
  bool has_calls_ = false;
  std::string describe_;
};

// Static fallback when the optimizer supplied no statistics: point
// predicates filter hardest, then ranges, then substring probes.
double HeuristicSelectivity(const ExprRef& expr) {
  if (expr->kind == Expr::Kind::kCall) return 0.6;
  if (expr->kind == Expr::Kind::kOp) {
    if (expr->op == Opcode::kCmpEq) return 0.1;
    if (mril::IsComparison(expr->op)) return 0.4;
  }
  return 0.5;
}

}  // namespace

Result<std::shared_ptr<const NativeKernel>> CompileKernel(
    const mril::Program& program, const CompileOptions& options) {
  MANIMAL_ASSIGN_OR_RETURN(const RelationalShape shape,
                           ExtractShape(program));
  Compiler compiler(program, options);
  auto kernel = std::make_shared<ClosureKernel>();
  std::map<std::string, double> selectivity(
      options.term_selectivity.begin(), options.term_selectivity.end());

  int num_slots = 0;
  int total_terms = 0;
  for (const analyzer::Conjunct& c : shape.formula.disjuncts) {
    std::vector<TermEval> terms;
    for (const analyzer::SelectTerm& t : c.terms) {
      MANIMAL_ASSIGN_OR_RETURN(const Node* node,
                               compiler.BuildTerm(t.expr));
      TermEval te;
      te.node = node;
      te.polarity = t.polarity;
      auto it = selectivity.find(t.ToString());
      te.selectivity = it != selectivity.end()
                           ? it->second
                           : HeuristicSelectivity(t.expr);
      if (!node->total) {
        te.slot = num_slots++;
        kernel->prepass_.emplace_back(node, te.slot);
      } else {
        ++total_terms;
      }
      terms.push_back(std::move(te));
    }
    // Most-selective-first short-circuit; only total terms may be
    // skipped, but cached pre-pass terms cost nothing to check so a
    // single ordering covers both.
    std::stable_sort(terms.begin(), terms.end(),
                     [](const TermEval& a, const TermEval& b) {
                       return a.selectivity < b.selectivity;
                     });
    kernel->disjuncts_.push_back(std::move(terms));
  }
  if (shape.emit_pc >= 0) {
    MANIMAL_ASSIGN_OR_RETURN(kernel->key_node_,
                             compiler.Build(shape.key_expr));
    MANIMAL_ASSIGN_OR_RETURN(kernel->value_node_,
                             compiler.Build(shape.value_expr));
    if (!kernel->key_node_->total) {
      kernel->key_slot_ = num_slots++;
      kernel->prepass_.emplace_back(kernel->key_node_,
                                    kernel->key_slot_);
    }
    if (!kernel->value_node_->total) {
      kernel->value_slot_ = num_slots++;
      kernel->prepass_.emplace_back(kernel->value_node_,
                                    kernel->value_slot_);
    }
  }
  kernel->min_arity_ = compiler.min_arity();
  kernel->has_calls_ = compiler.has_calls();
  kernel->num_slots_ = num_slots;
  kernel->nodes_ = compiler.TakeNodes();
  kernel->describe_ = StrPrintf(
      "closure kernel: %s; %d total term(s), %zu pre-pass expr(s), "
      "record arity >= %d",
      shape.Describe().c_str(), total_terms, kernel->prepass_.size(),
      kernel->min_arity_);
  return std::shared_ptr<const NativeKernel>(std::move(kernel));
}

Result<std::shared_ptr<const NativeKernel>> CompileReduceKernel(
    const mril::Program& program, const mril::VmOptions& replay_vm) {
  MANIMAL_ASSIGN_OR_RETURN(const FoldShape shape,
                           ExtractFoldShape(program));
  const CompileOptions no_remap;
  Compiler compiler(program, no_remap, /*reduce=*/true);
  auto kernel = std::make_shared<FoldKernel>();
  kernel->init_ = shape.init;
  kernel->op_ = shape.op;
  if (shape.g != nullptr) {
    MANIMAL_ASSIGN_OR_RETURN(kernel->g_, compiler.Build(shape.g));
  }
  MANIMAL_ASSIGN_OR_RETURN(kernel->key_node_,
                           compiler.Build(shape.key_expr));
  MANIMAL_ASSIGN_OR_RETURN(kernel->value_node_,
                           compiler.Build(shape.value_expr));
  const int64_t budget =
      replay_vm.max_steps_per_invocation - shape.fixed_steps;
  if (budget >= 0) {
    kernel->max_values_ = shape.steps_per_value == 0
                              ? std::numeric_limits<int64_t>::max()
                              : budget / shape.steps_per_value;
  }
  kernel->has_calls_ = compiler.has_calls();
  kernel->nodes_ = compiler.TakeNodes();
  kernel->describe_ = "closure " + shape.Describe();
  return std::shared_ptr<const NativeKernel>(std::move(kernel));
}

}  // namespace manimal::codegen
