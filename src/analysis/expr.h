// Symbolic expressions recovered from MRIL bytecode.
//
// An Expr is the analyzer's picture of "where a runtime value comes
// from": a function of map() parameters, record fields, constants,
// member variables, and builtin calls. It is exactly the use-def DAG
// of paper §3.2 (getUseDef), materialized as a tree whose leaves are
// parameters/constants/members and whose internal nodes are the
// operators and calls that combine them. The isFunc test walks it.

#ifndef MANIMAL_ANALYSIS_EXPR_H_
#define MANIMAL_ANALYSIS_EXPR_H_

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "mril/builtins.h"
#include "mril/opcode.h"
#include "serde/value.h"

namespace manimal::analysis {

struct Expr;
using ExprRef = std::shared_ptr<const Expr>;

struct Expr {
  enum class Kind {
    kConst,    // constant-pool value
    kParam,    // map()/reduce() parameter `index`
    kField,    // field `index` of args[0] (a record-typed expr)
    kMember,   // class member variable `index` — taints isFunc
    kOp,       // arithmetic/comparison/logic opcode over args
    kCall,     // builtin call over args
    kUnknown,  // analyzer could not resolve (multiple reaching defs,
               // loop-carried value, unreadable stack shape) — taints
               // isFunc, which is the safe default
  };

  Kind kind = Kind::kUnknown;
  int index = -1;                      // param/field/member index
  Value constant;                      // kConst
  mril::Opcode op = mril::Opcode::kNop;  // kOp
  const mril::Builtin* builtin = nullptr;  // kCall
  std::vector<ExprRef> args;
  // The instruction that produced this value (for use-def chain
  // rendering, Figure 5); -1 for parameters.
  int origin_pc = -1;

  // Structural equality (ignores origin_pc).
  bool Equals(const Expr& other) const;

  // Readable form, e.g. "(v.field[1] > i64:1)". `param_names[i]`,
  // when given, renders parameter i instead of "param<i>".
  std::string ToString(
      std::span<const std::string_view> param_names = {}) const;

  // ---- factories ----
  static ExprRef MakeConst(Value v, int pc);
  static ExprRef MakeParam(int index, int pc);
  static ExprRef MakeField(ExprRef base, int index, int pc);
  static ExprRef MakeMember(int index, int pc);
  static ExprRef MakeOp(mril::Opcode op, std::vector<ExprRef> args, int pc);
  static ExprRef MakeCall(const mril::Builtin* builtin,
                          std::vector<ExprRef> args, int pc);
  static ExprRef MakeUnknown(int pc);
};

// Collects the set of field indexes of the map value parameter
// (param 1) referenced anywhere in the expression — fieldsIn() of the
// Figure 6 projection algorithm. Returns false if the expression
// touches the value parameter in a way that is not a plain field
// access (e.g. passes the whole record or an opaque blob to a call),
// in which case *every* field must be treated as used.
bool CollectUsedFields(const ExprRef& expr, std::vector<bool>* used);

// The field index `i` when `expr` is exactly field `i` of the map
// value parameter (param 1), else -1.
int ValueFieldIndex(const ExprRef& expr);

// isFunc (paper §3.2): true iff the value is a pure function of the
// function's parameters and constants — no member variables, no
// unknown resolutions, no calls to builtins the analyzer lacks purity
// knowledge of. On failure, *reason names the offending node.
bool IsFunctional(const ExprRef& expr, std::string* reason);

}  // namespace manimal::analysis

#endif  // MANIMAL_ANALYSIS_EXPR_H_
