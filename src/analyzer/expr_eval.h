// Concrete evaluation of recovered (functional) expressions against an
// input record. The index-generation job uses this to compute the
// B+Tree key for every record, and tests use it to differentially
// validate the selection formula against actual map() behaviour.
//
// Only functional expressions (IsFunctional == true) are evaluatable;
// members/unknowns/impure calls yield errors. Operators apply through
// mril::ApplyOp, the VM's own definition, so evaluation raises exactly
// where the VM raises.

#ifndef MANIMAL_ANALYZER_EXPR_EVAL_H_
#define MANIMAL_ANALYZER_EXPR_EVAL_H_

#include "analyzer/descriptor.h"
#include "common/status.h"
#include "serde/value.h"

namespace manimal::analyzer {

// Evaluates `expr` with map parameters (key, value). `value` is the
// deserialized record (a list value) or opaque blob (a str value).
Result<Value> EvalExpr(const ExprRef& expr, const Value& key,
                       const Value& value);

// Evaluates the whole DNF formula; true iff some disjunct's terms all
// evaluate to their required polarity.
Result<bool> EvalFormula(const DnfFormula& formula, const Value& key,
                         const Value& value);

}  // namespace manimal::analyzer

#endif  // MANIMAL_ANALYZER_EXPR_EVAL_H_
