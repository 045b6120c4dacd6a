// Tests for expression simplification and the shifted-comparison
// index-range derivation: exactness of the rewrites (checked by random
// differential evaluation) and the widened class of range-indexable
// selections, including wrap-around adversarial coverage.

#include <gtest/gtest.h>

#include <limits>

#include "analyzer/analyzer.h"
#include "analyzer/expr_eval.h"
#include "analyzer/select.h"
#include "analyzer/simplify.h"
#include "common/random.h"
#include "core/manimal.h"
#include "exec/pairfile.h"
#include "mril/builder.h"
#include "tests/test_util.h"
#include "workloads/datagen.h"
#include "workloads/schemas.h"

namespace manimal::analyzer {
namespace {

using analysis::Expr;
using analysis::ExprRef;
using mril::Opcode;
using mril::ProgramBuilder;
using testing::TempDir;

ExprRef RankField() {
  return Expr::MakeField(Expr::MakeParam(1, 0), 1, 1);
}

ExprRef I64Const(int64_t v) { return Expr::MakeConst(Value::I64(v), 2); }

// ---------------- Simplify unit tests ----------------

TEST(SimplifyTest, FoldsConstantArithmetic) {
  // (3 * 4) + 5 -> 17
  ExprRef e = Expr::MakeOp(
      Opcode::kAdd,
      {Expr::MakeOp(Opcode::kMul, {I64Const(3), I64Const(4)}, 0),
       I64Const(5)},
      1);
  ExprRef s = Simplify(e);
  ASSERT_EQ(s->kind, Expr::Kind::kConst);
  EXPECT_EQ(s->constant.i64(), 17);
}

TEST(SimplifyTest, FoldsFunctionalBuiltins) {
  const mril::Builtin* len =
      mril::BuiltinRegistry::Get().FindByName("str.len");
  ExprRef e = Expr::MakeCall(
      len, {Expr::MakeConst(Value::Str("hello"), 0)}, 1);
  ExprRef s = Simplify(e);
  ASSERT_EQ(s->kind, Expr::Kind::kConst);
  EXPECT_EQ(s->constant.i64(), 5);
}

TEST(SimplifyTest, DoesNotFoldImpureCalls) {
  const mril::Builtin* ht_new =
      mril::BuiltinRegistry::Get().FindByName("ht.new");
  ExprRef e = Expr::MakeCall(ht_new, {}, 0);
  ExprRef s = Simplify(e);
  EXPECT_EQ(s->kind, Expr::Kind::kCall);
}

TEST(SimplifyTest, DivisionByZeroIsLeftToRuntime) {
  ExprRef e =
      Expr::MakeOp(Opcode::kDiv, {I64Const(1), I64Const(0)}, 0);
  ExprRef s = Simplify(e);
  EXPECT_EQ(s->kind, Expr::Kind::kOp);  // not folded, not crashed
}

TEST(SimplifyTest, IncomparableOrderingIsLeftToRuntime) {
  // The VM raises on "a" < 5; folding it to false would hide that.
  ExprRef lt = Simplify(Expr::MakeOp(
      Opcode::kCmpLt, {Expr::MakeConst(Value::Str("a"), 0), I64Const(5)},
      1));
  EXPECT_EQ(lt->kind, Expr::Kind::kOp) << lt->ToString();
  // Equality is total across kinds and still folds.
  ExprRef eq = Simplify(Expr::MakeOp(
      Opcode::kCmpEq, {Expr::MakeConst(Value::Str("a"), 0), I64Const(5)},
      1));
  ASSERT_EQ(eq->kind, Expr::Kind::kConst) << eq->ToString();
  EXPECT_FALSE(eq->constant.bool_value());
}

TEST(SimplifyTest, EliminatesDoubleNegation) {
  ExprRef cmp =
      Expr::MakeOp(Opcode::kCmpGt, {RankField(), I64Const(5)}, 0);
  ExprRef e = Expr::MakeOp(
      Opcode::kNot, {Expr::MakeOp(Opcode::kNot, {cmp}, 1)}, 2);
  ExprRef s = Simplify(e);
  EXPECT_TRUE(s->Equals(*cmp));
}

TEST(SimplifyTest, PushesNotThroughComparison) {
  // not(rank <= 5) -> rank > 5
  ExprRef e = Expr::MakeOp(
      Opcode::kNot,
      {Expr::MakeOp(Opcode::kCmpLe, {RankField(), I64Const(5)}, 0)}, 1);
  ExprRef s = Simplify(e);
  ASSERT_EQ(s->kind, Expr::Kind::kOp);
  EXPECT_EQ(s->op, Opcode::kCmpGt);
}

TEST(SimplifyTest, OrientsConstantRight) {
  // 5 < rank -> rank > 5
  ExprRef e =
      Expr::MakeOp(Opcode::kCmpLt, {I64Const(5), RankField()}, 0);
  ExprRef s = Simplify(e);
  ASSERT_EQ(s->kind, Expr::Kind::kOp);
  EXPECT_EQ(s->op, Opcode::kCmpGt);
  EXPECT_EQ(s->args[1]->kind, Expr::Kind::kConst);
}

TEST(SimplifyTest, LeavesUnknownsAndMembersAlone) {
  ExprRef u = Expr::MakeUnknown(0);
  EXPECT_EQ(Simplify(u).get(), u.get());
  ExprRef m = Expr::MakeMember(0, 0);
  EXPECT_EQ(Simplify(m).get(), m.get());
}

// Property: Simplify never changes evaluation results.
class SimplifyEquivalence : public ::testing::TestWithParam<int> {};

ExprRef RandomExpr(Rng* rng, int depth) {
  if (depth <= 0 || rng->OneIn(3)) {
    switch (rng->Uniform(3)) {
      case 0:
        return I64Const(rng->UniformRange(-100, 100));
      case 1:
        return RankField();
      default:
        return Expr::MakeField(Expr::MakeParam(1, 0),
                               static_cast<int>(rng->Uniform(3)), 1);
    }
  }
  switch (rng->Uniform(5)) {
    case 0:
      return Expr::MakeOp(Opcode::kAdd,
                          {RandomExpr(rng, depth - 1),
                           RandomExpr(rng, depth - 1)},
                          0);
    case 1:
      return Expr::MakeOp(Opcode::kSub,
                          {RandomExpr(rng, depth - 1),
                           RandomExpr(rng, depth - 1)},
                          0);
    case 2:
      return Expr::MakeOp(Opcode::kMul,
                          {RandomExpr(rng, depth - 1),
                           RandomExpr(rng, depth - 1)},
                          0);
    case 3:
      return Expr::MakeOp(Opcode::kCmpGt,
                          {RandomExpr(rng, depth - 1),
                           RandomExpr(rng, depth - 1)},
                          0);
    default:
      return Expr::MakeOp(
          Opcode::kNot,
          {Expr::MakeOp(Opcode::kCmpLe,
                        {RandomExpr(rng, depth - 1),
                         RandomExpr(rng, depth - 1)},
                        0)},
          0);
  }
}

TEST_P(SimplifyEquivalence, EvaluationIsPreserved) {
  Rng rng(500 + GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    ExprRef e = RandomExpr(&rng, 3);
    ExprRef s = Simplify(e);
    Value record = Value::List({Value::I64(rng.UniformRange(-50, 50)),
                                Value::I64(rng.UniformRange(-50, 50)),
                                Value::I64(rng.UniformRange(-50, 50))});
    auto before = EvalExpr(e, Value::I64(0), record);
    auto after = EvalExpr(s, Value::I64(0), record);
    ASSERT_EQ(before.ok(), after.ok());
    if (before.ok()) {
      EXPECT_EQ(before->Compare(*after), 0)
          << e->ToString() << " vs " << s->ToString();
      EXPECT_EQ(before->kind(), after->kind());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplifyEquivalence,
                         ::testing::Range(0, 5));

// ---------------- shifted-comparison indexability ----------------

mril::Program ShiftedSelect(int64_t add, int64_t threshold) {
  ProgramBuilder b("shifted");
  b.SetValueSchema(workloads::WebPagesSchema());
  auto& m = b.Map();
  m.LoadParam(1).GetField("rank").LoadI64(add).Add().LoadI64(threshold)
      .CmpGt().JmpIfFalse("end");
  m.LoadParam(1).GetField("rank");
  m.LoadI64(1);
  m.Emit();
  m.Label("end").Ret();
  return b.Build();
}

TEST(ShiftedIndexTest, RankPlusConstantIsIndexable) {
  // rank + 10 > 50  ->  index on rank, range (40, +inf) plus the wrap
  // fringe near INT64_MAX.
  SelectResult r = FindSelect(ShiftedSelect(10, 50));
  ASSERT_TRUE(r.descriptor.has_value()) << r.miss_reason;
  ASSERT_TRUE(r.descriptor->indexable());
  EXPECT_EQ(r.descriptor->indexed_expr->ToString(), "param1.field[1]");
  ASSERT_GE(r.descriptor->intervals.size(), 1u);
  EXPECT_EQ(r.descriptor->intervals[0].lo->i64(), 40);
  EXPECT_FALSE(r.descriptor->intervals[0].lo_inclusive);
}

TEST(ShiftedIndexTest, WrapFringeIsCovered) {
  // rank + 10 < 50: besides rank < 40, values near INT64_MAX wrap
  // negative and satisfy the original predicate — the scan must
  // include them.
  ProgramBuilder b("wrapping");
  b.SetValueSchema(workloads::WebPagesSchema());
  auto& m = b.Map();
  m.LoadParam(1).GetField("rank").LoadI64(10).Add().LoadI64(50).CmpLt()
      .JmpIfFalse("end");
  m.LoadParam(0).LoadI64(1).Emit();
  m.Label("end").Ret();
  SelectResult r = FindSelect(b.Build());
  ASSERT_TRUE(r.descriptor.has_value());
  ASSERT_TRUE(r.descriptor->indexable());

  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  // A wrapping rank: kMax - 3 + 10 wraps very negative, < 50 holds.
  for (int64_t rank : {int64_t{-100}, int64_t{0}, int64_t{39},
                       kMax - 3, kMax}) {
    bool covered = false;
    for (const KeyInterval& iv : r.descriptor->intervals) {
      covered = covered || iv.Contains(Value::I64(rank));
    }
    EXPECT_TRUE(covered) << rank;
  }
  // And a value that satisfies neither side is excluded.
  bool covered = false;
  for (const KeyInterval& iv : r.descriptor->intervals) {
    covered = covered || iv.Contains(Value::I64(1000));
  }
  EXPECT_FALSE(covered);
}

TEST(ShiftedIndexTest, NonI64BaseIndexesTheWholeExpression) {
  // x is f64, so (x + 10) > 50 must NOT be normalized onto x (f64
  // rounding would make the rewrite inexact). Instead the analyzer
  // safely keys the index on the computed expression itself.
  ProgramBuilder b("f64-shift");
  b.SetValueSchema(Schema({{"x", FieldType::kF64}}));
  auto& m = b.Map();
  m.LoadParam(1).GetFieldIndex(0).LoadI64(10).Add().LoadI64(50).CmpGt()
      .JmpIfFalse("end");
  m.LoadParam(0).LoadI64(1).Emit();
  m.Label("end").Ret();
  SelectResult r = FindSelect(b.Build());
  ASSERT_TRUE(r.descriptor.has_value());
  ASSERT_TRUE(r.descriptor->indexable());
  EXPECT_EQ(r.descriptor->indexed_expr->ToString(),
            "(param1.field[0] add i64:10)");
  ASSERT_EQ(r.descriptor->intervals.size(), 1u);
  EXPECT_EQ(r.descriptor->intervals[0].lo->i64(), 50);
}

TEST(ShiftedIndexTest, ConstantFoldedGuardDetects) {
  // rank > (6 * 7): folding makes it a plain threshold.
  ProgramBuilder b("folded");
  b.SetValueSchema(workloads::WebPagesSchema());
  auto& m = b.Map();
  m.LoadParam(1).GetField("rank");
  m.LoadI64(6).LoadI64(7).Mul();
  m.CmpGt().JmpIfFalse("end");
  m.LoadParam(0).LoadI64(1).Emit();
  m.Label("end").Ret();
  SelectResult r = FindSelect(b.Build());
  ASSERT_TRUE(r.descriptor.has_value());
  ASSERT_TRUE(r.descriptor->indexable());
  EXPECT_EQ(r.descriptor->intervals[0].lo->i64(), 42);
}

// An ordered comparison the VM cannot evaluate raises on every record
// that reaches it, so no range may be derived from it: each ordered
// bound must order with the base's static kind when that is known,
// and with every other ordered bound. Equality is total.
TEST(ShiftedIndexTest, IncomparableOrderedBoundsDeriveNoRange) {
  ProgramBuilder b("bounds");
  b.SetValueSchema(workloads::WebPagesSchema());
  b.Map().Ret();
  const mril::Program program = b.Build();
  auto term = [](Opcode op, ExprRef base, Value bound) {
    return SelectTerm{
        Expr::MakeOp(op, {std::move(base), Expr::MakeConst(bound, 2)}, 3)};
  };
  auto derives = [&](std::vector<SelectTerm> terms) {
    DnfFormula formula;
    formula.disjuncts.push_back(Conjunct{std::move(terms)});
    ExprRef indexed;
    std::vector<KeyInterval> intervals;
    return DeriveIndexRanges(program, formula, &indexed, &intervals);
  };
  // rank is i64.
  EXPECT_FALSE(derives({term(Opcode::kCmpLt, RankField(), Value::Str("a"))}));
  EXPECT_FALSE(derives({term(Opcode::kCmpGe, RankField(), Value::Null())}));
  EXPECT_TRUE(derives({term(Opcode::kCmpLt, RankField(), Value::F64(2.5))}));
  EXPECT_TRUE(derives({term(Opcode::kCmpEq, RankField(), Value::Str("a"))}));
  // url + "x" has no static kind here; its bounds must agree.
  ExprRef url_x = Expr::MakeOp(
      Opcode::kAdd,
      {Expr::MakeField(Expr::MakeParam(1, 0), 0, 1),
       Expr::MakeConst(Value::Str("x"), 2)},
      3);
  EXPECT_FALSE(derives({term(Opcode::kCmpLt, url_x, Value::Str("m")),
                        term(Opcode::kCmpGe, url_x, Value::I64(5))}));
  EXPECT_TRUE(derives({term(Opcode::kCmpLt, url_x, Value::Str("m")),
                       term(Opcode::kCmpGe, url_x, Value::Str("b"))}));
  EXPECT_TRUE(derives({term(Opcode::kCmpLt, url_x, Value::Str("m")),
                       term(Opcode::kCmpNe, url_x, Value::I64(5))}));
}

// End-to-end: a shifted selection through the full system, outputs
// identical and the index actually used.
TEST(ShiftedIndexTest, EndToEndEquivalence) {
  TempDir dir("shifted-e2e");
  workloads::WebPagesOptions gen;
  gen.num_pages = 4000;
  gen.content_len = 64;
  gen.rank_range = 1000;
  ASSERT_OK(
      workloads::GenerateWebPages(dir.file("pages.msq"), gen).status());

  core::ManimalSystem::Options options;
  options.workspace_dir = dir.file("ws");
  options.simulated_startup_seconds = 0;
  ASSERT_OK_AND_ASSIGN(auto system, core::ManimalSystem::Open(options));

  mril::Program program = ShiftedSelect(100, 900);  // rank > 800
  core::ManimalSystem::Submission job;
  job.program = program;
  job.input_path = dir.file("pages.msq");
  job.output_path = dir.file("base.prs");
  ASSERT_OK_AND_ASSIGN(auto baseline, system->RunBaseline(job));

  ASSERT_OK_AND_ASSIGN(auto report, analyzer::Analyze(program));
  auto specs = SynthesizeIndexPrograms(program, report);
  ASSERT_FALSE(specs.empty());
  ASSERT_OK(system->BuildIndex(specs[0], job.input_path).status());

  job.output_path = dir.file("opt.prs");
  ASSERT_OK_AND_ASSIGN(auto outcome, system->Submit(job));
  EXPECT_TRUE(outcome.plan.optimized);
  // ~20% selectivity: the index skips most invocations.
  EXPECT_LT(outcome.job.counters.map_invocations,
            baseline.counters.map_invocations / 2);

  ASSERT_OK_AND_ASSIGN(auto a,
                       exec::ReadCanonicalPairs(dir.file("base.prs")));
  ASSERT_OK_AND_ASSIGN(auto b,
                       exec::ReadCanonicalPairs(dir.file("opt.prs")));
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace manimal::analyzer
