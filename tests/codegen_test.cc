// Native codegen tier unit + equivalence tests (src/codegen/,
// docs/mril.md "Native kernels"): the admission gate must reject
// everything it cannot prove with a readable reason, and an admitted
// kernel must be observationally equivalent to the VM on every record
// — including the awkward ones: null and missing fields, strings on
// the inline-storage boundary, projected-away (remapped) fields,
// always-true/always-false selections, records that fail to decode,
// and records whose evaluation faults (where the kernel must bail out
// and the VM replay must reproduce the error byte-for-byte).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "codegen/kernel.h"
#include "codegen/shape.h"
#include "common/env.h"
#include "common/strings.h"
#include "mril/builder.h"
#include "mril/verifier.h"
#include "mril/vm.h"
#include "serde/value.h"
#include "tests/test_util.h"
#include "workloads/schemas.h"

namespace manimal {
namespace {

using codegen::CompileKernel;
using codegen::CompileOptions;
using codegen::ExtractShape;
using codegen::KernelOutcome;
using codegen::KernelScratch;
using codegen::NativeKernel;
using codegen::RelationalShape;
using mril::FunctionBuilder;
using mril::ProgramBuilder;

// ---------------------------------------------------------------
// Equivalence harness: the kernel with the engine's bailout-replay
// contract applied must match a pure VM run on emits and statuses.

struct Trace {
  std::vector<std::string> emits;
  std::vector<std::string> statuses;
  int bailouts = 0;  // kernel leg only
};

Trace RunVm(const mril::Program& program,
            const std::vector<Value>& records,
            const std::vector<int>& field_remap = {}) {
  Trace trace;
  mril::VmOptions options;
  options.field_remap = field_remap;
  mril::VmInstance vm(&program, options);
  vm.set_emit_sink([&](const Value& k, const Value& v) {
    trace.emits.push_back(k.ToString() + " -> " + v.ToString());
    return Status::OK();
  });
  for (size_t i = 0; i < records.size(); ++i) {
    Status s =
        vm.InvokeMap(Value::I64(static_cast<int64_t>(i)), records[i]);
    trace.statuses.push_back(s.ToString());
  }
  return trace;
}

Trace RunKernel(const mril::Program& program,
                const std::vector<Value>& records,
                const std::shared_ptr<const NativeKernel>& kernel,
                const std::vector<int>& field_remap = {}) {
  Trace trace;
  mril::VmOptions options;
  options.field_remap = field_remap;
  mril::VmInstance vm(&program, options);
  vm.set_emit_sink([&](const Value& k, const Value& v) {
    trace.emits.push_back(k.ToString() + " -> " + v.ToString());
    return Status::OK();
  });
  KernelScratch scratch;
  for (size_t i = 0; i < records.size(); ++i) {
    const Value key = Value::I64(static_cast<int64_t>(i));
    Value out_key, out_value;
    KernelOutcome outcome =
        kernel->Run(key, records[i], &scratch, &out_key, &out_value);
    if (outcome == KernelOutcome::kBailout) {
      ++trace.bailouts;
      trace.statuses.push_back(vm.InvokeMap(key, records[i]).ToString());
      continue;
    }
    if (outcome == KernelOutcome::kEmit) {
      trace.emits.push_back(out_key.ToString() + " -> " +
                            out_value.ToString());
    }
    trace.statuses.push_back(Status::OK().ToString());
  }
  return trace;
}

// Compiles `program` and checks kernel-vs-VM equivalence over
// `records`; returns the kernel trace so callers can additionally
// assert on bailout counts.
Trace ExpectKernelMatchesVm(const mril::Program& program,
                            const std::vector<Value>& records,
                            const std::vector<int>& field_remap = {}) {
  CompileOptions options;
  options.field_remap = field_remap;
  Result<std::shared_ptr<const NativeKernel>> kernel =
      CompileKernel(program, options);
  EXPECT_OK(kernel.status());
  if (!kernel.ok()) return Trace{};
  Trace vm = RunVm(program, records, field_remap);
  Trace native = RunKernel(program, records, *kernel, field_remap);
  EXPECT_EQ(vm.emits, native.emits);
  EXPECT_EQ(vm.statuses, native.statuses);
  return native;
}

// map: if (rank >= threshold) emit(url, rank)
mril::Program SelectProjectProgram(int64_t threshold) {
  ProgramBuilder b("sel-proj");
  b.SetKeyType(FieldType::kStr);
  b.SetValueSchema(workloads::WebPagesSchema());
  FunctionBuilder& m = b.Map();
  m.LoadParam(1).GetField("rank").LoadI64(threshold).CmpGe();
  m.JmpIfFalse("end");
  m.LoadParam(1).GetField("url");
  m.LoadParam(1).GetField("rank");
  m.Emit();
  m.Label("end").Ret();
  return b.Build();
}

Value WebPage(std::string url, int64_t rank, std::string content) {
  return Value::List({Value::Str(std::move(url)), Value::I64(rank),
                      Value::Str(std::move(content))});
}

// ---------------------------------------------------------------
// Admission gate.

TEST(ShapeAdmission, SelectionProjectionIsAdmitted) {
  mril::Program program = SelectProjectProgram(10);
  ASSERT_OK(mril::VerifyProgram(program));
  ASSERT_OK_AND_ASSIGN(RelationalShape shape, ExtractShape(program));
  EXPECT_FALSE(shape.always_emits);
  EXPECT_GE(shape.emit_pc, 0);
  EXPECT_NE(shape.Describe(), "");
}

TEST(ShapeAdmission, SideEffectsAreRejectedWithReadableReason) {
  ProgramBuilder b("logger");
  b.SetKeyType(FieldType::kStr);
  b.SetValueSchema(workloads::WebPagesSchema());
  FunctionBuilder& m = b.Map();
  m.LoadParam(1).GetField("url").Log();
  m.LoadParam(1).GetField("url").LoadI64(1).Emit().Ret();
  mril::Program program = b.Build();
  Result<RelationalShape> shape = ExtractShape(program);
  ASSERT_FALSE(shape.ok());
  EXPECT_EQ(shape.status().code(), StatusCode::kNotSupported);
  EXPECT_NE(shape.status().message().find("log"), std::string::npos)
      << shape.status().ToString();
}

TEST(ShapeAdmission, MemberStateIsRejected) {
  ProgramBuilder b("stateful");
  b.SetKeyType(FieldType::kStr);
  b.SetValueSchema(workloads::WebPagesSchema());
  b.AddMember("seen", Value::I64(0));
  FunctionBuilder& m = b.Map();
  m.LoadMember("seen").LoadI64(1).Add().StoreMember("seen");
  m.LoadParam(1).GetField("url").LoadI64(1).Emit().Ret();
  Result<RelationalShape> shape = ExtractShape(b.Build());
  ASSERT_FALSE(shape.ok());
  EXPECT_EQ(shape.status().code(), StatusCode::kNotSupported);
}

TEST(ShapeAdmission, LoopsAreRejected) {
  ProgramBuilder b("loopy");
  b.SetKeyType(FieldType::kI64);
  b.SetValueSchema(workloads::WebPagesSchema());
  FunctionBuilder& m = b.Map();
  int i = m.NewLocal();
  m.LoadI64(0).StoreLocal(i);
  m.Label("loop");
  m.LoadLocal(i).LoadI64(3).CmpGe().JmpIfTrue("done");
  m.LoadLocal(i).LoadI64(1).Add().StoreLocal(i);
  m.Jmp("loop");
  m.Label("done");
  m.LoadLocal(i).LoadI64(1).Emit().Ret();
  Result<RelationalShape> shape = ExtractShape(b.Build());
  ASSERT_FALSE(shape.ok());
  EXPECT_EQ(shape.status().code(), StatusCode::kNotSupported);
}

TEST(ShapeAdmission, MultipleEmitSitesAreRejected) {
  ProgramBuilder b("two-emits");
  b.SetKeyType(FieldType::kStr);
  b.SetValueSchema(workloads::WebPagesSchema());
  FunctionBuilder& m = b.Map();
  m.LoadParam(1).GetField("rank").LoadI64(5).CmpGe();
  m.JmpIfFalse("other");
  m.LoadParam(1).GetField("url").LoadI64(1).Emit().Ret();
  m.Label("other");
  m.LoadParam(1).GetField("url").LoadI64(2).Emit().Ret();
  Result<RelationalShape> shape = ExtractShape(b.Build());
  ASSERT_FALSE(shape.ok());
  EXPECT_EQ(shape.status().code(), StatusCode::kNotSupported);
}

TEST(ShapeAdmission, OpaqueValueIsRejected) {
  ProgramBuilder b("opaque");
  b.SetKeyType(FieldType::kI64);
  b.SetValueSchema(workloads::WebPagesSchema());
  b.SetOpaqueValue();
  FunctionBuilder& m = b.Map();
  m.LoadParam(0).LoadI64(1).Emit().Ret();
  Result<RelationalShape> shape = ExtractShape(b.Build());
  ASSERT_FALSE(shape.ok());
  EXPECT_EQ(shape.status().code(), StatusCode::kNotSupported);
}

// ---------------------------------------------------------------
// Equivalence edge cases.

TEST(KernelEquivalence, NullFieldsBailAndReplayIdentically) {
  mril::Program program = SelectProjectProgram(10);
  std::vector<Value> records = {
      WebPage("http://a", 50, "x"),
      // Null where the predicate field should be: the typed
      // comparator cannot prove VM behavior, so the kernel must bail
      // and the replay must reproduce whatever the VM does.
      Value::List({Value::Str("http://b"), Value::Null(),
                   Value::Str("y")}),
      // Null in a projected (emitted) field.
      Value::List({Value::Null(), Value::I64(99), Value::Str("z")}),
      WebPage("http://c", 3, "w"),
  };
  Trace native = ExpectKernelMatchesVm(program, records);
  EXPECT_GE(native.bailouts, 1);
}

TEST(KernelEquivalence, MissingFieldsMatchVmErrors) {
  mril::Program program = SelectProjectProgram(10);
  std::vector<Value> records = {
      WebPage("http://a", 50, "x"),
      Value::List({Value::Str("http://short")}),  // no rank field
      Value::List({}),                            // empty record
      WebPage("http://b", 11, "y"),
  };
  ExpectKernelMatchesVm(program, records);
}

TEST(KernelEquivalence, RecordsFailingDecodeMatchVmErrors) {
  mril::Program program = SelectProjectProgram(10);
  // Non-list map values: a record that failed zero-copy decode
  // surfaces to the UDF as whatever the split produced; the kernel
  // must not guess.
  std::vector<Value> records = {
      Value::I64(7),
      Value::Str("not a record at all"),
      Value::Null(),
      WebPage("http://ok", 42, "x"),
  };
  Trace native = ExpectKernelMatchesVm(program, records);
  EXPECT_GE(native.bailouts, 3);
}

TEST(KernelEquivalence, InlineStorageBoundaryStrings) {
  // kInlineStrCap-byte strings are stored inline; one byte longer
  // switches storage class (owned/borrowed). Comparison and emission
  // must be storage-class-blind in both tiers.
  ProgramBuilder b("sso");
  b.SetKeyType(FieldType::kStr);
  b.SetValueSchema(workloads::WebPagesSchema());
  FunctionBuilder& m = b.Map();
  const std::string at_cap(kInlineStrCap, 'u');
  m.LoadParam(1).GetField("url").LoadStr(at_cap).CmpEq();
  m.JmpIfFalse("end");
  m.LoadParam(1).GetField("url");
  m.LoadParam(1).GetField("content");
  m.Emit();
  m.Label("end").Ret();
  mril::Program program = b.Build();

  const std::string over_cap(kInlineStrCap + 1, 'u');
  const std::string under_cap(kInlineStrCap - 1, 'u');
  std::string borrowed_backing = at_cap;  // outlives every Run()
  std::vector<Value> records = {
      Value::List({Value::Str(at_cap), Value::I64(1),
                   Value::Str(std::string(kInlineStrCap, 'c'))}),
      Value::List({Value::Str(over_cap), Value::I64(2),
                   Value::Str(std::string(kInlineStrCap + 1, 'c'))}),
      Value::List({Value::Str(under_cap), Value::I64(3),
                   Value::Str("short")}),
      Value::List({Value::Borrowed(borrowed_backing), Value::I64(4),
                   Value::Borrowed(borrowed_backing)}),
  };
  Trace vm = RunVm(program, records);
  // Exactly the at-cap and borrowed-at-cap records match.
  ASSERT_EQ(vm.emits.size(), 2u);
  ExpectKernelMatchesVm(program, records);
}

TEST(KernelEquivalence, AlwaysTrueSelectionEmitsEveryRecord) {
  // No predicate at all: the canonical always-true shape.
  ProgramBuilder b("always");
  b.SetKeyType(FieldType::kStr);
  b.SetValueSchema(workloads::WebPagesSchema());
  FunctionBuilder& m = b.Map();
  m.LoadParam(1).GetField("url");
  m.LoadParam(1).GetField("rank");
  m.Emit().Ret();
  mril::Program program = b.Build();
  ASSERT_OK_AND_ASSIGN(RelationalShape shape, ExtractShape(program));
  EXPECT_TRUE(shape.always_emits);

  std::vector<Value> records = {WebPage("http://a", 1, "x"),
                                WebPage("http://b", 2, "y")};
  Trace native = ExpectKernelMatchesVm(program, records);
  EXPECT_EQ(native.emits.size(), 2u);
}

TEST(KernelEquivalence, AlwaysFalseSelectionNeverEmits) {
  // The map provably never emits (FALSE formula, no emit site).
  ProgramBuilder b("never");
  b.SetKeyType(FieldType::kI64);
  b.SetValueSchema(workloads::WebPagesSchema());
  b.Map().Ret();
  mril::Program program = b.Build();
  ASSERT_OK_AND_ASSIGN(RelationalShape shape, ExtractShape(program));
  EXPECT_EQ(shape.emit_pc, -1);

  std::vector<Value> records = {WebPage("http://a", 1, "x"),
                                WebPage("http://b", 100, "y")};
  Trace native = ExpectKernelMatchesVm(program, records);
  EXPECT_TRUE(native.emits.empty());
  EXPECT_EQ(native.bailouts, 0);
}

TEST(KernelEquivalence, ContradictorySelectionNeverEmits) {
  // rank < 5 AND rank > 10: term-level always-false — no interval
  // canonicalization may turn this into an emit.
  ProgramBuilder b("contradiction");
  b.SetKeyType(FieldType::kI64);
  b.SetValueSchema(workloads::WebPagesSchema());
  FunctionBuilder& m = b.Map();
  m.LoadParam(1).GetField("rank").LoadI64(5).CmpLt().JmpIfFalse("end");
  m.LoadParam(1).GetField("rank").LoadI64(10).CmpGt().JmpIfFalse("end");
  m.LoadParam(1).GetField("rank").LoadI64(1).Emit();
  m.Label("end").Ret();
  mril::Program program = b.Build();

  std::vector<Value> records;
  for (int64_t r = 0; r < 20; ++r) {
    records.push_back(WebPage(StrPrintf("http://%d", int(r)), r, "c"));
  }
  Trace native = ExpectKernelMatchesVm(program, records);
  EXPECT_TRUE(native.emits.empty());
}

TEST(KernelEquivalence, EmptyProjectionViaRemappedFields) {
  // Column-group plans hand the kernel a field remap. A projected-away
  // field reads as null at runtime (the linked VM's kGetFieldNull);
  // the kernel must observe the same null, not the original value.
  ProgramBuilder b("remapped");
  b.SetKeyType(FieldType::kI64);
  b.SetValueSchema(workloads::WebPagesSchema());
  FunctionBuilder& m = b.Map();
  m.LoadParam(1).GetField("rank").LoadI64(10).CmpGe().JmpIfFalse("end");
  m.LoadParam(1).GetField("rank");
  m.LoadParam(1).GetField("url");  // projected away below
  m.Emit();
  m.Label("end").Ret();
  mril::Program program = b.Build();

  // Runtime records carry only [rank]; url and content were dropped.
  const std::vector<int> remap = {-1, 0, -1};
  std::vector<Value> records = {
      Value::List({Value::I64(50)}),
      Value::List({Value::I64(3)}),
      Value::List({Value::I64(10)}),
  };
  Trace native = ExpectKernelMatchesVm(program, records, remap);
  EXPECT_EQ(native.emits.size(), 2u);
  // The projected-away operand really surfaced as null.
  EXPECT_NE(native.emits[0].find("null"), std::string::npos)
      << native.emits[0];
}

TEST(KernelEquivalence, FaultingArithmeticBailsToVmError) {
  // key = rank % rank: faults exactly when rank == 0. The term is
  // non-total, so the kernel evaluates it up front on every record
  // and must bail (never emit, never swallow) where the VM errors.
  ProgramBuilder b("modzero");
  b.SetKeyType(FieldType::kI64);
  b.SetValueSchema(workloads::WebPagesSchema());
  FunctionBuilder& m = b.Map();
  m.LoadParam(1).GetField("rank");
  m.LoadParam(1).GetField("rank");
  m.Mod();
  m.LoadI64(1).Emit().Ret();
  mril::Program program = b.Build();

  std::vector<Value> records = {
      WebPage("http://a", 7, "x"),
      WebPage("http://b", 0, "boom"),
      WebPage("http://c", 3, "y"),
  };
  Trace native = ExpectKernelMatchesVm(program, records);
  EXPECT_GE(native.bailouts, 1);
  // The VM error really surfaced through the replay.
  bool saw_error = false;
  for (const std::string& s : native.statuses) {
    if (s.find("OK") == std::string::npos) saw_error = true;
  }
  EXPECT_TRUE(saw_error);
}

TEST(KernelEquivalence, SelectivityOrderingDoesNotChangeResults) {
  // Two total terms with explicit selectivity hints, swapped between
  // compiles: short-circuit order is an optimization, never a
  // semantics change.
  ProgramBuilder b("ordered");
  b.SetKeyType(FieldType::kI64);
  b.SetValueSchema(workloads::WebPagesSchema());
  FunctionBuilder& m = b.Map();
  m.LoadParam(1).GetField("rank").LoadI64(10).CmpGe().JmpIfFalse("end");
  m.LoadParam(1).GetField("rank").LoadI64(90).CmpLt().JmpIfFalse("end");
  m.LoadParam(1).GetField("rank").LoadI64(1).Emit();
  m.Label("end").Ret();
  mril::Program program = b.Build();
  ASSERT_OK_AND_ASSIGN(RelationalShape shape, ExtractShape(program));
  ASSERT_EQ(shape.formula.disjuncts.size(), 1u);
  ASSERT_EQ(shape.formula.disjuncts[0].terms.size(), 2u);
  const std::string t0 = shape.formula.disjuncts[0].terms[0].ToString();
  const std::string t1 = shape.formula.disjuncts[0].terms[1].ToString();

  std::vector<Value> records;
  for (int64_t r = 0; r < 100; r += 7) {
    records.push_back(WebPage(StrPrintf("http://%d", int(r)), r, "c"));
  }
  Trace vm = RunVm(program, records);
  for (bool swap : {false, true}) {
    CompileOptions options;
    options.term_selectivity = {{t0, swap ? 0.9 : 0.1},
                                {t1, swap ? 0.1 : 0.9}};
    ASSERT_OK_AND_ASSIGN(std::shared_ptr<const NativeKernel> kernel,
                         CompileKernel(program, options));
    Trace native = RunKernel(program, records, kernel);
    EXPECT_EQ(vm.emits, native.emits);
    EXPECT_EQ(vm.statuses, native.statuses);
    EXPECT_EQ(native.bailouts, 0);
  }
}

}  // namespace
}  // namespace manimal
