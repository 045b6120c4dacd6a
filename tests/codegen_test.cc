// Native codegen tier unit + equivalence tests (src/codegen/,
// docs/mril.md "Native kernels"): the admission gate must reject
// everything it cannot prove with a readable reason, and an admitted
// kernel must be observationally equivalent to the VM on every record
// — including the awkward ones: null and missing fields, strings on
// the inline-storage boundary, projected-away (remapped) fields,
// always-true/always-false selections, records that fail to decode,
// and records whose evaluation faults (where the kernel must bail out
// and the VM replay must reproduce the error byte-for-byte). The
// reduce folds get the same treatment per group: admission of every
// workload reduce, refusals with reasons, and a grid of value lists
// (empty, overflow, mixed kinds, NaN/inf, strings, short tuples, step
// budgets, reused string buffers) where the fold with whole-group
// replay must match the VM.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "codegen/kernel.h"
#include "codegen/shape.h"
#include "common/env.h"
#include "common/strings.h"
#include "mril/assembler.h"
#include "mril/builder.h"
#include "mril/verifier.h"
#include "mril/vm.h"
#include "serde/record_codec.h"
#include "serde/value.h"
#include "tests/mril_gen.h"
#include "tests/test_util.h"
#include "workloads/pavlo.h"
#include "workloads/schemas.h"

#ifndef MANIMAL_TEST_CORPUS_DIR
#define MANIMAL_TEST_CORPUS_DIR "tests/corpus"
#endif
#ifndef MANIMAL_EXAMPLE_PROGRAMS_DIR
#define MANIMAL_EXAMPLE_PROGRAMS_DIR "examples/programs"
#endif

namespace manimal {
namespace {

using codegen::CompileKernel;
using codegen::CompileOptions;
using codegen::CompileReduceKernel;
using codegen::ExtractFoldShape;
using codegen::ExtractShape;
using codegen::FoldShape;
using codegen::KernelOutcome;
using codegen::KernelScratch;
using codegen::NativeKernel;
using codegen::RelationalShape;
using mril::FunctionBuilder;
using mril::Opcode;
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

// ---------------------------------------------------------------
// Reduce folds: the kernel with the engine's whole-group replay must
// match a pure VM run on every group's emits and status.

using Group = std::pair<Value, Value>;  // key, values list

// "key -> value" plus the pair's exact encoding, so f64 results that
// print alike but differ in bits still disagree.
std::string EncodedPair(const Value& k, const Value& v) {
  std::string bytes;
  EXPECT_OK(EncodeValue(k, &bytes));
  EXPECT_OK(EncodeValue(v, &bytes));
  std::string hex;
  for (unsigned char c : bytes) hex += StrPrintf("%02x", c);
  return k.ToString() + " -> " + v.ToString() + " #" + hex;
}

Trace RunReduceVm(const mril::Program& program,
                  const std::vector<Group>& groups,
                  const mril::VmOptions& options = {}) {
  Trace trace;
  mril::VmInstance vm(&program, options);
  vm.set_emit_sink([&](const Value& k, const Value& v) {
    trace.emits.push_back(EncodedPair(k, v));
    return Status::OK();
  });
  for (const auto& [key, values] : groups) {
    trace.statuses.push_back(vm.InvokeReduce(key, values).ToString());
  }
  return trace;
}

Trace RunReduceKernel(const mril::Program& program,
                      const std::vector<Group>& groups,
                      const NativeKernel& kernel,
                      const mril::VmOptions& options = {}) {
  Trace trace;
  mril::VmInstance vm(&program, options);
  vm.set_emit_sink([&](const Value& k, const Value& v) {
    trace.emits.push_back(EncodedPair(k, v));
    return Status::OK();
  });
  KernelScratch scratch;
  for (const auto& [key, values] : groups) {
    Value out_key, out_value;
    if (kernel.Run(key, values, &scratch, &out_key, &out_value) ==
        KernelOutcome::kEmit) {
      trace.emits.push_back(EncodedPair(out_key, out_value));
      trace.statuses.push_back(Status::OK().ToString());
      continue;
    }
    ++trace.bailouts;
    trace.statuses.push_back(vm.InvokeReduce(key, values).ToString());
  }
  return trace;
}

Trace ExpectFoldMatchesVm(const mril::Program& program,
                          const std::vector<Group>& groups,
                          const mril::VmOptions& options = {}) {
  Result<std::shared_ptr<const NativeKernel>> kernel =
      CompileReduceKernel(program, options);
  EXPECT_OK(kernel.status());
  if (!kernel.ok()) return Trace{};
  SCOPED_TRACE((*kernel)->Describe());
  Trace vm = RunReduceVm(program, groups, options);
  Trace native = RunReduceKernel(program, groups, **kernel, options);
  EXPECT_EQ(vm.emits, native.emits);
  EXPECT_EQ(vm.statuses, native.statuses);
  return native;
}

// A WebPages job whose reduce `reduce` builds.
mril::Program WithReduce(
    const std::function<void(FunctionBuilder&)>& reduce) {
  ProgramBuilder b("fold");
  b.SetKeyType(FieldType::kI64);
  b.SetValueSchema(workloads::WebPagesSchema());
  b.Map().LoadParam(1).GetField("url").LoadParam(1).GetField("rank");
  b.Map().Emit().Ret();
  reduce(b.Reduce());
  return b.Build();
}

// The counted loop of workloads/pavlo.cc around `update`, which runs
// once per value with the loop counter in local `i`.
void CountedLoop(FunctionBuilder& r, int i, int n,
                 const std::function<void()>& update) {
  r.LoadI64(0).StoreLocal(i);
  r.LoadParam(1).Call("list.len").StoreLocal(n);
  r.Label("loop");
  r.LoadLocal(i).LoadLocal(n).CmpGe().JmpIfTrue("done");
  update();
  r.LoadLocal(i).LoadI64(1).Add().StoreLocal(i);
  r.Jmp("loop");
  r.Label("done");
}

// reduce: acc = init; per value: acc = acc <op> g(value);
// emit(key, acc), for op one of add sub mul div mod and. `g` maps the
// value on top of the stack (identity when empty).
mril::Program FoldProgram(
    const Value& init, mril::Opcode op,
    const std::function<void(FunctionBuilder&)>& g = {}) {
  return WithReduce([&](FunctionBuilder& r) {
    const int i = r.NewLocal(), n = r.NewLocal(), acc = r.NewLocal();
    r.LoadConst(init).StoreLocal(acc);
    CountedLoop(r, i, n, [&] {
      r.LoadLocal(acc).LoadParam(1).LoadLocal(i).Call("list.get");
      if (g) g(r);
      switch (op) {
        case Opcode::kAdd: r.Add(); break;
        case Opcode::kSub: r.Sub(); break;
        case Opcode::kMul: r.Mul(); break;
        case Opcode::kDiv: r.Div(); break;
        case Opcode::kMod: r.Mod(); break;
        default: r.And(); break;
      }
      r.StoreLocal(acc);
    });
    r.LoadParam(0).LoadLocal(acc).Emit().Ret();
  });
}

mril::Program AssembleFile(const std::string& path) {
  Result<std::string> text = ReadFileToString(path);
  EXPECT_OK(text.status());
  Result<mril::Program> program =
      mril::AssembleProgram(text.ok() ? *text : "");
  EXPECT_OK(program.status());
  return program.ok() ? *program : mril::Program{};
}

TEST(FoldAdmission, EveryWorkloadReduceIsAdmitted) {
  std::vector<std::pair<std::string, mril::Program>> programs = {
      {"B2", workloads::Benchmark2Aggregation()},
      {"B3", workloads::Benchmark3Join(0, 100)},
      {"B4", workloads::Benchmark4UdfAggregation()},
      {"SelectionCountQuery", workloads::SelectionCountQuery(50)},
      {"DurationSumQuery", workloads::DurationSumQuery()},
      {"DirectOpQuery", workloads::DirectOpQuery()},
      {"revenue_by_country",
       AssembleFile(std::string(MANIMAL_EXAMPLE_PROGRAMS_DIR) +
                    "/revenue_by_country.mril")},
      {"sum_rank", AssembleFile(std::string(MANIMAL_TEST_CORPUS_DIR) +
                                "/sum_rank.mril")},
      {"count_by_mod", AssembleFile(std::string(MANIMAL_TEST_CORPUS_DIR) +
                                    "/count_by_mod.mril")},
  };
  // mril_gen's two reduce kinds, from the first seeds that draw them.
  for (const char* kind : {" reduce:count", " reduce:sum"}) {
    uint64_t seed = 1;
    testing::GeneratedProgram gen =
        testing::GenerateWebPagesProgram(seed, 1000);
    while (gen.description.find(kind) == std::string::npos && seed < 200) {
      gen = testing::GenerateWebPagesProgram(++seed, 1000);
    }
    ASSERT_NE(gen.description.find(kind), std::string::npos);
    programs.emplace_back(std::string("mril_gen") + kind, gen.program);
  }

  for (const auto& [name, program] : programs) {
    SCOPED_TRACE(name);
    ASSERT_OK(mril::VerifyProgram(program));
    ASSERT_OK(ExtractFoldShape(program).status());
    ASSERT_OK(CompileReduceKernel(program, mril::VmOptions{}).status());
  }
  ASSERT_OK_AND_ASSIGN(FoldShape b2,
                       ExtractFoldShape(workloads::Benchmark2Aggregation()));
  EXPECT_EQ(b2.Describe(),
            "fold acc = i64:0; per value acc = (acc add elem); "
            "emit(key, acc)");
  ASSERT_OK_AND_ASSIGN(FoldShape b3,
                       ExtractFoldShape(workloads::Benchmark3Join(0, 1)));
  EXPECT_EQ(b3.Describe(),
            "fold acc = i64:0; per value acc = (acc add "
            "list.get(elem, i64:3)); emit(key, acc)");
  ASSERT_OK_AND_ASSIGN(FoldShape direct,
                       ExtractFoldShape(workloads::DirectOpQuery()));
  EXPECT_EQ(direct.Describe(),
            "fold acc = i64:0; per value acc = (acc add elem); "
            "emit(acc, i64:1)");
  ASSERT_OK_AND_ASSIGN(
      FoldShape count,
      ExtractFoldShape(AssembleFile(std::string(MANIMAL_TEST_CORPUS_DIR) +
                                    "/count_by_mod.mril")));
  EXPECT_EQ(count.Describe(), "fold: emit(key, list.len(values))");
  EXPECT_EQ(count.steps_per_value, 0);
  // B2 takes 15 + 15n unlinked instructions, the VM 14 + 14n linked
  // steps (cmp_ge + jmp_if_true fuse).
  EXPECT_EQ(b2.fixed_steps, 15);
  EXPECT_EQ(b2.steps_per_value, 15);
}

TEST(FoldAdmission, RefusedShapesNameTheirReason) {
  struct Case {
    const char* name;
    mril::Program program;
    const char* reason;
  };
  auto sum_then = [](const std::function<void(FunctionBuilder&, int)>&
                         tail) {
    return WithReduce([&](FunctionBuilder& r) {
      const int i = r.NewLocal(), n = r.NewLocal(), acc = r.NewLocal();
      r.LoadI64(0).StoreLocal(acc);
      CountedLoop(r, i, n, [&] {
        r.LoadLocal(acc).LoadParam(1).LoadLocal(i).Call("list.get").Add();
        r.StoreLocal(acc);
      });
      tail(r, acc);
    });
  };
  std::vector<Case> cases;
  cases.push_back({"map only", SelectProjectProgram(1), "no reduce()"});
  cases.push_back(
      {"log", sum_then([](FunctionBuilder& r, int acc) {
         r.LoadLocal(acc).Log();
         r.LoadParam(0).LoadLocal(acc).Emit().Ret();
       }),
       "log at pc"});
  {
    ProgramBuilder b("member");
    b.SetValueSchema(workloads::WebPagesSchema());
    b.AddMember("seen", Value::I64(0));
    b.Map().LoadParam(1).GetField("url").LoadI64(1).Emit().Ret();
    b.Reduce().LoadParam(0).LoadMember("seen").Emit().Ret();
    cases.push_back({"member access", b.Build(), "member access at pc"});
  }
  cases.push_back(
      {"key test", sum_then([](FunctionBuilder& r, int acc) {
         r.LoadParam(0).LoadI64(5).CmpGt().JmpIfFalse("end");
         r.LoadParam(0).LoadLocal(acc).Emit();
         r.Label("end").Ret();
       }),
       "a key test or an early exit"});
  cases.push_back(
      {"early exit", WithReduce([](FunctionBuilder& r) {
         r.LoadParam(1).Call("list.len").LoadI64(1).CmpGe();
         r.JmpIfFalse("go").Ret();
         r.Label("go").LoadParam(0).LoadI64(1).Emit().Ret();
       }),
       "a key test or an early exit"});
  cases.push_back(
      {"emit in loop", WithReduce([](FunctionBuilder& r) {
         const int i = r.NewLocal(), n = r.NewLocal(), acc = r.NewLocal();
         r.LoadI64(0).StoreLocal(acc);
         CountedLoop(r, i, n, [&] {
           r.LoadLocal(acc).LoadI64(1).Add().StoreLocal(acc);
           r.LoadParam(0).LoadLocal(acc).Emit();
         });
         r.Ret();
       }),
       "emit inside the loop"});
  cases.push_back(
      {"second accumulator", WithReduce([](FunctionBuilder& r) {
         const int i = r.NewLocal(), n = r.NewLocal(), acc = r.NewLocal(),
                   cnt = r.NewLocal();
         r.LoadI64(0).StoreLocal(acc).LoadI64(0).StoreLocal(cnt);
         CountedLoop(r, i, n, [&] {
           r.LoadLocal(acc).LoadParam(1).LoadLocal(i).Call("list.get");
           r.Add().StoreLocal(acc);
           r.LoadLocal(cnt).LoadI64(1).Add().StoreLocal(cnt);
         });
         r.LoadLocal(acc).LoadLocal(cnt).Emit().Ret();
       }),
       "second accumulator"});
  cases.push_back(
      {"nested loop", WithReduce([](FunctionBuilder& r) {
         const int i = r.NewLocal(), n = r.NewLocal(), j = r.NewLocal(),
                   acc = r.NewLocal();
         r.LoadI64(0).StoreLocal(acc);
         CountedLoop(r, i, n, [&] {
           r.LoadI64(0).StoreLocal(j);
           r.Label("inner");
           r.LoadLocal(j).LoadI64(2).CmpGe().JmpIfTrue("inner_done");
           r.LoadLocal(acc).LoadI64(1).Add().StoreLocal(acc);
           r.LoadLocal(j).LoadI64(1).Add().StoreLocal(j);
           r.Jmp("inner");
           r.Label("inner_done");
         });
         r.LoadParam(0).LoadLocal(acc).Emit().Ret();
       }),
       "more than one loop"});
  cases.push_back(
      {"key-valued init", WithReduce([](FunctionBuilder& r) {
         const int i = r.NewLocal(), n = r.NewLocal(), acc = r.NewLocal();
         r.LoadParam(0).StoreLocal(acc);
         CountedLoop(r, i, n, [&] {
           r.LoadLocal(acc).LoadParam(1).LoadLocal(i).Call("list.get");
           r.Add().StoreLocal(acc);
         });
         r.LoadParam(0).LoadLocal(acc).Emit().Ret();
       }),
       "accumulator init is not a constant"});
  cases.push_back(
      {"counter in g", WithReduce([](FunctionBuilder& r) {
         const int i = r.NewLocal(), n = r.NewLocal(), acc = r.NewLocal();
         r.LoadI64(0).StoreLocal(acc);
         CountedLoop(r, i, n, [&] {
           r.LoadLocal(acc).LoadLocal(i).Add().StoreLocal(acc);
         });
         r.LoadParam(0).LoadLocal(acc).Emit().Ret();
       }),
       "accumulator update reads a loop-carried local"});
  cases.push_back(
      {"acc on the right", WithReduce([](FunctionBuilder& r) {
         const int i = r.NewLocal(), n = r.NewLocal(), acc = r.NewLocal();
         r.LoadI64(0).StoreLocal(acc);
         CountedLoop(r, i, n, [&] {
           r.LoadParam(1).LoadLocal(i).Call("list.get").LoadLocal(acc);
           r.Sub().StoreLocal(acc);
         });
         r.LoadParam(0).LoadLocal(acc).Emit().Ret();
       }),
       "accumulator update is not acc = op(acc, g(elem))"});
  cases.push_back(
      {"values emitted", WithReduce([](FunctionBuilder& r) {
         r.LoadParam(0).LoadParam(1).Emit().Ret();
       }),
       "emit reads the values list"});
  cases.push_back(
      {"dead division", sum_then([](FunctionBuilder& r, int acc) {
         r.LoadParam(0).LoadI64(0).Div().Pop();
         r.LoadParam(0).LoadLocal(acc).Emit().Ret();
       }),
       "(div) is not covered by the fold"});
  cases.push_back(
      {"two emits", WithReduce([](FunctionBuilder& r) {
         r.LoadParam(0).LoadI64(1).Emit();
         r.LoadParam(0).LoadI64(2).Emit().Ret();
       }),
       "multiple emit sites"});

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    ASSERT_OK(mril::VerifyProgram(c.program));
    Result<FoldShape> shape = ExtractFoldShape(c.program);
    ASSERT_FALSE(shape.ok()) << shape->Describe();
    EXPECT_EQ(shape.status().code(), StatusCode::kNotSupported);
    EXPECT_NE(shape.status().message().find(c.reason), std::string::npos)
        << shape.status().message();
    EXPECT_FALSE(
        CompileReduceKernel(c.program, mril::VmOptions{}).ok());
  }
}

// Every admitted fold against the VM over value lists chosen for the
// places a fold could drift: an empty list, one value, i64 wrap,
// i64/f64 promotion mid-fold, NaN and infinities, non-numeric
// elements, null, and a non-numeric init.
TEST(FoldEquivalence, GridMatchesVmIncludingErrors) {
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  const int64_t kMin = std::numeric_limits<int64_t>::min();
  const std::string long_str(30, 's');
  auto list = [](std::vector<Value> items) {
    return Value::List(ValueList(std::move(items)));
  };
  const std::vector<Value> value_lists = {
      list({}),
      list({Value::I64(5)}),
      list({Value::I64(kMax), Value::I64(1)}),
      list({Value::I64(kMin), Value::I64(-1)}),
      list({Value::I64(1), Value::F64(2.5), Value::I64(3)}),
      list({Value::F64(0.1), Value::F64(0.2), Value::F64(0.3)}),
      list({Value::F64(kNan), Value::I64(1)}),
      list({Value::F64(kInf), Value::F64(-kInf)}),
      list({Value::F64(-kInf), Value::I64(2)}),
      list({Value::I64(0), Value::I64(7)}),
      list({Value::I64(1), Value::Str("a")}),
      list({Value::Str(long_str), Value::Str("b")}),
      list({Value::Null()}),
      list({Value::Bool(true), Value::Bool(false)}),
  };
  std::vector<std::pair<std::string, mril::Program>> programs = {
      {"B2 sum", workloads::Benchmark2Aggregation()},
      {"count", WithReduce([](FunctionBuilder& r) {
         r.LoadParam(0).LoadParam(1).Call("list.len").Emit().Ret();
       })},
      {"str init", FoldProgram(Value::Str("x"), Opcode::kAdd)},
      {"null init", FoldProgram(Value::Null(), Opcode::kAdd)},
      {"f64 product", FoldProgram(Value::F64(1.0), Opcode::kMul)},
      {"i64 division", FoldProgram(Value::I64(1000), Opcode::kDiv)},
      {"i64 modulo", FoldProgram(Value::I64(1000), Opcode::kMod)},
      {"negated difference",
       FoldProgram(Value::I64(0), Opcode::kSub,
                   [](FunctionBuilder& r) { r.Neg(); })},
      {"all positive",
       FoldProgram(Value::Bool(true), Opcode::kAnd,
                   [](FunctionBuilder& r) { r.LoadI64(0).CmpGt(); })},
  };
  for (const auto& [name, program] : programs) {
    SCOPED_TRACE(name);
    std::vector<Group> groups;
    for (size_t i = 0; i < value_lists.size(); ++i) {
      groups.emplace_back(Value::I64(static_cast<int64_t>(i)),
                          value_lists[i]);
    }
    Trace native = ExpectFoldMatchesVm(program, groups);
    EXPECT_LT(native.bailouts, static_cast<int>(groups.size()))
        << "the kernel never folded a group";
  }
}

// B3's g is list.get(elem, 3): a joined tuple too short to have field
// 3, or not a list at all, raises in the VM; the kernel must bail on
// that group and the replay raise the same error.
TEST(FoldEquivalence, ShortTupleInB3RaisesLikeTheVm) {
  auto visit = [](Value revenue) {
    ValueList fields(9, Value::I64(0));
    fields[1] = Value::Str("http://dest");
    fields[3] = std::move(revenue);
    return Value::List(std::move(fields));
  };
  std::vector<Group> groups = {
      {Value::Str("u1"), Value::List({visit(Value::I64(4)),
                                      visit(Value::I64(6))})},
      {Value::Str("u2"), Value::List({visit(Value::F64(0.5))})},
      {Value::Str("u3"), Value::List({visit(Value::I64(1)),
                                      Value::List({Value::I64(1),
                                                   Value::I64(2)})})},
      {Value::Str("u4"), Value::List({Value::I64(9)})},
      {Value::Str("u5"), Value::List({})},
  };
  Trace native =
      ExpectFoldMatchesVm(workloads::Benchmark3Join(0, 1), groups);
  EXPECT_EQ(native.bailouts, 2);
  EXPECT_NE(native.statuses[2].find("out of range"), std::string::npos)
      << native.statuses[2];
}

// With one small step budget on both sides, the kernel must bail on
// every group the VM cannot finish, so the replay raises "exceeded".
TEST(FoldEquivalence, KernelBailsWhereTheVmRunsOutOfSteps) {
  const mril::Program sum = workloads::Benchmark2Aggregation();
  const mril::Program count = WithReduce([](FunctionBuilder& r) {
    r.LoadParam(0).LoadParam(1).Call("list.len").Emit().Ret();
  });
  std::vector<Group> groups;
  for (int n = 0; n <= 12; ++n) {
    groups.emplace_back(Value::I64(n),
                        Value::List(ValueList(n, Value::I64(n))));
  }
  int exceeded = 0;
  for (int64_t max_steps : {3, 5, 14, 42, 100, 168}) {
    mril::VmOptions options;
    options.max_steps_per_invocation = max_steps;
    for (const mril::Program* program : {&sum, &count}) {
      SCOPED_TRACE(StrPrintf("max_steps %lld, %s",
                             static_cast<long long>(max_steps),
                             program == &sum ? "sum" : "count"));
      Trace vm = RunReduceVm(*program, groups, options);
      ASSERT_OK_AND_ASSIGN(std::shared_ptr<const NativeKernel> kernel,
                           CompileReduceKernel(*program, options));
      KernelScratch scratch;
      for (size_t g = 0; g < groups.size(); ++g) {
        if (vm.statuses[g].find("exceeded") == std::string::npos) continue;
        ++exceeded;
        Value k, v;
        EXPECT_EQ(kernel->Run(groups[g].first, groups[g].second, &scratch,
                              &k, &v),
                  KernelOutcome::kBailout)
            << "group of " << g << " values";
      }
      ExpectFoldMatchesVm(*program, groups, options);
    }
  }
  EXPECT_GT(exceeded, 0) << "no budget was small enough to matter";
}

// g = str.word_at(elem, list.len(values)). The word_at memo is keyed
// on a borrowed string's address and length; the groups below reuse
// one buffer, so the fold must invalidate the memo once per group as
// the VM does once per invocation, or the second group resumes the
// first group's scan inside different text.
TEST(FoldEquivalence, WordAtOverReusedGroupBuffersMatchesVm) {
  const mril::Program program = FoldProgram(
      Value::Str(""), Opcode::kAdd, [](FunctionBuilder& r) {
        r.LoadParam(1).Call("list.len").Call("str.word_at");
      });
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<const NativeKernel> kernel,
                       CompileReduceKernel(program, mril::VmOptions{}));
  // Word 1 of `first` ends at offset 25, inside word 2 of `second`.
  const std::string first = "aaaaaaaaaaaa bbbbbbbbbbbb cccccccccccc dddd";
  const std::string ys(29, 'y');
  const std::string second = "w x " + ys + " zzzzzzzzz";
  ASSERT_EQ(first.size(), second.size());
  std::string buffer = first;
  const std::string other = "other text that lives elsewhere here";
  auto run_group = [&](const NativeKernel* fold, int64_t key,
                       size_t num_values) {
    ValueList items;
    items.push_back(Value::Borrowed(buffer));
    for (size_t i = 1; i < num_values; ++i) {
      items.push_back(Value::Borrowed(other));
    }
    const Value values = Value::List(std::move(items));
    std::string out;
    if (fold == nullptr) {
      mril::VmInstance vm(&program);
      vm.set_emit_sink([&](const Value& k, const Value& v) {
        out = EncodedPair(k, v);
        return Status::OK();
      });
      EXPECT_OK(vm.InvokeReduce(Value::I64(key), values));
      return out;
    }
    KernelScratch scratch;
    Value k, v;
    EXPECT_EQ(fold->Run(Value::I64(key), values, &scratch, &k, &v),
              KernelOutcome::kEmit);
    return EncodedPair(k, v);
  };
  for (const NativeKernel* fold : {static_cast<const NativeKernel*>(
                                       nullptr),
                                   kernel.get()}) {
    SCOPED_TRACE(fold == nullptr ? "vm" : "fold");
    std::memcpy(buffer.data(), first.data(), first.size());
    EXPECT_EQ(run_group(fold, 1, 1),
              EncodedPair(Value::I64(1), Value::Str("bbbbbbbbbbbb")));
    std::memcpy(buffer.data(), second.data(), second.size());
    EXPECT_EQ(run_group(fold, 2, 2),
              EncodedPair(Value::I64(2), Value::Str(ys + "that")));
  }
}

}  // namespace
}  // namespace manimal
