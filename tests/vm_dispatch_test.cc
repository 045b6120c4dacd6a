// The VM-vs-native-kernel differential plus unit coverage for the VM
// hot-path machinery: detected-relational programs compiled to a
// native codegen kernel (with per-record VM replay on bailout, the
// engine's contract), their reduces to folds where admitted (with
// whole-group replay), must produce byte-identical traces to the VM on
// the corpus and on a seeded fuzz corpus; a VM run must not depend on
// whether record strings are borrowed or owned; every MRIL operator
// must mean the same in the VM, the native kernel and the analyzer's
// evaluator over a grid of edge-case operands; Value's three string
// storage classes (inline, owned, borrowed) must be interchangeable
// wherever kind() == kStr; and the str.word_at sequential-scan memo
// must survive buffer reuse.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analyzer/analyzer.h"
#include "analyzer/expr_eval.h"
#include "codegen/kernel.h"
#include "codegen/shape.h"
#include "common/env.h"
#include "common/random.h"
#include "common/strings.h"
#include "mril/assembler.h"
#include "mril/builtins.h"
#include "mril/verifier.h"
#include "mril/vm.h"
#include "serde/value.h"
#include "tests/mril_gen.h"
#include "tests/test_util.h"

#ifndef MANIMAL_TEST_CORPUS_DIR
#define MANIMAL_TEST_CORPUS_DIR "tests/corpus"
#endif

namespace manimal {
namespace {

using mril::Opcode;
using mril::VmInstance;
using mril::VmOptions;

// ---------------------------------------------------------------
// Differential harness: run a program's map (and reduce, when
// present) over a deterministic input set and record everything
// observable.

struct RunTrace {
  std::vector<std::string> emits;     // "key -> value", in order
  std::vector<std::string> logs;
  std::vector<std::string> statuses;  // one per invocation
  int64_t steps = 0;
};

// WebPages-shaped records (url STR, rank I64, content STR) — the
// schema shared by the corpus programs and the mril_gen generator.
std::vector<Value> MakeWebPagesRecords(uint64_t seed, int count,
                                       int64_t rank_range) {
  Rng rng(seed);
  std::vector<Value> records;
  records.reserve(count);
  for (int i = 0; i < count; ++i) {
    std::string url = StrPrintf("http://site-%03d.example.com/page/%d",
                                static_cast<int>(rng.Uniform(50)), i);
    std::string content;
    int words = 1 + static_cast<int>(rng.Uniform(24));
    for (int w = 0; w < words; ++w) {
      static const char* kWords[] = {"lorem", "ipsum",  "dolor",
                                     "sit",   "amet",   "manimal",
                                     "index", "mapred", "x"};
      content += kWords[rng.Uniform(9)];
      content += (w + 1 < words) ? " " : "";
    }
    records.push_back(Value::List(
        {Value::Str(std::move(url)),
         Value::I64(static_cast<int64_t>(rng.Uniform(rank_range))),
         Value::Str(std::move(content))}));
  }
  return records;
}

// Groups map output by key (first-seen order) and reduces each group
// on `vm`, capturing reduce-side emits and statuses into `trace`. With
// a `fold` kernel, each group runs on it first and only a bailed group
// is replayed whole on `vm` (the engine's reduce contract).
void RunReduce(const mril::Program& program, VmInstance* vm,
               std::vector<std::pair<Value, Value>> emitted,
               RunTrace* trace,
               const codegen::NativeKernel* fold = nullptr) {
  if (!program.has_reduce()) return;
  std::vector<std::pair<Value, ValueList>> groups;
  std::map<std::string, size_t> index;
  for (auto& [k, v] : emitted) {
    auto [it, inserted] = index.emplace(k.ToString(), groups.size());
    if (inserted) groups.emplace_back(k, ValueList{});
    groups[it->second].second.push_back(std::move(v));
  }
  codegen::KernelScratch scratch;
  for (auto& [key, list] : groups) {
    const Value values = Value::List(std::move(list));
    Value out_key, out_value;
    if (fold != nullptr &&
        fold->Run(key, values, &scratch, &out_key, &out_value) ==
            codegen::KernelOutcome::kEmit) {
      trace->emits.push_back(out_key.ToString() + " -> " +
                             out_value.ToString());
      trace->statuses.push_back(Status::OK().ToString());
      continue;
    }
    trace->statuses.push_back(vm->InvokeReduce(key, values).ToString());
  }
}

RunTrace RunVm(const mril::Program& program,
               const std::vector<Value>& records) {
  RunTrace trace;
  VmOptions options;
  options.max_steps_per_invocation = 2'000'000;
  VmInstance vm(&program, options);

  std::vector<std::pair<Value, Value>> emitted;
  vm.set_emit_sink([&](const Value& k, const Value& v) {
    trace.emits.push_back(k.ToString() + " -> " + v.ToString());
    emitted.emplace_back(k.ToOwned(), v.ToOwned());
    return Status::OK();
  });
  vm.set_log_sink([&](const Value& msg) {
    trace.logs.push_back(msg.ToString());
  });

  for (size_t i = 0; i < records.size(); ++i) {
    Status s = vm.InvokeMap(Value::I64(static_cast<int64_t>(i)),
                            records[i]);
    trace.statuses.push_back(s.ToString());
  }
  RunReduce(program, &vm, std::move(emitted), &trace);
  trace.steps = vm.total_steps();
  return trace;
}

// The native codegen kernels. Same observables as RunVm, with the
// engine's contract applied verbatim — every kBailout record (or
// group, under a `fold`) is replayed through a VM, which reproduces
// emits, logs, and error statuses. VM step counts are not comparable
// across tiers, so steps stays 0 and the comparison checks
// emits/logs/statuses only.
RunTrace RunUnderKernel(
    const mril::Program& program, const std::vector<Value>& records,
    const std::shared_ptr<const codegen::NativeKernel>& kernel,
    const codegen::NativeKernel* fold) {
  RunTrace trace;
  VmInstance vm(&program, VmOptions{});

  std::vector<std::pair<Value, Value>> emitted;
  auto record_emit = [&](const Value& k, const Value& v) {
    trace.emits.push_back(k.ToString() + " -> " + v.ToString());
    emitted.emplace_back(k.ToOwned(), v.ToOwned());
    return Status::OK();
  };
  vm.set_emit_sink(record_emit);
  vm.set_log_sink([&](const Value& msg) {
    trace.logs.push_back(msg.ToString());
  });

  codegen::KernelScratch scratch;
  for (size_t i = 0; i < records.size(); ++i) {
    const Value key = Value::I64(static_cast<int64_t>(i));
    Value out_key, out_value;
    const codegen::KernelOutcome outcome =
        kernel->Run(key, records[i], &scratch, &out_key, &out_value);
    if (outcome == codegen::KernelOutcome::kBailout) {
      trace.statuses.push_back(vm.InvokeMap(key, records[i]).ToString());
      continue;
    }
    if (outcome == codegen::KernelOutcome::kEmit) {
      record_emit(out_key, out_value);
    }
    trace.statuses.push_back(Status::OK().ToString());
  }
  RunReduce(program, &vm, std::move(emitted), &trace, fold);
  return trace;
}

// Compiles an admitted program, and its reduce fold when that is
// admitted too, and checks the kernels against the VM
// (emits/logs/statuses). The kernel must cover every admitted shape.
// Returns whether the reduce ran on a fold.
bool ExpectKernelMatchesVm(const mril::Program& program,
                           const std::vector<Value>& records) {
  Result<std::shared_ptr<const codegen::NativeKernel>> kernel =
      codegen::CompileKernel(program, codegen::CompileOptions{});
  EXPECT_OK(kernel.status());
  if (!kernel.ok()) return false;
  Result<std::shared_ptr<const codegen::NativeKernel>> fold =
      codegen::CompileReduceKernel(program, VmOptions{});
  SCOPED_TRACE((*kernel)->Describe() + " / " +
               (fold.ok() ? (*fold)->Describe() : fold.status().message()));
  RunTrace vm = RunVm(program, records);
  RunTrace native = RunUnderKernel(program, records, *kernel,
                                   fold.ok() ? fold->get() : nullptr);
  EXPECT_EQ(vm.emits, native.emits);
  EXPECT_EQ(vm.logs, native.logs);
  EXPECT_EQ(vm.statuses, native.statuses);
  return fold.ok();
}

std::vector<std::string> CorpusFiles() {
  std::vector<std::string> paths;
  auto names = ListDir(MANIMAL_TEST_CORPUS_DIR);
  if (!names.ok()) return paths;
  for (const std::string& name : *names) {
    if (name.size() > 5 &&
        name.compare(name.size() - 5, 5, ".mril") == 0) {
      paths.push_back(std::string(MANIMAL_TEST_CORPUS_DIR) + "/" + name);
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

// ---------------------------------------------------------------
// VM vs native kernel.

// Every corpus program whose map the admission gate accepts runs the
// comparison; the corpus is known to contain admitted selection/
// projection programs, so at least one must qualify, and the reduces
// of sum_rank.mril and count_by_mod.mril run on folds.
TEST(ThreeWayDifferential, AdmittedCorpusProgramsAgree) {
  std::vector<std::string> files = CorpusFiles();
  ASSERT_GE(files.size(), 4u)
      << "corpus missing at " << MANIMAL_TEST_CORPUS_DIR;
  std::vector<Value> records = MakeWebPagesRecords(/*seed=*/7, 128,
                                                   /*rank_range=*/100);
  int admitted = 0;
  std::vector<std::string> folded;
  for (const std::string& path : files) {
    SCOPED_TRACE(path);
    ASSERT_OK_AND_ASSIGN(std::string text, ReadFileToString(path));
    ASSERT_OK_AND_ASSIGN(mril::Program program,
                         mril::AssembleProgram(text));
    ASSERT_OK(mril::VerifyProgram(program));
    if (!codegen::ExtractShape(program).ok()) continue;
    ++admitted;
    if (ExpectKernelMatchesVm(program, records)) {
      folded.push_back(path.substr(path.rfind('/') + 1));
    }
  }
  EXPECT_GE(admitted, 1) << "no corpus program passed the admission "
                            "gate; the differential ran empty";
  for (const char* name : {"count_by_mod.mril", "sum_rank.mril"}) {
    EXPECT_NE(std::find(folded.begin(), folded.end(), name), folded.end())
        << name << "'s reduce did not run on a fold";
  }
}

// The provable-shape generator mode: every seed must pass the
// admission gate by construction AND agree with the VM, over inputs
// that include borrowed (zero-copy) string fields.
class ThreeWayFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ThreeWayFuzz, ProvableGeneratedProgramsAgree) {
  constexpr int64_t kRankRange = 1000;
  std::vector<Value> records = MakeWebPagesRecords(
      /*seed=*/99, 64, kRankRange);
  for (int i = 0; i < 25; ++i) {
    uint64_t seed = static_cast<uint64_t>(GetParam()) * 1000 + i;
    testing::GeneratedProgram gen =
        testing::GenerateProvableSelectionProgram(seed, kRankRange);
    SCOPED_TRACE(StrPrintf("seed %llu, shape: %s",
                           static_cast<unsigned long long>(seed),
                           gen.description.c_str()));
    ASSERT_OK(mril::VerifyProgram(gen.program));
    // The provable mode's whole contract: the admission gate takes
    // every generated seed.
    ASSERT_OK(codegen::ExtractShape(gen.program).status());
    ExpectKernelMatchesVm(gen.program, records);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ThreeWayFuzz, ::testing::Range(1, 5));

// ---------------------------------------------------------------
// Operator semantics. mril::ApplyOp defines every operator once; the
// VM (inline fast paths included), the closure kernel and the
// analyzer's evaluator must agree on each of them: the same kind and
// value, or all three raise.

constexpr int64_t kI64Min = std::numeric_limits<int64_t>::min();
constexpr int64_t kI64Max = std::numeric_limits<int64_t>::max();

std::vector<Value> OperandGrid() {
  return {Value::Null(),
          Value::Bool(true),
          Value::Bool(false),
          Value::I64(0),
          Value::I64(1),
          Value::I64(-1),
          Value::I64(kI64Min),
          Value::I64(kI64Max),
          Value::F64(2.5),
          Value::F64(-0.0),
          Value::F64(std::numeric_limits<double>::quiet_NaN()),
          Value::Str(""),
          Value::Str("a"),
          Value::Str(std::string(kInlineStrCap + 1, 's'))};
}

// Same kind and value. Doubles compare bit for bit (so -0.0 is not
// 0.0), except that every NaN equals every NaN.
bool SameValue(const Value& a, const Value& b) {
  if (a.kind() != b.kind()) return false;
  if (a.is_f64()) {
    const double x = a.f64(), y = b.f64();
    if (std::isnan(x) || std::isnan(y)) return std::isnan(x) && std::isnan(y);
    return std::memcmp(&x, &y, sizeof x) == 0;
  }
  return a.Compare(b) == 0;
}

// map(key, {f0, f1}): emit(key, f0 OP f1), or emit(key, OP f0) for a
// unary operator. With `branch`, the comparison instead feeds a
// conditional jump (which the link step fuses into one compare-and-
// branch superinstruction) and the map emits the outcome as a bool.
// The records fed to it carry every kind, whatever the schema says:
// no evaluator may trust declared types for an operator's result.
Result<mril::Program> OperatorProgram(Opcode op, bool branch) {
  const std::string mnemonic(mril::GetOpcodeInfo(op).mnemonic);
  const bool unary = mril::GetOpcodeInfo(op).pops == 1;
  std::string text = ".program " + mnemonic +
                     "\n.key_type i64\n.value_schema f0:i64,f1:i64\n"
                     ".func map locals=0\n";
  if (!branch) text += "  load_param 0\n";
  text += "  load_param 1\n  get_field f0\n";
  if (!unary) text += "  load_param 1\n  get_field f1\n";
  text += "  " + mnemonic + "\n";
  if (branch) {
    text +=
        "  jmp_if_false no\n"
        "  load_param 0\n  load_const bool:true\n  emit\n  return\n"
        "no:\n"
        "  load_param 0\n  load_const bool:false\n  emit\n";
  } else {
    text += "  emit\n";
  }
  text += "  return\n.endfunc\n";
  return mril::AssembleProgram(text);
}

// Runs `op` over every operand tuple (pairs for a binary operator)
// through each evaluator and checks they agree.
void ExpectEvaluatorsAgree(Opcode op) {
  SCOPED_TRACE(std::string(mril::GetOpcodeInfo(op).mnemonic));
  const bool unary = mril::GetOpcodeInfo(op).pops == 1;
  const std::vector<Value> grid = OperandGrid();

  ASSERT_OK_AND_ASSIGN(mril::Program program,
                       OperatorProgram(op, /*branch=*/false));
  ASSERT_OK(mril::VerifyProgram(program));
  VmInstance vm(&program);
  Value vm_emitted;
  vm.set_emit_sink([&](const Value&, const Value& v) {
    vm_emitted = v;
    return Status::OK();
  });

  std::optional<mril::Program> branch_program;
  std::unique_ptr<VmInstance> branch_vm;
  Value branch_emitted;
  if (mril::IsComparison(op)) {
    ASSERT_OK_AND_ASSIGN(branch_program,
                         OperatorProgram(op, /*branch=*/true));
    ASSERT_OK(mril::VerifyProgram(*branch_program));
    branch_vm = std::make_unique<VmInstance>(&*branch_program);
    // One pair more is fused: the comparison into its jump.
    ASSERT_EQ(branch_vm->linked().map_fn.num_fused,
              vm.linked().map_fn.num_fused + 1);
    branch_vm->set_emit_sink([&](const Value&, const Value& v) {
      branch_emitted = v;
      return Status::OK();
    });
  }

  ASSERT_OK_AND_ASSIGN(auto kernel, codegen::CompileKernel(
                                        program, codegen::CompileOptions{}));
  codegen::KernelScratch scratch;

  for (const Value& a : grid) {
    for (const Value& b : unary ? std::vector<Value>{Value()} : grid) {
      SCOPED_TRACE(unary ? a.ToString()
                         : a.ToString() + ", " + b.ToString());
      const Value key = Value::I64(0);
      const Value record = Value::List({a, b});

      vm_emitted = Value();
      const Status vm_status = vm.InvokeMap(key, record);

      std::vector<analysis::ExprRef> args = {
          analysis::Expr::MakeConst(a, -1)};
      if (!unary) args.push_back(analysis::Expr::MakeConst(b, -1));
      Result<Value> evaluated = analyzer::EvalExpr(
          analysis::Expr::MakeOp(op, std::move(args), -1), Value(),
          Value());
      EXPECT_EQ(evaluated.status().ToString(), vm_status.ToString());

      Value kernel_key, kernel_value;
      const codegen::KernelOutcome outcome = kernel->Run(
          key, record, &scratch, &kernel_key, &kernel_value);
      // The kernel bails exactly where the VM raises.
      EXPECT_EQ(outcome, vm_status.ok() ? codegen::KernelOutcome::kEmit
                                        : codegen::KernelOutcome::kBailout);

      if (branch_vm != nullptr) {
        branch_emitted = Value();
        EXPECT_EQ(branch_vm->InvokeMap(key, record).ToString(),
                  vm_status.ToString());
        if (vm_status.ok()) {
          EXPECT_TRUE(SameValue(branch_emitted, vm_emitted))
              << branch_emitted.ToString();
        }
      }
      if (!vm_status.ok()) continue;
      if (evaluated.ok()) {
        EXPECT_TRUE(SameValue(*evaluated, vm_emitted))
            << evaluated->ToString() << " vs vm " << vm_emitted.ToString();
      }
      if (outcome == codegen::KernelOutcome::kEmit) {
        EXPECT_TRUE(SameValue(kernel_value, vm_emitted))
            << kernel_value.ToString() << " vs vm " << vm_emitted.ToString();
      }
    }
  }
}

TEST(OpSemantics, ArithmeticAgreesAcrossEvaluators) {
  for (Opcode op : {Opcode::kAdd, Opcode::kSub, Opcode::kMul,
                    Opcode::kDiv, Opcode::kMod}) {
    ExpectEvaluatorsAgree(op);
  }
}

TEST(OpSemantics, ComparisonsAgreeAcrossEvaluators) {
  for (Opcode op : {Opcode::kCmpLt, Opcode::kCmpLe, Opcode::kCmpGt,
                    Opcode::kCmpGe, Opcode::kCmpEq, Opcode::kCmpNe}) {
    ExpectEvaluatorsAgree(op);
  }
}

TEST(OpSemantics, LogicAgreesAcrossEvaluators) {
  for (Opcode op : {Opcode::kAnd, Opcode::kOr}) ExpectEvaluatorsAgree(op);
}

TEST(OpSemantics, UnaryOperatorsAgreeAcrossEvaluators) {
  for (Opcode op : {Opcode::kNeg, Opcode::kNot}) ExpectEvaluatorsAgree(op);
}

// The i64 edge cases are defined as the JVM defines them:
// INT64_MIN / -1 == INT64_MIN (what mul by -1 gives), INT64_MIN % -1
// == 0, and neg INT64_MIN == INT64_MIN. Each is checked in the VM and
// the closure kernel on a WebPages record whose rank is INT64_MIN,
// and in Analyze, whose simplifier folds `INT64_MIN OP -1` in a
// branch condition through the analyzer's evaluator.
void ExpectI64EdgeCase(Opcode op, int64_t want) {
  const std::string mnemonic(mril::GetOpcodeInfo(op).mnemonic);
  const std::string operand =
      mril::GetOpcodeInfo(op).pops == 2 ? "  load_const i64:-1\n" : "";
  const std::string header =
      ".program rank-edge\n.key_type i64\n"
      ".value_schema url:str,rank:i64,content:str\n"
      ".func map locals=0\n";
  // map: emit(url, rank OP -1), or emit(url, OP rank).
  ASSERT_OK_AND_ASSIGN(
      mril::Program program,
      mril::AssembleProgram(header +
                            "  load_param 1\n  get_field url\n"
                            "  load_param 1\n  get_field rank\n" +
                            operand + "  " + mnemonic +
                            "\n  emit\n  return\n.endfunc\n"));
  ASSERT_OK(mril::VerifyProgram(program));
  const Value record = Value::List(
      {Value::Str("http://edge.example.com/"), Value::I64(kI64Min),
       Value::Str("content")});

  VmInstance vm(&program);
  Value emitted;
  vm.set_emit_sink([&](const Value&, const Value& v) {
    emitted = v;
    return Status::OK();
  });
  ASSERT_OK(vm.InvokeMap(Value::I64(0), record));
  ASSERT_TRUE(emitted.is_i64()) << emitted.ToString();
  EXPECT_EQ(emitted.i64(), want);

  ASSERT_OK_AND_ASSIGN(auto kernel, codegen::CompileKernel(
                                        program, codegen::CompileOptions{}));
  codegen::KernelScratch scratch;
  Value out_key, out_value;
  ASSERT_EQ(kernel->Run(Value::I64(0), record, &scratch, &out_key,
                        &out_value),
            codegen::KernelOutcome::kEmit);
  ASSERT_TRUE(out_value.is_i64()) << out_value.ToString();
  EXPECT_EQ(out_value.i64(), want);

  // map: if (rank > (INT64_MIN OP -1)) emit(url, rank). The simplifier
  // folds the constant operand through the analyzer's evaluator.
  ASSERT_OK_AND_ASSIGN(
      mril::Program guarded,
      mril::AssembleProgram(
          header + "  load_param 1\n  get_field rank\n" +
          StrPrintf("  load_const i64:%lld\n",
                    static_cast<long long>(kI64Min)) +
          operand + "  " + mnemonic +
          "\n  cmp_gt\n  jmp_if_false end\n"
          "  load_param 1\n  get_field url\n"
          "  load_param 1\n  get_field rank\n  emit\n"
          "end:\n  return\n.endfunc\n"));
  ASSERT_OK_AND_ASSIGN(analyzer::AnalysisReport report,
                       analyzer::Analyze(guarded));
  ASSERT_TRUE(report.selection.has_value());
  const analyzer::DnfFormula& formula = report.selection->formula;
  ASSERT_EQ(formula.disjuncts.size(), 1u) << formula.ToString();
  ASSERT_EQ(formula.disjuncts[0].terms.size(), 1u) << formula.ToString();
  const analysis::ExprRef& term = formula.disjuncts[0].terms[0].expr;
  ASSERT_EQ(term->args.size(), 2u) << term->ToString();
  ASSERT_EQ(term->args[1]->kind, analysis::Expr::Kind::kConst)
      << term->ToString();
  EXPECT_TRUE(SameValue(term->args[1]->constant, Value::I64(want)))
      << term->ToString();
}

TEST(OpSemantics, I64MinDivMinusOneIsI64Min) {
  ExpectI64EdgeCase(Opcode::kDiv, kI64Min);
}

TEST(OpSemantics, I64MinModMinusOneIsZero) {
  ExpectI64EdgeCase(Opcode::kMod, 0);
}

TEST(OpSemantics, NegI64MinIsI64Min) {
  ExpectI64EdgeCase(Opcode::kNeg, kI64Min);
}

// ---------------------------------------------------------------
// Value storage classes.

// A VM run must not depend on how record strings are stored: the
// corpus programs over records whose str fields borrow an external
// buffer trace byte-identically (steps included) to the same records
// held as owned strings.
TEST(ValueStorage, BorrowedRecordStringsRunLikeOwned) {
  // Backing store outliving every invocation (the engine guarantees
  // this by consuming each record before advancing the split).
  std::vector<std::string> backing;
  Rng rng(1234);
  for (int i = 0; i < 64; ++i) {
    backing.push_back(StrPrintf("http://borrowed.example.com/%d/%d", i,
                                static_cast<int>(rng.Uniform(1000))));
    backing.push_back(
        "lorem ipsum manimal lorem dolor sit amet content row " +
        std::to_string(i));
  }
  std::vector<Value> borrowed, owned;
  for (int i = 0; i < 64; ++i) {
    borrowed.push_back(Value::List({Value::Borrowed(backing[2 * i]),
                                    Value::I64(i * 13 % 97),
                                    Value::Borrowed(backing[2 * i + 1])}));
    owned.push_back(Value::List({Value::Str(backing[2 * i]),
                                 Value::I64(i * 13 % 97),
                                 Value::Str(backing[2 * i + 1])}));
  }
  ASSERT_TRUE(borrowed[0].HasBorrowedStr());
  ASSERT_FALSE(owned[0].HasBorrowedStr());
  std::vector<std::string> files = CorpusFiles();
  ASSERT_GE(files.size(), 4u)
      << "corpus missing at " << MANIMAL_TEST_CORPUS_DIR;
  for (const std::string& path : files) {
    SCOPED_TRACE(path);
    ASSERT_OK_AND_ASSIGN(std::string text, ReadFileToString(path));
    ASSERT_OK_AND_ASSIGN(mril::Program program,
                         mril::AssembleProgram(text));
    RunTrace from_borrowed = RunVm(program, borrowed);
    RunTrace from_owned = RunVm(program, owned);
    EXPECT_EQ(from_borrowed.emits, from_owned.emits);
    EXPECT_EQ(from_borrowed.logs, from_owned.logs);
    EXPECT_EQ(from_borrowed.statuses, from_owned.statuses);
    EXPECT_EQ(from_borrowed.steps, from_owned.steps);
  }
}

TEST(ValueStorage, ShortStringsAreInlineNotBorrowed) {
  std::string s(kInlineStrCap, 'x');
  Value inline_copy = Value::Str(s);
  Value inline_borrow = Value::Borrowed(s);
  EXPECT_TRUE(inline_copy.is_str());
  EXPECT_FALSE(inline_copy.is_borrowed_str());
  // Short borrows are stored inline outright — same cost, can't
  // dangle.
  EXPECT_FALSE(inline_borrow.is_borrowed_str());
  EXPECT_EQ(inline_copy.str(), s);
  EXPECT_EQ(inline_borrow.str(), s);
  EXPECT_EQ(inline_copy.if_owned_str(), nullptr);
}

TEST(ValueStorage, LongStringsAreOwnedOrBorrowed) {
  std::string s(kInlineStrCap + 1, 'y');
  Value owned = Value::Str(s);
  Value borrowed = Value::Borrowed(s);
  EXPECT_FALSE(owned.is_borrowed_str());
  ASSERT_NE(owned.if_owned_str(), nullptr);
  EXPECT_TRUE(borrowed.is_borrowed_str());
  // The borrow really is zero-copy: it points into the source buffer.
  EXPECT_EQ(borrowed.str().data(), s.data());
  EXPECT_EQ(owned.str(), borrowed.str());
}

TEST(ValueStorage, ToOwnedDetachesFromBackingBuffer) {
  std::string s(40, 'z');
  Value v = Value::Borrowed(s);
  v.EnsureOwned();
  EXPECT_FALSE(v.is_borrowed_str());
  EXPECT_NE(v.str().data(), s.data());
  EXPECT_EQ(v.str(), s);
  // Destroying the backing buffer must not matter now.
  s.assign(40, '!');
  EXPECT_EQ(v.str(), std::string(40, 'z'));
}

TEST(ValueStorage, EnsureOwnedRebuildsListWithoutMutatingSharers) {
  std::string s(40, 'q');
  Value list = Value::List({Value::Borrowed(s), Value::I64(1)});
  Value alias = list;  // shares the ValueList storage
  EXPECT_TRUE(list.HasBorrowedStr());
  list.EnsureOwned();
  EXPECT_FALSE(list.HasBorrowedStr());
  // The other holder still sees the borrowed original.
  EXPECT_TRUE(alias.HasBorrowedStr());
  EXPECT_EQ(list.list()[0].str(), alias.list()[0].str());
}

TEST(ValueStorage, HasUniqueListTracksSharing) {
  Value list = Value::List({Value::I64(1)});
  EXPECT_TRUE(list.has_unique_list());
  Value alias = list;
  EXPECT_FALSE(list.has_unique_list());
  alias = Value::Null();
  EXPECT_TRUE(list.has_unique_list());
}

TEST(ValueStorage, CompareAndHashIgnoreStorageClass) {
  std::string s = "a string long enough to not be inline";
  Value owned = Value::Str(s);
  Value borrowed = Value::Borrowed(s);
  EXPECT_EQ(owned.Compare(borrowed), 0);
  EXPECT_EQ(owned.Hash(), borrowed.Hash());
  Value inl = Value::Str("tiny");
  Value inl_b = Value::Borrowed("tiny");
  EXPECT_EQ(inl.Compare(inl_b), 0);
  EXPECT_EQ(inl.Hash(), inl_b.Hash());
}

TEST(ValueStorage, AssignmentAcrossStorageClasses) {
  std::string big(64, 'b');
  Value v = Value::Str(big);       // owned
  Value w = Value::I64(7);         // trivial
  w = v;                           // trivial <- refcounted
  EXPECT_EQ(w.str(), big);
  v = Value::Bool(true);           // refcounted <- trivial
  EXPECT_TRUE(v.bool_value());
  EXPECT_EQ(w.str(), big);         // w's copy unaffected
  Value moved = std::move(w);      // relocation
  EXPECT_EQ(moved.str(), big);
  moved = moved.ToOwned();         // self-flavored round trip
  EXPECT_EQ(moved.str(), big);
}

TEST(ValueStorage, SelfAssignmentFromOwnListElement) {
  Value list = Value::List({Value::Str(std::string(48, 'e')),
                            Value::I64(2)});
  const std::string want(48, 'e');
  // Assigning a value from inside this value's own list storage must
  // not read freed memory.
  list = list.list()[0];
  EXPECT_TRUE(list.is_str());
  EXPECT_EQ(list.str(), want);
}

TEST(ValueStorage, SubstrValuePreservesStorageClass) {
  std::string s = "zero copy substring slicing over borrowed buffers";
  Value borrowed = Value::Borrowed(s);
  Value sub = SubstrValue(borrowed, 10, 30);
  EXPECT_EQ(sub.str(), std::string_view(s).substr(10, 30));
  ASSERT_TRUE(sub.is_borrowed_str());
  EXPECT_EQ(sub.str().data(), s.data() + 10);
  // Owned base: the slice must not point into the original buffer.
  Value owned_sub = SubstrValue(Value::Str(s), 10, 30);
  EXPECT_EQ(owned_sub.str(), sub.str());
  EXPECT_FALSE(owned_sub.is_borrowed_str());
}

TEST(ValueArenaTest, ResetReusesBlocks) {
  ValueArena arena;
  std::string_view a = arena.Copy("first allocation of some bytes");
  size_t after_first = arena.allocated_bytes();
  const char* first_ptr = a.data();
  arena.Reset();
  std::string_view b = arena.Copy("second allocation, same block");
  EXPECT_EQ(b.data(), first_ptr);  // same block, rewound
  EXPECT_EQ(arena.allocated_bytes(), after_first);
  EXPECT_EQ(b, "second allocation, same block");
}

TEST(ValueArenaTest, ConcatAndGrowth) {
  ValueArena arena;
  std::string_view joined = arena.Concat("hello, ", "arena");
  EXPECT_EQ(joined, "hello, arena");
  // Force growth past the first block; earlier allocations survive.
  std::string big(10000, 'g');
  std::string_view big_copy = arena.Copy(big);
  EXPECT_EQ(joined, "hello, arena");
  EXPECT_EQ(big_copy, big);
  EXPECT_GE(arena.allocated_bytes(), big.size());
}

// ---------------------------------------------------------------
// str.word_at memoization.

Value CallWordAt(const Value& s, int64_t index) {
  const mril::Builtin* b =
      mril::BuiltinRegistry::Get().FindByName("str.word_at");
  EXPECT_NE(b, nullptr);
  Value args[2] = {s, Value::I64(index)};
  Value result;
  EXPECT_OK(b->fn(args, &result));
  return result;
}

std::vector<std::string> NaiveWords(std::string_view s) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == ' ' || c == '\t' || c == '\n') {
      if (!cur.empty()) out.push_back(std::move(cur));
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) out.push_back(std::move(cur));
  return out;
}

TEST(WordAtMemo, SequentialAndRandomAccessMatchNaive) {
  std::string doc =
      "the quick\tbrown fox jumps\nover the lazy dog and keeps going "
      "with  double  spaces and a trailing word";
  std::vector<std::string> words = NaiveWords(doc);
  for (Value base : {Value::Str(doc), Value::Borrowed(doc)}) {
    // Forward sequential (memo hit path).
    for (size_t i = 0; i < words.size(); ++i) {
      EXPECT_EQ(CallWordAt(base, static_cast<int64_t>(i)).str(),
                words[i]);
    }
    // Out of range.
    EXPECT_EQ(CallWordAt(base, static_cast<int64_t>(words.size())).str(),
              "");
    // Backward / random (memo cannot resume; must still be correct).
    Rng rng(5);
    for (int t = 0; t < 50; ++t) {
      size_t i = rng.Uniform(words.size());
      EXPECT_EQ(CallWordAt(base, static_cast<int64_t>(i)).str(),
                words[i]);
    }
  }
}

TEST(WordAtMemo, InvalidationProtectsReusedBorrowedBuffers) {
  // Same buffer address, same length, different content — exactly
  // what a recycled decode buffer looks like across records. The VM
  // calls InvalidateBorrowedStringMemos() at every invocation entry;
  // simulate that boundary here.
  std::string buffer = "alpha beta gamma delta epsilon";
  Value v = Value::Borrowed(buffer);
  ASSERT_TRUE(v.is_borrowed_str());
  EXPECT_EQ(CallWordAt(v, 0).str(), "alpha");
  EXPECT_EQ(CallWordAt(v, 1).str(), "beta");

  std::memcpy(buffer.data(), "ALPHA BETA GAMMA DELTA EPSILON",
              buffer.size());
  mril::InvalidateBorrowedStringMemos();
  EXPECT_EQ(CallWordAt(v, 1).str(), "BETA");
  EXPECT_EQ(CallWordAt(v, 2).str(), "GAMMA");
}

TEST(WordAtMemo, OwnedStringsKeyOnIdentityAcrossInvalidation) {
  std::string doc = "one two three four five six";
  Value v = Value::Str(doc);
  ASSERT_NE(v.if_owned_str(), nullptr);
  EXPECT_EQ(CallWordAt(v, 0).str(), "one");
  // Owned strings are immutable-by-identity: invalidation (an
  // invocation boundary) must not break a resumed scan.
  mril::InvalidateBorrowedStringMemos();
  EXPECT_EQ(CallWordAt(v, 1).str(), "two");
  EXPECT_EQ(CallWordAt(v, 5).str(), "six");
}

}  // namespace
}  // namespace manimal
