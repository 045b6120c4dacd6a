// MRIL VM microbenchmark: instructions/second of the interpreter's
// switch loop over loop kernels chosen to stress what the link step
// optimizes.
//
//   fused    a generated program of 64 unrolled selection blocks, each
//            dominated by the two superinstructions (load_param_field,
//            cmp_*_br) with PRNG-driven branch outcomes. The long,
//            aperiodic opcode sequence makes the next handler hard to
//            predict from the single dispatch site.
//   tight    the degenerate opposite — an 8-instruction counting loop
//            whose dispatch sequence is perfectly periodic.
//   arith    a straight i64 arithmetic loop (add/mul/mod) — raw
//            dispatch overhead plus the inline integer fast path.
//   builtin  a tokenization loop (str.word_at / str.equals) — dispatch
//            share is small; included to bound what interpreter work
//            means for real UDFs.
//
// Rows land in MANIMAL_BENCH_JSON (see bench_util.h); the committed
// snapshot is BENCH_vm.json. MANIMAL_SCALE multiplies iteration
// counts.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "mril/assembler.h"
#include "mril/vm.h"

namespace manimal::bench {
namespace {

using mril::Program;
using mril::VmInstance;
using mril::VmOptions;

// Each kernel's map() takes the iteration count in field `n` of the
// record value and loops that many times, so one InvokeMap amortizes
// the invocation setup across millions of instructions.
constexpr const char* kTightKernel = R"(
.program vmbench-tight
.key_type i64
.value_schema n:i64,f0:i64,f1:i64,f2:i64,f3:i64,f4:i64,f5:i64,f6:i64,f7:i64
.func map locals=1
  load_const i64:0
  store_local 0
loop:
  load_param 1
  get_field n
  load_local 0
  cmp_gt
  jmp_if_false done
  load_local 0
  load_const i64:1
  add
  store_local 0
  jmp loop
done:
  return
.endfunc
)";

// Generates the fused kernel: 64 unrolled blocks, each advancing an
// LCG in local 0, taking a PRNG-dependent branch, and accumulating a
// load_param_field result into local 1. Per block the linked stream is
// mostly superinstructions and short handlers, and the branch pattern
// is aperiodic — the opcode at the dispatch point is genuinely
// data-dependent.
std::string GenerateFusedKernel() {
  std::string text = R"(
.program vmbench-fused
.key_type i64
.value_schema n:i64,f0:i64,f1:i64,f2:i64,f3:i64,f4:i64,f5:i64,f6:i64,f7:i64
.func map locals=3
  load_const i64:1
  store_local 0
  load_const i64:0
  store_local 1
  load_const i64:0
  store_local 2
loop:
)";
  constexpr int kBlocks = 64;
  for (int b = 0; b < kBlocks; ++b) {
    const int mod = 3 + (b * 2) % 11;       // 3..13, varies per block
    const int cut = mod / 2;                // roughly even split
    text += StrPrintf(R"(
  load_local 0
  load_const i64:6364136223846793005
  mul
  load_const i64:%d
  add
  store_local 0
  load_local 0
  load_const i64:%d
  mod
  load_const i64:%d
  cmp_gt
  jmp_if_false skip%d
  load_param 1
  get_field f%d
  load_local 1
  add
  store_local 1
  jmp join%d
skip%d:
  load_param 1
  get_field f%d
  load_local 1
  sub
  store_local 1
join%d:
)",
                      static_cast<int>(1442695040888963407LL % (b + 13)),
                      mod, cut, b, b % 8, b, b, (b + 3) % 8, b);
  }
  text += R"(
  load_local 2
  load_const i64:1
  add
  store_local 2
  load_param 1
  get_field n
  load_local 2
  cmp_gt
  jmp_if_false done
  jmp loop
done:
  load_param 0
  load_local 1
  emit
  return
.endfunc
)";
  return text;
}

constexpr const char* kArithKernel = R"(
.program vmbench-arith
.key_type i64
.value_schema n:i64,threshold:i64
.func map locals=2
  load_const i64:0
  store_local 0
  load_const i64:1
  store_local 1
loop:
  load_local 1
  load_const i64:2862933555777941757
  mul
  load_const i64:3037000493
  add
  store_local 1
  load_local 0
  load_const i64:1
  add
  store_local 0
  load_param 1
  get_field n
  load_local 0
  cmp_gt
  jmp_if_false done
  jmp loop
done:
  load_param 0
  load_local 1
  emit
  return
.endfunc
)";

constexpr const char* kBuiltinKernel = R"(
.program vmbench-builtin
.key_type i64
.value_schema n:i64,doc:str
.func map locals=2
  load_const i64:0
  store_local 0
  load_const i64:0
  store_local 1
loop:
  load_param 1
  get_field n
  load_local 0
  cmp_gt
  jmp_if_false done
  load_param 1
  get_field doc
  load_local 0
  load_param 1
  get_field n
  mod
  call str.word_at
  load_const str:"lorem"
  call str.equals
  jmp_if_false skip
  load_local 1
  load_const i64:1
  add
  store_local 1
skip:
  load_local 0
  load_const i64:1
  add
  store_local 0
  jmp loop
done:
  load_param 0
  load_local 1
  emit
  return
.endfunc
)";

struct Kernel {
  std::string name;
  std::string text;
  int64_t loop_n;     // iterations per invocation (scaled)
  int64_t invokes;    // invocations per timed run
};

Value KernelValue(const Kernel& kernel) {
  ValueList record;
  record.push_back(Value::I64(kernel.loop_n));
  if (kernel.name == "builtin") {
    std::string doc;
    for (int64_t i = 0; i < kernel.loop_n; ++i) {
      doc += (i % 7 == 0) ? "lorem " : "ipsum ";
    }
    if (!doc.empty()) doc.pop_back();
    record.push_back(Value::Str(std::move(doc)));
  } else if (kernel.name == "arith") {
    record.push_back(Value::I64(42));
  } else {
    // fused / tight: eight i64 payload fields.
    for (int64_t f = 0; f < 8; ++f) record.push_back(Value::I64(f + 1));
  }
  return Value::List(std::move(record));
}

// Runs the kernel once; returns instructions/second.
double Measure(const Program& program, const Kernel& kernel) {
  VmInstance vm(&program, VmOptions{});
  vm.set_emit_sink([](const Value&, const Value&) { return Status::OK(); });
  const Value key = Value::I64(0);
  const Value value = KernelValue(kernel);
  // Warm-up invocation (faults pages, sizes buffers).
  CheckOk(vm.InvokeMap(key, value), "warmup invoke");
  const int64_t steps_before = vm.total_steps();
  Stopwatch timer;
  for (int64_t i = 0; i < kernel.invokes; ++i) {
    CheckOk(vm.InvokeMap(key, value), "invoke");
  }
  const double seconds = timer.ElapsedSeconds();
  const int64_t steps = vm.total_steps() - steps_before;
  return static_cast<double>(steps) / seconds;
}

int Main() {
  const int64_t scale = ScaleFactor();
  const std::vector<Kernel> kernels = {
      // The fused kernel's outer loop runs ~1700 linked instructions
      // per iteration, so fewer iterations reach the same stream size.
      {"fused", GenerateFusedKernel(), 2'000 * scale, 30},
      {"tight", kTightKernel, 200'000 * scale, 50},
      {"arith", kArithKernel, 200'000 * scale, 50},
      {"builtin", kBuiltinKernel, 2'000 * scale, 200},
  };

  std::printf("MRIL VM microbench\n");
  TablePrinter table({"kernel", "Minstr/s"});
  for (const Kernel& kernel : kernels) {
    Program program =
        CheckOk(mril::AssembleProgram(kernel.text), "assemble kernel");
    double best = 0;
    // Best-of-N to shed scheduler noise.
    for (int rep = 0; rep < std::max(1, Runs()) + 2; ++rep) {
      best = std::max(best, Measure(program, kernel));
    }
    table.AddRow({kernel.name, StrPrintf("%.1f", best / 1e6)});
    JsonRow("mril_vm", kernel.name)
        .Num("instructions_per_sec", best)
        .Emit();
  }
  table.Print();
  return 0;
}

}  // namespace
}  // namespace manimal::bench

int main() { return manimal::bench::Main(); }
