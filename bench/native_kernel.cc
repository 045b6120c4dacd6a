// Native codegen tier microbenchmark (src/codegen/, docs/mril.md
// "Native kernels"): records/second for a detected selection +
// projection map function under three executors over the same
// in-memory web-pages dataset:
//
//   hand      a hand-written C++ loop — reads the rank field, tests
//             the predicate, consumes (url, rank). The ceiling the
//             tier is measured against: the acceptance target is the
//             closure kernel within 2x of this loop.
//   closure   the native kernel (CompileKernel) via the same
//             Run()/bailout-replay contract the engine uses.
//   vm        the MRIL VM — the tier's baseline;
//             included so the native speedup is visible next to the
//             hand-written gap.
//
// Two selectivity regimes: "sel50" (half the records pass, the
// projection path dominates) and "sel1" (1% pass, the predicate
// short-circuit dominates). Every leg must produce the identical
// (emits, checksum) pair — a mini differential check guarding the
// numbers.
//
// Rows land in MANIMAL_BENCH_JSON (see bench_util.h); the committed
// snapshot is BENCH_native.json. MANIMAL_SCALE multiplies the record
// count.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "codegen/kernel.h"
#include "common/stopwatch.h"
#include "mril/builder.h"
#include "mril/vm.h"
#include "serde/value.h"
#include "workloads/schemas.h"

namespace manimal::bench {
namespace {

using codegen::CompileKernel;
using codegen::CompileOptions;
using codegen::KernelOutcome;
using codegen::KernelScratch;
using codegen::NativeKernel;

// map: if (rank >= threshold) emit(url, rank) — the canonical detected
// selection+projection shape (paper Sec. 3).
mril::Program SelectProjectProgram(int64_t threshold) {
  mril::ProgramBuilder b("bench-sel-proj");
  b.SetKeyType(FieldType::kStr);
  b.SetValueSchema(workloads::WebPagesSchema());
  mril::FunctionBuilder& m = b.Map();
  m.LoadParam(1).GetField("rank").LoadI64(threshold).CmpGe();
  m.JmpIfFalse("end");
  m.LoadParam(1).GetField("url");
  m.LoadParam(1).GetField("rank");
  m.Emit();
  m.Label("end").Ret();
  return b.Build();
}

std::vector<Value> MakePages(int64_t n) {
  std::vector<Value> records;
  records.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    records.push_back(Value::List(
        {Value::Str(StrPrintf("http://site-%04lld.example/page",
                              static_cast<long long>(i % 9973))),
         Value::I64(i % 1000),
         Value::Str("lorem ipsum dolor sit amet")}));
  }
  return records;
}

// What each leg does with an emitted pair; cheap but unforgeable, so
// the compiler cannot dead-code the loop and the legs must agree.
struct Sink {
  int64_t emits = 0;
  int64_t checksum = 0;
  void Consume(const Value& key, const Value& value) {
    ++emits;
    checksum += static_cast<int64_t>(key.str().size()) + value.i64();
  }
};

// The measured quantity: records/second over one full pass.
using Leg = std::function<double(const std::vector<Value>&, Sink*)>;

double RunHandwritten(const std::vector<Value>& records, Sink* sink,
                      int64_t threshold) {
  Stopwatch timer;
  for (const Value& record : records) {
    const ValueList& fields = record.list();
    const int64_t* rank = fields[1].if_i64();
    if (rank != nullptr && *rank >= threshold) {
      sink->Consume(fields[0], fields[1]);
    }
  }
  return static_cast<double>(records.size()) / timer.ElapsedSeconds();
}

double RunKernel(const std::vector<Value>& records, Sink* sink,
                 const NativeKernel& kernel, mril::VmInstance* vm) {
  KernelScratch scratch;
  const Value key = Value::I64(0);
  Stopwatch timer;
  for (const Value& record : records) {
    Value out_key, out_value;
    switch (kernel.Run(key, record, &scratch, &out_key, &out_value)) {
      case KernelOutcome::kEmit:
        sink->Consume(out_key, out_value);
        break;
      case KernelOutcome::kSkip:
        break;
      case KernelOutcome::kBailout:
        CheckOk(vm->InvokeMap(key, record), "bailout replay");
        break;
    }
  }
  return static_cast<double>(records.size()) / timer.ElapsedSeconds();
}

double RunVm(const std::vector<Value>& records, Sink* sink,
             mril::VmInstance* vm) {
  const Value key = Value::I64(0);
  Stopwatch timer;
  for (const Value& record : records) {
    CheckOk(vm->InvokeMap(key, record), "vm invoke");
  }
  (void)sink;  // populated through the emit sink
  return static_cast<double>(records.size()) / timer.ElapsedSeconds();
}

int Main() {
  const int64_t n = 200'000 * ScaleFactor();
  const std::vector<Value> records = MakePages(n);

  struct Config {
    const char* name;
    int64_t threshold;
  };
  const Config configs[] = {{"sel50", 500}, {"sel1", 990}};

  std::printf("native kernel microbench (%lld records)\n",
              static_cast<long long>(n));
  TablePrinter table({"config", "leg", "Mrec/s", "vs hand", "vs vm"});

  bool within_2x = true;
  for (const Config& config : configs) {
    mril::Program program = SelectProjectProgram(config.threshold);

    // Compile up front (compile time is job-prepare cost, not
    // per-record cost; the engine compiles once per task chain).
    std::shared_ptr<const NativeKernel> closure =
        CheckOk(CompileKernel(program, CompileOptions{}), "compile");

    mril::VmInstance vm(&program, mril::VmOptions{});
    Sink* vm_sink = nullptr;
    vm.set_emit_sink([&](const Value& k, const Value& v) {
      if (vm_sink != nullptr) vm_sink->Consume(k, v);
      return Status::OK();
    });

    struct LegSpec {
      const char* name;
      std::function<double(Sink*)> run;
    };
    std::vector<LegSpec> legs;
    legs.push_back({"hand", [&](Sink* s) {
                      return RunHandwritten(records, s, config.threshold);
                    }});
    legs.push_back({"closure", [&](Sink* s) {
                      vm_sink = s;  // bailout replays emit through the VM
                      return RunKernel(records, s, *closure, &vm);
                    }});
    legs.push_back({"vm", [&](Sink* s) {
                      vm_sink = s;
                      return RunVm(records, s, &vm);
                    }});

    double hand_rate = 0, vm_rate = 0;
    int64_t want_emits = -1, want_checksum = 0;
    std::vector<std::pair<std::string, double>> rates;
    for (const LegSpec& leg : legs) {
      double best = 0;
      Sink sink;
      // Best-of-N to shed scheduler noise; every rep re-checks the
      // differential pair.
      for (int rep = 0; rep < std::max(1, Runs()) + 2; ++rep) {
        sink = Sink{};
        best = std::max(best, leg.run(&sink));
      }
      if (want_emits < 0) {
        want_emits = sink.emits;
        want_checksum = sink.checksum;
      } else if (sink.emits != want_emits ||
                 sink.checksum != want_checksum) {
        std::fprintf(stderr,
                     "FATAL %s/%s disagrees: emits=%lld checksum=%lld "
                     "(want %lld/%lld)\n",
                     config.name, leg.name,
                     static_cast<long long>(sink.emits),
                     static_cast<long long>(sink.checksum),
                     static_cast<long long>(want_emits),
                     static_cast<long long>(want_checksum));
        return 1;
      }
      if (std::string(leg.name) == "hand") hand_rate = best;
      if (std::string(leg.name) == "vm") vm_rate = best;
      rates.emplace_back(leg.name, best);
    }

    for (const auto& [name, rate] : rates) {
      const double vs_hand = hand_rate > 0 ? rate / hand_rate : 1;
      const double vs_vm = vm_rate > 0 ? rate / vm_rate : 0;
      table.AddRow({config.name, name, StrPrintf("%.1f", rate / 1e6),
                    StrPrintf("%.2fx", vs_hand),
                    StrPrintf("%.2fx", vs_vm)});
      JsonRow("native_kernel", std::string(config.name) + "/" + name)
          .Int("records", n)
          .Int("emits", want_emits)
          .Num("records_per_sec", rate)
          .Num("vs_handwritten", vs_hand)
          .Num("vs_vm", vs_vm)
          .Emit();
      if (name == "closure" && hand_rate > 0 && rate * 2 < hand_rate) {
        within_2x = false;
      }
    }
  }
  table.Print();
  std::printf("closure within 2x of hand-written: %s\n",
              within_2x ? "yes" : "NO");
  return 0;
}

}  // namespace
}  // namespace manimal::bench

int main() { return manimal::bench::Main(); }
