// Native codegen tier microbenchmark (src/codegen/, docs/mril.md
// "Native kernels" and "Reduce folds"): throughput of the native tier
// against a hand-written loop and the VM on in-memory data, with three
// legs per row:
//
//   hand      a hand-written C++ loop: the ceiling the tier is
//             measured against. Each row reports the closure leg's
//             rate as a fraction of it ("vs hand"); that ratio is a
//             number to read, not a pass/fail check.
//   closure   the native kernel (CompileKernel / CompileReduceKernel)
//             via the same Run()/bailout-replay contract the engine
//             uses.
//   vm        the MRIL VM — the tier's baseline, so the native
//             speedup is visible next to the hand-written gap.
//
// Map rows: a detected selection + projection map over web pages in
// two selectivity regimes, "sel50" (half the records pass, the
// projection path dominates) and "sel1" (1% pass, the predicate
// short-circuit dominates); rates are records/second. Reduce rows:
// B2's sum reduce ("b2") and B3's sum of each joined tuple's adRevenue
// ("b3") over prepared groups of 1, 4 and 32 values; rates are
// values/second. Every leg of a row must produce the identical
// (emits, checksum) pair — a mini differential check guarding the
// numbers; the binary fails only when legs disagree.
//
// Rows land in MANIMAL_BENCH_JSON (see bench_util.h); the committed
// snapshot is BENCH_native.json. MANIMAL_SCALE multiplies the record
// and value counts.

#include <algorithm>
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
#include "workloads/pavlo.h"
#include "workloads/schemas.h"

namespace manimal::bench {
namespace {

using codegen::CompileKernel;
using codegen::CompileOptions;
using codegen::CompileReduceKernel;
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

// Groups of `group_size` values each, `n` values in all: B2's values
// are adRevenue numbers, B3's are whole UserVisits tuples.
std::vector<std::pair<Value, Value>> MakeGroups(int64_t n,
                                                int64_t group_size,
                                                bool tuples) {
  std::vector<std::pair<Value, Value>> groups;
  for (int64_t g = 0; g * group_size < n; ++g) {
    ValueList values;
    for (int64_t i = 0; i < group_size; ++i) {
      const Value revenue = Value::I64((g * 31 + i * 7) % 1000);
      if (!tuples) {
        values.push_back(revenue);
        continue;
      }
      ValueList visit(9, Value::I64(0));
      visit[workloads::kUvSourceIp] = Value::Str("10.0.0.1");
      visit[workloads::kUvDestUrl] = Value::Str("http://dest.example/");
      visit[workloads::kUvAdRevenue] = revenue;
      values.push_back(Value::List(std::move(visit)));
    }
    groups.emplace_back(
        Value::Str(StrPrintf("key-%08lld", static_cast<long long>(g))),
        Value::List(std::move(values)));
  }
  return groups;
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

// One leg: runs a full pass into the sink and returns units/second.
struct LegSpec {
  const char* name;
  std::function<double(Sink*)> run;
};

double RunHandwrittenMap(const std::vector<Value>& records, Sink* sink,
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

double RunKernelMap(const std::vector<Value>& records, Sink* sink,
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

double RunVmMap(const std::vector<Value>& records, mril::VmInstance* vm) {
  const Value key = Value::I64(0);
  Stopwatch timer;
  for (const Value& record : records) {
    CheckOk(vm->InvokeMap(key, record), "vm invoke");
  }
  return static_cast<double>(records.size()) / timer.ElapsedSeconds();
}

// The B2/B3 sum written by hand: i64 values only (the prepared data),
// read straight or as field 3 of each tuple.
double RunHandwrittenFold(const std::vector<std::pair<Value, Value>>& groups,
                          int64_t num_values, bool tuples, Sink* sink) {
  Stopwatch timer;
  for (const auto& [key, values] : groups) {
    int64_t sum = 0;
    for (const Value& v : values.list()) {
      sum += tuples ? v.list()[workloads::kUvAdRevenue].i64() : v.i64();
    }
    sink->Consume(key, Value::I64(sum));
  }
  return static_cast<double>(num_values) / timer.ElapsedSeconds();
}

double RunKernelFold(const std::vector<std::pair<Value, Value>>& groups,
                     int64_t num_values, const NativeKernel& kernel,
                     mril::VmInstance* vm, Sink* sink) {
  KernelScratch scratch;
  Stopwatch timer;
  for (const auto& [key, values] : groups) {
    Value out_key, out_value;
    if (kernel.Run(key, values, &scratch, &out_key, &out_value) ==
        KernelOutcome::kEmit) {
      sink->Consume(out_key, out_value);
    } else {
      CheckOk(vm->InvokeReduce(key, values), "bailout replay");
    }
  }
  return static_cast<double>(num_values) / timer.ElapsedSeconds();
}

double RunVmFold(const std::vector<std::pair<Value, Value>>& groups,
                 int64_t num_values, mril::VmInstance* vm) {
  Stopwatch timer;
  for (const auto& [key, values] : groups) {
    CheckOk(vm->InvokeReduce(key, values), "vm invoke");
  }
  return static_cast<double>(num_values) / timer.ElapsedSeconds();
}

// Runs every leg best-of-N, checks they agree, and reports one table
// and JSON row per leg. Returns the closure leg's rate over the hand
// leg's, or -1 when the legs disagree.
double ReportRow(const std::string& config, const char* unit,
                 int64_t units, const std::vector<LegSpec>& legs,
                 TablePrinter* table) {
  double hand_rate = 0, vm_rate = 0, closure_rate = 0;
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
                   config.c_str(), leg.name,
                   static_cast<long long>(sink.emits),
                   static_cast<long long>(sink.checksum),
                   static_cast<long long>(want_emits),
                   static_cast<long long>(want_checksum));
      return -1;
    }
    const std::string name = leg.name;
    if (name == "hand") hand_rate = best;
    if (name == "vm") vm_rate = best;
    if (name == "closure") closure_rate = best;
    rates.emplace_back(name, best);
  }
  for (const auto& [name, rate] : rates) {
    const double vs_hand = hand_rate > 0 ? rate / hand_rate : 1;
    const double vs_vm = vm_rate > 0 ? rate / vm_rate : 0;
    table->AddRow({config, name, StrPrintf("%.1f", rate / 1e6),
                   StrPrintf("%.2fx", vs_hand),
                   StrPrintf("%.2fx", vs_vm)});
    JsonRow("native_kernel", config + "/" + name)
        .Int(unit, units)
        .Int("emits", want_emits)
        .Num(std::string(unit) + "_per_sec", rate)
        .Num("vs_handwritten", vs_hand)
        .Num("vs_vm", vs_vm)
        .Emit();
  }
  return hand_rate > 0 ? closure_rate / hand_rate : 0;
}

int Main() {
  const int64_t n = 200'000 * ScaleFactor();
  std::printf("native kernel microbench (%lld records / values)\n",
              static_cast<long long>(n));
  TablePrinter table({"config", "leg", "M/s", "vs hand", "vs vm"});
  std::vector<std::pair<std::string, double>> closure_vs_hand;

  const std::vector<Value> records = MakePages(n);
  struct MapConfig {
    const char* name;
    int64_t threshold;
  };
  for (const MapConfig& config :
       {MapConfig{"sel50", 500}, MapConfig{"sel1", 990}}) {
    mril::Program program = SelectProjectProgram(config.threshold);
    // Compile up front (compile time is job-prepare cost, not
    // per-record cost; the engine compiles once per job).
    std::shared_ptr<const NativeKernel> closure =
        CheckOk(CompileKernel(program, CompileOptions{}), "compile");
    mril::VmInstance vm(&program, mril::VmOptions{});
    Sink* vm_sink = nullptr;
    vm.set_emit_sink([&](const Value& k, const Value& v) {
      if (vm_sink != nullptr) vm_sink->Consume(k, v);
      return Status::OK();
    });
    const std::vector<LegSpec> legs = {
        {"hand",
         [&](Sink* s) {
           return RunHandwrittenMap(records, s, config.threshold);
         }},
        {"closure",
         [&](Sink* s) {
           vm_sink = s;  // bailout replays emit through the VM
           return RunKernelMap(records, s, *closure, &vm);
         }},
        {"vm",
         [&](Sink* s) {
           vm_sink = s;
           return RunVmMap(records, &vm);
         }},
    };
    const double ratio = ReportRow(config.name, "records", n, legs, &table);
    if (ratio < 0) return 1;
    closure_vs_hand.emplace_back(config.name, ratio);
  }

  struct FoldConfig {
    const char* name;
    mril::Program program;
    bool tuples;
  };
  const FoldConfig folds[] = {
      {"b2", workloads::Benchmark2Aggregation(), false},
      {"b3", workloads::Benchmark3Join(0, 1), true},
  };
  for (const FoldConfig& fold : folds) {
    std::shared_ptr<const NativeKernel> closure = CheckOk(
        CompileReduceKernel(fold.program, mril::VmOptions{}), "compile");
    mril::VmInstance vm(&fold.program, mril::VmOptions{});
    Sink* vm_sink = nullptr;
    vm.set_emit_sink([&](const Value& k, const Value& v) {
      if (vm_sink != nullptr) vm_sink->Consume(k, v);
      return Status::OK();
    });
    for (int64_t group_size : {1, 4, 32}) {
      const std::vector<std::pair<Value, Value>> groups =
          MakeGroups(n, group_size, fold.tuples);
      const int64_t values = static_cast<int64_t>(groups.size()) *
                             group_size;
      const std::vector<LegSpec> legs = {
          {"hand",
           [&](Sink* s) {
             return RunHandwrittenFold(groups, values, fold.tuples, s);
           }},
          {"closure",
           [&](Sink* s) {
             vm_sink = s;  // bailout replays emit through the VM
             return RunKernelFold(groups, values, *closure, &vm, s);
           }},
          {"vm",
           [&](Sink* s) {
             vm_sink = s;
             return RunVmFold(groups, values, &vm);
           }},
      };
      const std::string config =
          StrPrintf("%s/g%lld", fold.name, static_cast<long long>(group_size));
      const double ratio = ReportRow(config, "values", values, legs, &table);
      if (ratio < 0) return 1;
      closure_vs_hand.emplace_back(config, ratio);
    }
  }
  table.Print();
  std::printf("closure rate / hand-written rate:");
  for (const auto& [config, ratio] : closure_vs_hand) {
    std::printf(" %s %.2fx", config.c_str(), ratio);
  }
  std::printf("\n");
  return 0;
}

}  // namespace
}  // namespace manimal::bench

int main() { return manimal::bench::Main(); }
