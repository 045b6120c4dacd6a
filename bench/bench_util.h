// Shared plumbing for the paper-table benchmark binaries.
//
// Scale control:
//   MANIMAL_SCALE  multiplies dataset sizes (default 1; the defaults
//                  keep every bench in the seconds range — the paper's
//                  hundred-GB datasets are reached by raising this).
//   MANIMAL_RUNS   timed repetitions averaged per configuration
//                  (default 1; the paper averaged 3).
//   MANIMAL_SORT_BUFFER_BYTES  total map-side sort budget, divided
//                  across mappers (default 32 MiB; shrink to force
//                  shuffle spills — see docs/execution.md).
//
// Telemetry (see docs/observability.md):
//   MANIMAL_BENCH_JSON  append one JSON object per reported row to
//                       this file (JSON lines) — machine-readable
//                       mirror of the printed tables.
//   MANIMAL_TRACE       write a Chrome trace-event JSON of the whole
//                       run to this path (open in chrome://tracing or
//                       https://ui.perfetto.dev).

#ifndef MANIMAL_BENCH_BENCH_UTIL_H_
#define MANIMAL_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/status.h"
#include "common/strings.h"
#include "core/manimal.h"
#include "exec/pairfile.h"
#include "obs/json.h"

namespace manimal::bench {

inline int64_t ScaleFactor() { return EnvInt64("MANIMAL_SCALE", 1); }
inline int Runs() {
  return static_cast<int>(EnvInt64("MANIMAL_RUNS", 1));
}

// Aborts the bench with a message on error (benches are top-level
// programs; there is nobody to propagate to).
inline void CheckOk(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "FATAL %s: %s\n", what,
                 status.ToString().c_str());
    std::exit(1);
  }
}

template <typename T>
T CheckOk(Result<T> result, const char* what) {
  CheckOk(result.status(), what);
  return std::move(result).value();
}

// A scratch workspace under the system temp dir, removed on
// destruction.
class BenchWorkspace {
 public:
  explicit BenchWorkspace(const std::string& tag)
      : dir_(MakeTempDir("bench-" + tag)) {}
  ~BenchWorkspace() { (void)RemoveDirRecursively(dir_); }

  const std::string& dir() const { return dir_; }
  std::string file(const std::string& name) const {
    return dir_ + "/" + name;
  }

  std::unique_ptr<core::ManimalSystem> OpenSystem(
      double startup_seconds = 0.01) {
    core::ManimalSystem::Options options;
    options.workspace_dir = file("ws");
    options.map_parallelism =
        static_cast<int>(EnvInt64("MANIMAL_THREADS", 4));
    options.num_partitions = options.map_parallelism;
    options.sort_buffer_bytes = static_cast<uint64_t>(EnvInt64(
        "MANIMAL_SORT_BUFFER_BYTES",
        static_cast<int64_t>(options.sort_buffer_bytes)));
    options.simulated_startup_seconds = startup_seconds;
    return CheckOk(core::ManimalSystem::Open(options), "open system");
  }

 private:
  std::string dir_;
};

// Runs `fn` Runs() times and returns the mean JobResult (times
// averaged, counters from the last run).
inline exec::JobResult Averaged(
    const std::function<exec::JobResult()>& fn) {
  exec::JobResult last;
  double wall = 0, reported = 0;
  int runs = std::max(1, Runs());
  for (int i = 0; i < runs; ++i) {
    last = fn();
    wall += last.wall_seconds;
    reported += last.reported_seconds;
  }
  last.wall_seconds = wall / runs;
  last.reported_seconds = reported / runs;
  return last;
}

// Simple fixed-width table printer.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void AddRow(std::vector<std::string> row) {
    rows_.push_back(std::move(row));
  }

  void Print() const {
    std::vector<size_t> widths(headers_.size(), 0);
    auto widen = [&](const std::vector<std::string>& row) {
      for (size_t i = 0; i < row.size() && i < widths.size(); ++i) {
        widths[i] = std::max(widths[i], row[i].size());
      }
    };
    widen(headers_);
    for (const auto& row : rows_) widen(row);
    auto print_row = [&](const std::vector<std::string>& row) {
      for (size_t i = 0; i < widths.size(); ++i) {
        std::printf("%-*s  ", static_cast<int>(widths[i]),
                    i < row.size() ? row[i].c_str() : "");
      }
      std::printf("\n");
    };
    print_row(headers_);
    for (size_t i = 0; i < widths.size(); ++i) {
      std::printf("%s  ", std::string(widths[i], '-').c_str());
    }
    std::printf("\n");
    for (const auto& row : rows_) print_row(row);
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string Secs(double s) { return StrPrintf("%.3f s", s); }
inline std::string Ratio(double r) { return StrPrintf("%.2fx", r); }
inline std::string Pct(double r) { return StrPrintf("%.1f%%", r * 100); }

// ---- machine-readable results (MANIMAL_BENCH_JSON) ----

// One escaping implementation for every JSON artifact (see
// src/obs/json.h — the old local copy here forgot '\r').
using obs::JsonEscape;

// One row of bench output as a JSON object, appended as a single line
// to $MANIMAL_BENCH_JSON when set (no-op otherwise). Usage:
//   JsonRow("table2_endtoend", "grep-baseline")
//       .Num("speedup", 14.5).Job(job).Emit();
class JsonRow {
 public:
  JsonRow(const std::string& bench, const std::string& row) {
    Str("bench", bench);
    Str("row", row);
    Int("scale", ScaleFactor());
  }

  JsonRow& Str(const std::string& key, const std::string& value) {
    std::string quoted;
    quoted += '"';
    quoted += JsonEscape(value);
    quoted += '"';
    return Raw(key, quoted);
  }
  JsonRow& Num(const std::string& key, double value) {
    return Raw(key, StrPrintf("%.6g", value));
  }
  JsonRow& Int(const std::string& key, int64_t value) {
    return Raw(key, StrPrintf("%lld", static_cast<long long>(value)));
  }

  // Expands a JobResult: timings, every job counter, phase breakdown.
  JsonRow& Job(const exec::JobResult& job) {
    Num("wall_seconds", job.wall_seconds);
    Num("reported_seconds", job.reported_seconds);
    Num("simulated_io_seconds", job.simulated_io_seconds);
    job.counters.ForEach([this](const char* name, uint64_t value) {
      Int(name, static_cast<int64_t>(value));
    });
    std::string phases;
    for (const auto& [name, stat] : job.phase_breakdown) {
      if (!phases.empty()) phases += ",";
      phases += StrPrintf("\"%s\":{\"seconds\":%.6g,\"bytes\":%llu}",
                          JsonEscape(name).c_str(), stat.seconds,
                          static_cast<unsigned long long>(stat.bytes));
    }
    return Raw("phases", "{" + phases + "}");
  }

  JsonRow& Raw(const std::string& key, const std::string& json) {
    if (!fields_.empty()) fields_ += ',';
    fields_ += '"';
    fields_ += JsonEscape(key);
    fields_ += "\":";
    fields_ += json;
    return *this;
  }

  void Emit() {
    const char* path = std::getenv("MANIMAL_BENCH_JSON");
    if (path == nullptr || *path == '\0') return;
    std::FILE* f = std::fopen(path, "a");
    if (f == nullptr) return;
    std::fprintf(f, "{%s}\n", fields_.c_str());
    std::fclose(f);
  }

 private:
  std::string fields_;
};

}  // namespace manimal::bench

#endif  // MANIMAL_BENCH_BENCH_UTIL_H_
