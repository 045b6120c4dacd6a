// manimal_perfbench: one benchmark session. A single client runs a
// workload's job stream in a closed loop (each job is submitted after
// the previous one finished) for a fixed time, checks every output
// against the conventional run, and prints one JSON object with the
// raw timings as the last line of its standard output. run.py builds
// this program, runs sessions and turns their samples into metrics.
//
//   manimal_perfbench --workload <name> --seed <n> --seconds <s>
//                     --trace <0|1> --work <dir> [--corrupt-reference]
//
// --trace 1 runs two stacks side by side, alternating rounds: an
// untraced one and one with spans and EXPLAIN ANALYZE. It reports the
// per-layer metrics and the self-time table, and writes the spans to
// <dir>/trace.json.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/env.h"
#include "common/strings.h"
#include "layers.h"
#include "obs/json.h"
#include "stack.h"

extern char** environ;

namespace perfbench {
namespace {

using manimal::StrPrintf;
using manimal::obs::JsonNumber;
using manimal::obs::JsonQuote;

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "manimal_perfbench: %s\n", message.c_str());
  std::exit(1);
}

void CheckOk(const manimal::Status& status, const char* what) {
  if (!status.ok()) Die(std::string(what) + ": " + status.ToString());
}

// Every MANIMAL_* variable changes what the library does (backend,
// codecs, direct evaluation, replanning, explain, trace, stats, ...).
// Refuse to run under any of them so a stray one cannot change what
// is measured.
void RefuseManimalEnv() {
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "MANIMAL_", 8) == 0) {
      Die(std::string("refusing to run with ") + *e +
          " set; unset every MANIMAL_* variable");
    }
  }
}

std::string ThpMode() {
  manimal::Result<std::string> text = manimal::ReadFileToString(
      "/sys/kernel/mm/transparent_hugepage/enabled");
  if (!text.ok()) return "unknown";
  const size_t open = text->find('['), close = text->find(']');
  if (open == std::string::npos || close == std::string::npos) {
    return "unknown";
  }
  return text->substr(open + 1, close - open - 1);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// Host speed probe: the CPU milliseconds this thread takes to sort a
// fixed pseudo-random array of 2^20 integers. On a shared host the
// speed of a core drifts by up to a third over minutes (other guests on
// the same cores, caches and memory; see README.md, "Steadiness"), and
// run.py scales each session's gated times by this probe. It is the
// benchmark's own code and runs while the system is idle, so no change
// to the system under test changes the work it does.
double CalibrationMs() {
  std::vector<uint64_t> values(uint64_t{1} << 20);
  uint64_t x = 88172645463325252ULL;
  for (uint64_t& v : values) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    v = x;
  }
  timespec start{}, end{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &start);
  std::sort(values.begin(), values.end());
  // Keeps the sorted array observable, so the sort is neither elided
  // nor moved past the second clock read.
  asm volatile("" : : "r"(values.data()) : "memory");
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &end);
  return static_cast<double>(end.tv_sec - start.tv_sec) * 1e3 +
         static_cast<double>(end.tv_nsec - start.tv_nsec) / 1e6;
}

// Probes before set-up and after the loop, and one per this many
// seconds of the loop (each takes about a tenth of a second).
constexpr int kEdgeCalibrations = 3;
constexpr double kCalibrationEverySeconds = 2;

// A session runs at least this many rounds (one job of each type, or
// one rebuild cycle), beyond its time if the host is slow: run.py pools
// five sessions, and each type's 90th percentile then has at least ten
// of its 105 or more samples beyond it.
constexpr int kMinRounds = 21;

std::string SamplesJson(
    const std::vector<std::pair<std::string, double>>& samples) {
  std::string out = "[";
  for (size_t i = 0; i < samples.size(); ++i) {
    if (i > 0) out += ",";
    out += "[" + JsonQuote(samples[i].first) + "," +
           JsonNumber(samples[i].second) + "]";
  }
  return out + "]";
}

struct Args {
  Workload workload = Workload::kSelectiveIndexed;
  std::string workload_name;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string work;
  bool corrupt_reference = false;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-reference") {
      args.corrupt_reference = true;
      continue;
    }
    if (i + 1 >= argc) Die("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload_name = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--work") {
      args.work = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  std::optional<Workload> workload = WorkloadFromName(args.workload_name);
  if (!workload) Die("unknown workload '" + args.workload_name + "'");
  args.workload = *workload;
  if (args.seconds <= 0) Die("--seconds must be positive");
  if (args.work.empty()) Die("--work is required");
  return args;
}

std::string HostJson(const Args& args) {
  return StrPrintf(
      "{\"nproc\":%u,\"compiler\":%s,\"build_type\":%s,\"thp\":%s,"
      "\"workload\":%s,\"seed\":%llu}",
      std::thread::hardware_concurrency(),
      JsonQuote(PERFBENCH_COMPILER).c_str(),
      JsonQuote(PERFBENCH_BUILD_TYPE).c_str(), JsonQuote(ThpMode()).c_str(),
      JsonQuote(args.workload_name).c_str(),
      static_cast<unsigned long long>(args.seed));
}

// An untraced session: set up, then run the job stream for the given
// time. Prints the raw samples.
int RunSession(const Args& args) {
  Stack stack(args.work + "/stack", args.workload, args.seed, nullptr,
              nullptr);
  if (args.corrupt_reference) stack.CorruptReferences();
  std::vector<double> calibration;
  for (int i = 0; i < kEdgeCalibrations; ++i) {
    calibration.push_back(CalibrationMs());
  }
  const Clock::time_point setup_start = Clock::now();
  CheckOk(stack.Setup(), "setup");
  const Clock::time_point loop_start = Clock::now();
  Clock::time_point last_calibration = loop_start;
  int rounds = 0;
  do {
    CheckOk(stack.Round(), "round");
    ++rounds;
    if (Seconds(last_calibration, Clock::now()) >= kCalibrationEverySeconds) {
      calibration.push_back(CalibrationMs());
      last_calibration = Clock::now();
    }
  } while (Seconds(loop_start, Clock::now()) < args.seconds ||
           rounds < kMinRounds);
  for (int i = 0; i < kEdgeCalibrations; ++i) {
    calibration.push_back(CalibrationMs());
  }

  std::string calibration_json = "[";
  for (size_t i = 0; i < calibration.size(); ++i) {
    if (i > 0) calibration_json += ",";
    calibration_json += JsonNumber(calibration[i]);
  }
  calibration_json += "]";
  const Samples& s = stack.samples();
  std::printf(
      "{\"host\":%s,\"setup_s\":%s,\"system_s\":%s,"
      "\"peak_rss_mb\":%s,\"space_ratio\":%s,\"workspace_entries\":%zu,"
      "\"attempted\":%llu,\"failed\":%llu,\"jobs\":%s,\"job_cpu\":%s,"
      "\"builds\":%s,\"calibration_ms\":%s}\n",
      HostJson(args).c_str(),
      JsonNumber(Seconds(setup_start, loop_start)).c_str(),
      JsonNumber(s.system_s).c_str(), JsonNumber(PeakRssMb()).c_str(),
      JsonNumber(stack.SpaceRatio()).c_str(), stack.WorkspaceEntries(),
      static_cast<unsigned long long>(s.attempted),
      static_cast<unsigned long long>(s.failed),
      SamplesJson(s.jobs).c_str(), SamplesJson(s.job_cpu).c_str(),
      SamplesJson(s.builds).c_str(), calibration_json.c_str());
  return s.failed > 0 ? 3 : 0;
}

// The traced session: an untraced and a traced stack, alternating
// rounds. Prints the per-layer metrics and both stacks' job samples.
int RunTracedSession(const Args& args) {
  Tracer tracer(Clock::now());
  LayerTally tally;
  Stack plain(args.work + "/plain", args.workload, args.seed, nullptr,
              &tally);
  Stack traced(args.work + "/traced", args.workload, args.seed, &tracer,
               &tally);
  if (args.corrupt_reference) {
    plain.CorruptReferences();
    traced.CorruptReferences();
  }
  CheckOk(plain.Setup(), "setup");
  CheckOk(traced.Setup(), "traced setup");
  const Clock::time_point loop_start = Clock::now();
  do {
    CheckOk(plain.Round(), "round");
    CheckOk(traced.Round(), "traced round");
  } while (Seconds(loop_start, Clock::now()) < args.seconds);

  std::map<std::string, double> metrics = LayerMetrics(tracer, tally);
  metrics["core.workspace_entries"] =
      static_cast<double>(plain.WorkspaceEntries());
  const uint64_t attempted =
      plain.samples().attempted + traced.samples().attempted;
  const uint64_t failed = plain.samples().failed + traced.samples().failed;

  std::fprintf(stderr, "per-layer self time, %s (traced stack)\n%s",
               args.workload_name.c_str(), LayerTable(tracer).c_str());
  CheckOk(tracer.WriteChromeTrace(args.work + "/trace.json"),
          "write trace");

  std::string layers = "{";
  for (const auto& [name, value] : metrics) {
    if (layers.size() > 1) layers += ",";
    layers += JsonQuote(name) + ":" + JsonNumber(value);
  }
  layers += "}";
  std::printf(
      "{\"host\":%s,\"attempted\":%llu,\"failed\":%llu,\"layers\":%s,"
      "\"jobs\":%s,\"traced_jobs\":%s}\n",
      HostJson(args).c_str(), static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), layers.c_str(),
      SamplesJson(plain.samples().jobs).c_str(),
      SamplesJson(traced.samples().jobs).c_str());
  return failed > 0 ? 3 : 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RefuseManimalEnv();
  const Args args = ParseArgs(argc, argv);
  CheckOk(manimal::CreateDirIfMissing(args.work), "work dir");
  return args.trace ? RunTracedSession(args) : RunSession(args);
}
