#include "stack.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <thread>

#include "analyzer/analyzer.h"
#include "columnar/seqfile.h"
#include "common/env.h"
#include "exec/pairfile.h"
#include "optimizer/optimizer.h"
#include "workloads/datagen.h"
#include "workloads/pavlo.h"

namespace perfbench {

using manimal::Result;
using manimal::Status;
namespace analyzer = manimal::analyzer;
namespace core = manimal::core;
namespace exec = manimal::exec;
namespace workloads = manimal::workloads;

namespace {

// Input sizes. Each job takes milliseconds (selective_indexed) to about
// a hundred milliseconds (scan_aggregate), so one run times hundreds to
// thousands of jobs.
constexpr uint64_t kRankings = 200000;
constexpr uint64_t kPages = 60000;
constexpr int kPageContent = 384;
constexpr uint64_t kVisits = 150000;
constexpr uint64_t kVisitPages = 20000;
constexpr uint64_t kDocs = 4000;
// rebuild rewrites and re-indexes UserVisits every cycle; a smaller
// file gives enough cycles per run for a 90th percentile.
constexpr uint64_t kRebuildVisits = 30000;
// Sort budget of the system that runs scan_aggregate's conventional B2
// job: small enough that every map task spills sorted runs and the
// reduce side merges them. The default budget (32 MiB over 4 mappers)
// would need ~100 MB of map output per job to spill.
constexpr uint64_t kSpillSortBuffer = 512u << 10;

// Set-up builds every artifact this many times (a rebuild replaces the
// catalog entry). The read-only workloads' build times come only from
// these builds; more than one per process steadies their percentiles.
constexpr int kSetupBuilds = 2;

// A distinct, reproducible generator seed per (workload seed, salt).
uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + salt + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double Ms(Clock::time_point a, Clock::time_point b) {
  return Seconds(a, b) * 1000;
}

// CPU time of the whole process (all threads), in milliseconds. The
// kernel leaves out time the hypervisor gave to other guests (steal).
double ProcessCpuMs() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const timeval& u = usage.ru_utime;
  const timeval& s = usage.ru_stime;
  return (u.tv_sec + s.tv_sec) * 1e3 + (u.tv_usec + s.tv_usec) / 1e3;
}

double Phase(const exec::JobResult& job, const char* name) {
  auto it = job.phase_breakdown.find(name);
  return it == job.phase_breakdown.end() ? 0.0 : it->second.seconds;
}

}  // namespace

std::optional<Workload> WorkloadFromName(std::string_view name) {
  if (name == "selective_indexed") return Workload::kSelectiveIndexed;
  if (name == "scan_aggregate") return Workload::kScanAggregate;
  if (name == "rebuild") return Workload::kRebuild;
  return std::nullopt;
}

Stack::Stack(std::string dir, Workload workload, uint64_t seed,
             Tracer* tracer, LayerTally* tally)
    : dir_(std::move(dir)),
      workload_(workload),
      seed_(seed),
      tracer_(tracer),
      tally_(tally) {}

Stack::~Stack() {
  system_.reset();
  spill_system_.reset();
  (void)manimal::RemoveDirRecursively(dir_);
}

std::string Stack::Data(const std::string& name) const {
  return dir_ + "/data/" + name;
}

Result<std::unique_ptr<core::ManimalSystem>> Stack::Open(
    const std::string& workspace, uint64_t sort_buffer_bytes) const {
  core::ManimalSystem::Options options;
  options.workspace_dir = workspace;
  const int cores =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  options.map_parallelism = std::min(options.map_parallelism, cores);
  if (sort_buffer_bytes > 0) options.sort_buffer_bytes = sort_buffer_bytes;
  if (tracer_ != nullptr) {
    options.explain = manimal::optimizer::ExplainMode::kAnalyze;
  }
  return core::ManimalSystem::Open(options);
}

Status Stack::GenerateVisits(uint64_t seed) {
  workloads::UserVisitsOptions visits;
  visits.num_visits =
      workload_ == Workload::kRebuild ? kRebuildVisits : kVisits;
  visits.num_pages = kVisitPages;
  visits.seed = seed;
  return workloads::GenerateUserVisits(Data("visits.msq"), visits).status();
}

Status Stack::Generate() {
  MANIMAL_RETURN_IF_ERROR(GenerateVisits(Mix(seed_, 1)));
  if (workload_ == Workload::kSelectiveIndexed) {
    workloads::RankingsOptions rankings;
    rankings.num_pages = kRankings;
    rankings.seed = Mix(seed_, 2);
    MANIMAL_RETURN_IF_ERROR(
        workloads::GenerateRankings(Data("rankings.msq"), rankings)
            .status());
    workloads::WebPagesOptions pages;
    pages.num_pages = kPages;
    pages.content_len = kPageContent;
    pages.seed = Mix(seed_, 3);
    MANIMAL_RETURN_IF_ERROR(
        workloads::GenerateWebPages(Data("pages.msq"), pages).status());
  }
  if (workload_ == Workload::kScanAggregate) {
    workloads::UserVisitsOptions chrono;
    chrono.num_visits = kVisits;
    chrono.num_pages = kVisitPages;
    chrono.chronological = true;
    chrono.seed = Mix(seed_, 4);
    MANIMAL_RETURN_IF_ERROR(
        workloads::GenerateUserVisits(Data("visits_chrono.msq"), chrono)
            .status());
    workloads::DocumentsOptions docs;
    docs.num_docs = kDocs;
    docs.num_pages = kVisitPages;
    docs.seed = Mix(seed_, 5);
    MANIMAL_RETURN_IF_ERROR(
        workloads::GenerateDocuments(Data("docs.msq"), docs).status());
  }
  return Status::OK();
}

// Adds a Submit job type and the artifact that serves it: the
// analyzer's first (maximal) index program, or with `reencoded` its
// re-encoded SeqFile (whose skip frames direct evaluation reads).
// B4 gets no artifact: the analyzer suggests none.
Status Stack::AddSubmit(const std::string& name, manimal::mril::Program program,
                        const std::string& input, bool reencoded) {
  MANIMAL_ASSIGN_OR_RETURN(analyzer::AnalysisReport report,
                           analyzer::Analyze(program));
  std::vector<analyzer::IndexGenProgram> specs =
      analyzer::SynthesizeIndexPrograms(program, report);
  const analyzer::IndexGenProgram* spec =
      specs.empty() ? nullptr : &specs[0];
  if (reencoded) {
    spec = nullptr;
    for (const auto& s : specs) {
      if (!s.btree && !s.column_groups) spec = &s;
    }
    if (spec == nullptr) {
      return Status::Internal(name + ": no re-encoded index program");
    }
  }
  if (spec != nullptr) {
    const std::string signature = spec->Signature();
    bool built = false;
    for (const Artifact& a : artifacts_) {
      built = built || (a.spec.Signature() == signature && a.input == input);
    }
    if (!built) {
      artifacts_.push_back(
          {name + (spec->btree ? ".btree" : ".reencoded"), *spec, input});
    }
  }
  types_.push_back(
      {name, name, std::move(program), input, false, system_.get()});
  return Status::OK();
}

Status Stack::Setup() {
  (void)manimal::RemoveDirRecursively(dir_);
  MANIMAL_RETURN_IF_ERROR(manimal::CreateDirIfMissing(dir_));
  MANIMAL_RETURN_IF_ERROR(manimal::CreateDirIfMissing(dir_ + "/data"));
  MANIMAL_RETURN_IF_ERROR(manimal::CreateDirIfMissing(dir_ + "/out"));
  MANIMAL_RETURN_IF_ERROR(Generate());
  MANIMAL_ASSIGN_OR_RETURN(system_, Open(dir_ + "/ws", 0));

  const workloads::UserVisitsOptions visits;
  const int64_t epoch = visits.date_epoch;
  const int64_t range = visits.date_range;
  // B3's paper selectivity (~0.1% of UserVisits) and a wide ~25% range.
  const auto b3_narrow = [&] {
    return workloads::Benchmark3Join(
        epoch, epoch + std::max<int64_t>(1, range / 1000) - 1);
  };
  const int64_t rank_range = workloads::WebPagesOptions().rank_range;
  switch (workload_) {
    case Workload::kSelectiveIndexed:
      // B1 keeps 0.02% of Rankings; the count queries 1% and 10% of
      // WebPages (pageRank is uniform in [0, rank_range)).
      MANIMAL_RETURN_IF_ERROR(AddSubmit(
          "b1", workloads::Benchmark1Selection(rank_range - 20),
          Data("rankings.msq"), false));
      MANIMAL_RETURN_IF_ERROR(
          AddSubmit("b3", b3_narrow(), Data("visits.msq"), false));
      MANIMAL_RETURN_IF_ERROR(AddSubmit(
          "count-1pct",
          workloads::SelectionCountQuery(rank_range - rank_range / 100 - 1),
          Data("pages.msq"), false));
      MANIMAL_RETURN_IF_ERROR(AddSubmit(
          "count-10pct",
          workloads::SelectionCountQuery(rank_range - rank_range / 10 - 1),
          Data("pages.msq"), false));
      break;
    case Workload::kScanAggregate: {
      MANIMAL_RETURN_IF_ERROR(AddSubmit(
          "b2", workloads::Benchmark2Aggregation(), Data("visits.msq"),
          false));
      MANIMAL_ASSIGN_OR_RETURN(spill_system_,
                               Open(dir_ + "/ws-spill", kSpillSortBuffer));
      types_.push_back({"b2-baseline", "b2",
                        workloads::Benchmark2Aggregation(),
                        Data("visits.msq"), true, spill_system_.get()});
      MANIMAL_RETURN_IF_ERROR(AddSubmit("b4",
                                        workloads::Benchmark4UdfAggregation(),
                                        Data("docs.msq"), false));
      MANIMAL_RETURN_IF_ERROR(AddSubmit(
          "b3-wide",
          workloads::Benchmark3Join(epoch + range / 2,
                                    epoch + range / 2 + range / 4),
          Data("visits_chrono.msq"), true));
      break;
    }
    case Workload::kRebuild:
      MANIMAL_RETURN_IF_ERROR(AddSubmit(
          "b2", workloads::Benchmark2Aggregation(), Data("visits.msq"),
          false));
      MANIMAL_RETURN_IF_ERROR(
          AddSubmit("b3", b3_narrow(), Data("visits.msq"), false));
      break;
  }
  for (int i = 0; i < kSetupBuilds; ++i) {
    for (const Artifact& artifact : artifacts_) {
      MANIMAL_RETURN_IF_ERROR(Build(artifact));
    }
  }
  MANIMAL_RETURN_IF_ERROR(TakeReferences());
  samples_.system_s = 0;
  return Status::OK();
}

Status Stack::Build(const Artifact& artifact) {
  ++samples_.attempted;
  const Clock::time_point start = Clock::now();
  Result<exec::IndexBuildResult> build =
      system_->BuildIndex(artifact.spec, artifact.input);
  const Clock::time_point end = Clock::now();
  samples_.system_s += Seconds(start, end);
  if (!build.ok()) {
    ++samples_.failed;
    std::fprintf(stderr, "FAILED build %s: %s\n", artifact.name.c_str(),
                 build.status().ToString().c_str());
    return build.status();
  }
  samples_.builds.emplace_back(artifact.name, Ms(start, end));
  if (tracer_ != nullptr) {
    const int span = tracer_->Add("core.build_index", -1, start, end);
    tracer_->AddChild("index_build.build", span, 0, build->seconds);
    tally_->AddBuild(*build);
  }
  return Status::OK();
}

Status Stack::TakeReferences() {
  references_.clear();
  for (const JobType& type : types_) {
    if (references_.count(type.query) > 0) continue;
    core::ManimalSystem::Submission submission;
    submission.program = type.program;
    submission.input_path = type.input;
    submission.output_path = dir_ + "/out/" + type.query + ".reference";
    MANIMAL_RETURN_IF_ERROR(system_->RunBaseline(submission).status());
    Reference& reference = references_[type.query];
    MANIMAL_ASSIGN_OR_RETURN(
        reference.pairs, exec::ReadCanonicalPairs(submission.output_path));
    MANIMAL_ASSIGN_OR_RETURN(
        reference.bytes, manimal::ReadFileToString(submission.output_path));
    if (corrupt_) {
      if (reference.pairs.empty()) {
        reference.pairs.push_back("altered");
      } else {
        reference.pairs[0] += "altered";
      }
      reference.bytes.clear();
    }
  }
  return Status::OK();
}

Status Stack::Round() {
  if (workload_ == Workload::kRebuild) {
    // Rewrite the input in place (untimed), rebuild every artifact
    // cataloged for it (timed), and take fresh references.
    ++cycle_;
    MANIMAL_RETURN_IF_ERROR(GenerateVisits(Mix(seed_, 100 + cycle_)));
    for (const Artifact& artifact : artifacts_) {
      if (!Build(artifact).ok()) continue;  // counted in failed
    }
    MANIMAL_RETURN_IF_ERROR(TakeReferences());
  }
  for (const JobType& type : types_) {
    MANIMAL_RETURN_IF_ERROR(RunJob(type));
  }
  return Status::OK();
}

Status Stack::RunJob(const JobType& type) {
  core::ManimalSystem::Submission submission;
  submission.program = type.program;
  submission.input_path = type.input;
  submission.output_path = dir_ + "/out/" + type.name + ".out";
  ++samples_.attempted;

  const double cpu_start = ProcessCpuMs();
  Status status;
  exec::JobResult job;
  std::optional<manimal::optimizer::Plan> plan;
  Clock::time_point start, end;
  if (tracer_ == nullptr) {
    start = Clock::now();
    if (type.baseline) {
      Result<exec::JobResult> result = type.system->RunBaseline(submission);
      end = Clock::now();
      status = result.status();
      if (result.ok()) job = std::move(*result);
    } else {
      Result<core::ManimalSystem::SubmitOutcome> outcome =
          type.system->Submit(submission);
      end = Clock::now();
      status = outcome.status();
      if (outcome.ok()) {
        job = std::move(outcome->job);
        plan = std::move(outcome->plan);
      }
    }
  } else if (type.baseline) {
    start = Clock::now();
    Result<exec::JobResult> result = type.system->RunBaseline(submission);
    end = Clock::now();
    status = result.status();
    if (result.ok()) {
      job = std::move(*result);
      const int root = tracer_->Add("job", -1, start, end);
      tracer_->AddJob(tracer_->Add("core.baseline", root, start, end), job);
    }
  } else {
    // Submit is Analyze followed by SubmitWithReport; call the two
    // separately to time them. SubmitWithReport's synthesize and plan
    // steps are timed by making the same calls just before it.
    Result<analyzer::AnalysisReport> probe = analyzer::Analyze(type.program);
    double synthesize_s = 0, plan_s = 0;
    if (probe.ok()) {
      const Clock::time_point t0 = Clock::now();
      (void)analyzer::SynthesizeIndexPrograms(type.program, *probe);
      const Clock::time_point t1 = Clock::now();
      manimal::optimizer::PlanningOptions planning;
      planning.cost_based = type.system->options().cost_based_optimizer;
      (void)manimal::optimizer::BuildPlan(type.program, type.input, *probe,
                                          type.system->catalog(), planning);
      synthesize_s = Seconds(t0, t1);
      plan_s = Seconds(t1, Clock::now());
    }
    start = Clock::now();
    Result<analyzer::AnalysisReport> report = analyzer::Analyze(type.program);
    const Clock::time_point analyzed = Clock::now();
    Result<core::ManimalSystem::SubmitOutcome> outcome =
        report.ok() ? type.system->SubmitWithReport(submission,
                                                    std::move(*report))
                    : Result<core::ManimalSystem::SubmitOutcome>(
                          report.status());
    end = Clock::now();
    status = outcome.status();
    if (outcome.ok()) {
      job = std::move(outcome->job);
      plan = std::move(outcome->plan);
      const int root = tracer_->Add("job", -1, start, end);
      tracer_->Add("analyzer.analyze", root, start, analyzed);
      const int submit = tracer_->Add("core.submit", root, analyzed, end);
      tracer_->AddChild("analyzer.synthesize", submit, 0, synthesize_s);
      tracer_->AddChild("optimizer.plan", submit, synthesize_s, plan_s);
      tracer_->AddJob(submit, job);
    }
  }
  samples_.system_s += Seconds(start, end);
  if (!status.ok()) {
    ++samples_.failed;
    std::fprintf(stderr, "FAILED %s: %s\n", type.name.c_str(),
                 status.ToString().c_str());
    return Status::OK();
  }
  samples_.jobs.emplace_back(type.name, Ms(start, end));
  samples_.job_cpu.emplace_back(type.name, ProcessCpuMs() - cpu_start);

  if (tracer_ != nullptr) {
    tally_->AddTasks(job);
    const bool scan =
        !plan.has_value() ||
        plan->descriptor.access_path == exec::AccessPath::kSeqScan;
    if (scan) ScanProbe(plan ? plan->descriptor.data_path : type.input, job);
  } else if (tally_ != nullptr) {
    tally_->AddJob(job, plan.has_value(), plan && plan->optimized,
                   plan ? plan->explain.candidates.size() : 0,
                   plan && !plan->explain.predicate.empty());
  }
  Check(type);
  return Status::OK();
}

void Stack::Check(const JobType& type) {
  const std::string path = dir_ + "/out/" + type.name + ".out";
  const Reference& ref = references_[type.query];
  // A byte-identical file has identical canonical pairs; anything else
  // is compared pair by pair.
  Result<std::string> bytes = manimal::ReadFileToString(path);
  if (bytes.ok() && *bytes == ref.bytes) return;
  Result<std::vector<std::string>> pairs = exec::ReadCanonicalPairs(path);
  if (!pairs.ok()) {
    ++samples_.failed;
    std::fprintf(stderr, "FAILED %s: reading output: %s\n",
                 type.name.c_str(), pairs.status().ToString().c_str());
    return;
  }
  const std::vector<std::string>& reference = ref.pairs;
  if (*pairs == reference) return;
  ++samples_.failed;
  size_t i = 0;
  while (i < pairs->size() && i < reference.size() &&
         (*pairs)[i] == reference[i]) {
    ++i;
  }
  std::fprintf(stderr,
               "MISMATCH %s: %zu pairs, reference %zu; first difference at "
               "pair %zu\n",
               type.name.c_str(), pairs->size(), reference.size(), i);
}

// Times a standalone full scan of `path` (the columnar layer alone) and
// scales it to the bytes the job decoded, to estimate the job's decode
// time.
void Stack::ScanProbe(const std::string& path, const exec::JobResult& job) {
  Result<std::shared_ptr<manimal::columnar::SeqFileReader>> reader =
      manimal::columnar::SeqFileReader::Open(path);
  if (!reader.ok()) return;
  const Clock::time_point start = Clock::now();
  Result<manimal::columnar::SeqFileReader::RecordStream> stream = (*reader)->ScanAll();
  if (!stream.ok()) return;
  manimal::Record record;
  while (true) {
    Result<bool> more = stream->Next(&record);
    if (!more.ok() || !*more) break;
  }
  const Clock::time_point end = Clock::now();
  tracer_->Add("columnar.scan_probe", -1, start, end);
  const double seconds = Seconds(start, end);
  tally_->probe_bytes += static_cast<double>((*reader)->file_size());
  tally_->probe_s += seconds;
  if (stream->bytes_decoded() > 0) {
    tally_->decode_s += seconds *
                        static_cast<double>(job.counters.bytes_decoded) /
                        static_cast<double>(stream->bytes_decoded());
    tally_->map_slot_s +=
        Phase(job, "map") * system_->options().map_parallelism;
  }
}

double Stack::SpaceRatio() const {
  double artifact = 0, input = 0;
  std::vector<std::string> inputs;
  for (const manimal::index::CatalogEntry& e : system_->catalog().entries()) {
    artifact += static_cast<double>(e.artifact_bytes);
    if (std::find(inputs.begin(), inputs.end(), e.input_file) ==
        inputs.end()) {
      inputs.push_back(e.input_file);
      input += static_cast<double>(e.input_bytes);
    }
  }
  return input > 0 ? artifact / input : 0;
}

size_t Stack::WorkspaceEntries() const {
  size_t entries = 0;
  for (const char* ws : {"/ws/tmp", "/ws-spill/tmp"}) {
    Result<std::vector<std::string>> list = manimal::ListDir(dir_ + ws);
    if (list.ok()) entries += list->size();
  }
  return entries;
}

}  // namespace perfbench
