// One benchmark stack: the generated inputs, a ManimalSystem over its
// own workspace, the artifacts built for it, and the stream of user
// jobs a workload submits to it, each checked against the reference
// output of the conventional run.

#ifndef PERFBENCH_STACK_H_
#define PERFBENCH_STACK_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analyzer/index_gen.h"
#include "core/manimal.h"
#include "layers.h"

namespace perfbench {

enum class Workload { kSelectiveIndexed, kScanAggregate, kRebuild };

std::optional<Workload> WorkloadFromName(std::string_view name);

// What a stack measured. Times are milliseconds, tagged with the job
// type or artifact they belong to.
struct Samples {
  std::vector<std::pair<std::string, double>> jobs;
  // CPU time the process spent on each job, over all its threads.
  std::vector<std::pair<std::string, double>> job_cpu;
  std::vector<std::pair<std::string, double>> builds;
  // Time the loop spent inside timed calls (jobs and rebuilds), i.e.
  // without the benchmark's own output checks and input rewrites.
  double system_s = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

class Stack {
 public:
  // `tracer` non-null: spans around every call, and EXPLAIN ANALYZE
  // on, feeding `tally` with TaskStat rows, builds and scan probes.
  // `tracer` null and `tally` non-null: `tally` counts the JobResults
  // of untraced jobs.
  Stack(std::string dir, Workload workload, uint64_t seed, Tracer* tracer,
        LayerTally* tally);
  ~Stack();

  // Generates the inputs, opens the system, builds the artifacts and
  // takes the reference outputs.
  manimal::Status Setup();
  // One pass over the job stream, or one rebuild cycle.
  manimal::Status Round();

  // Alters every reference output taken from now on, so the output
  // check must fail (the benchmark's self-test).
  void CorruptReferences() { corrupt_ = true; }

  // Cataloged artifact bytes / bytes of the inputs they index.
  double SpaceRatio() const;
  // Entries left under the workspaces' tmp/ directories.
  size_t WorkspaceEntries() const;
  const Samples& samples() const { return samples_; }

 private:
  struct JobType {
    std::string name;
    std::string query;  // (program, input) identity for references
    manimal::mril::Program program;
    std::string input;
    bool baseline = false;  // RunBaseline instead of Submit
    manimal::core::ManimalSystem* system = nullptr;
  };
  // The conventional run's output: its canonical pairs, and its bytes
  // for a quick identical-file check.
  struct Reference {
    std::vector<std::string> pairs;
    std::string bytes;
  };
  struct Artifact {
    std::string name;
    manimal::analyzer::IndexGenProgram spec;
    std::string input;
  };

  std::string Data(const std::string& name) const;
  manimal::Result<std::unique_ptr<manimal::core::ManimalSystem>> Open(
      const std::string& workspace, uint64_t sort_buffer_bytes) const;
  manimal::Status Generate();
  manimal::Status GenerateVisits(uint64_t seed);
  manimal::Status AddSubmit(const std::string& name,
                            manimal::mril::Program program,
                            const std::string& input, bool reencoded);
  manimal::Status Build(const Artifact& artifact);
  manimal::Status TakeReferences();
  manimal::Status RunJob(const JobType& type);
  void Check(const JobType& type);
  void ScanProbe(const std::string& path,
                 const manimal::exec::JobResult& job);

  std::string dir_;
  Workload workload_;
  uint64_t seed_;
  Tracer* tracer_;
  LayerTally* tally_;
  bool corrupt_ = false;
  int cycle_ = 0;

  std::unique_ptr<manimal::core::ManimalSystem> system_;
  // scan_aggregate only: the conventional B2 run, on a workspace of
  // its own with a sort budget its map output overflows.
  std::unique_ptr<manimal::core::ManimalSystem> spill_system_;
  std::vector<JobType> types_;
  std::vector<Artifact> artifacts_;
  std::map<std::string, Reference> references_;
  Samples samples_;
};

}  // namespace perfbench

#endif  // PERFBENCH_STACK_H_
