// The shuffle: moves sorted map output into reduce partitions.
//
// Each map task owns a Shuffle::Mapper — num_partitions private
// SpillBuffers that accumulate emits with no synchronization at all
// (the emit hot path takes no lock), spill independently as sorted
// run files when the mapper's budget fills, and hand their runs plus
// the sorted in-memory tails to the partition state in one locked
// handoff at Seal(). At the map/reduce barrier each partition k-way
// heap-merges everything it received (FinishPartition), and
// GroupIterator walks the merged stream one key group at a time so
// reduce runs in bounded memory. See docs/execution.md.

#ifndef MANIMAL_EXEC_SHUFFLE_H_
#define MANIMAL_EXEC_SHUFFLE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "index/external_sorter.h"
#include "serde/value.h"

namespace manimal::obs {
class Counter;
}  // namespace manimal::obs

namespace manimal::exec {

class Shuffle {
 public:
  struct Options {
    std::string temp_dir;  // required: where spill runs live
    int num_partitions = 1;
    // In-memory buffer budget per mapper, shared across its partition
    // buffers; the largest buffer spills when the budget fills.
    uint64_t mapper_budget_bytes = 8u << 20;
    // Spills publish "<label>.spilled_runs" / "<label>.spilled_bytes"
    // counters and "<label>.spill" trace instants; merges record the
    // "<label>.merge_fan_in" histogram.
    std::string metric_label = "shuffle";
    // Job id stamped on the shuffle's journal events (shuffle_spill /
    // shuffle_merge) so they correlate with the owning job's lifecycle
    // events; empty = standalone shuffle (index builds, tests).
    std::string job_id;
  };

  struct Stats {
    uint64_t spilled_runs = 0;
    uint64_t spilled_bytes = 0;
    uint64_t entries = 0;
    uint64_t mappers_sealed = 0;
  };

  // One map task's private view of the shuffle. Add() and Seal() are
  // called from the owning map task only; different Mappers never
  // share mutable state, which is what keeps the emit path lock-free.
  class Mapper {
   public:
    ~Mapper();
    Mapper(const Mapper&) = delete;
    Mapper& operator=(const Mapper&) = delete;

    // Buffers one (key, payload) emit for `partition`; spills the
    // largest partition buffer to disk when the budget fills.
    Status Add(int partition, std::string_view key,
               std::string_view payload);

    // Sorts the in-memory tails and hands runs + tails to the parent
    // shuffle (the only synchronized step). Call exactly once, after
    // the task's last Add.
    Status Seal();

   private:
    friend class Shuffle;
    Mapper(Shuffle* shuffle, int id);

    Status Spill(int partition);

    Shuffle* const shuffle_;
    const int id_;
    uint64_t buffered_bytes_ = 0;
    uint64_t entries_ = 0;
    bool sealed_ = false;
    std::vector<index::SpillBuffer> buffers_;          // one per partition
    std::vector<std::vector<std::string>> run_paths_;  // one per partition
    // Key + payload bytes spilled or sealed, one per partition.
    std::vector<uint64_t> partition_bytes_;
  };

  explicit Shuffle(Options options);
  ~Shuffle();  // removes all handed-over run files

  Shuffle(const Shuffle&) = delete;
  Shuffle& operator=(const Shuffle&) = delete;

  // Thread-safe; one per map task.
  std::unique_ptr<Mapper> NewMapper();

  // Heap-merges every run and in-memory tail sealed into partition
  // `p`. Call after all mappers sealed; the Shuffle must outlive the
  // stream. Re-callable: the partition's runs stay owned by the
  // Shuffle, so a retried reduce task simply merges again.
  Result<std::unique_ptr<index::SortedStream>> FinishPartition(int p);

  // Key + payload bytes the sealed mappers handed to partition `p`:
  // what its reduce task merges.
  uint64_t PartitionBytes(int p) const;

  Stats stats() const;

 private:
  struct PartitionState {
    std::vector<std::string> run_paths;
    std::vector<index::MemoryRun> memory_runs;
    uint64_t bytes = 0;
  };

  void OnSpill(int mapper_id, int partition, uint64_t run_bytes);

  Options options_;
  obs::Counter* spilled_runs_counter_;
  obs::Counter* spilled_bytes_counter_;
  std::atomic<int> next_mapper_id_{0};
  mutable std::mutex mu_;  // guards partitions_ and stats_
  std::vector<PartitionState> partitions_;
  Stats stats_;
};

// Iterates (key, values) groups off a merged shuffle stream holding
// one group at a time. Values are decoded in canonically sorted
// (encoded-bytes) order: the shuffle's arrival order is
// nondeterministic, so a fixed order keeps runs reproducible and
// baseline/optimized outputs comparable.
//
// A group costs no allocation once the buffers are warm. Str keys and
// values are decoded as borrowed views into the iterator's own group
// buffers, valid until the next call to Next(); and when *values
// still holds the previous group's list and nothing else shares it,
// the new group is decoded into that storage in place (the VM
// promotes anything a reduce retains, and drops its references when
// the invocation returns).
class GroupIterator {
 public:
  explicit GroupIterator(index::SortedStream* stream)
      : stream_(stream) {}

  // Fills *key (decoded group key) and *values (a list); false at end.
  Result<bool> Next(Value* key, Value* values);

 private:
  index::SortedStream* const stream_;
  std::string group_key_;
  std::vector<std::string> encoded_values_;  // reused across groups
};

}  // namespace manimal::exec

#endif  // MANIMAL_EXEC_SHUFFLE_H_
