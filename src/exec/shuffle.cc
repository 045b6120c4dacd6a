#include "exec/shuffle.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/strings.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serde/key_codec.h"
#include "serde/record_codec.h"

namespace manimal::exec {

namespace {
// A single partition buffer never grows past this even if the mapper
// budget allows it: SpillBuffer offsets are 32-bit.
constexpr uint64_t kMaxBufferBytes = 2ull << 30;
}  // namespace

// ---------------- Shuffle::Mapper ----------------

Shuffle::Mapper::Mapper(Shuffle* shuffle, int id)
    : shuffle_(shuffle),
      id_(id),
      buffers_(shuffle->options_.num_partitions),
      run_paths_(shuffle->options_.num_partitions),
      partition_bytes_(shuffle->options_.num_partitions, 0) {}

Shuffle::Mapper::~Mapper() {
  // Sealed mappers handed their runs to the shuffle; an unsealed
  // mapper (map task that bailed on error) cleans up after itself.
  if (sealed_) return;
  for (const std::vector<std::string>& paths : run_paths_) {
    for (const std::string& path : paths) {
      (void)RemoveFileIfExists(path);
    }
  }
}

Status Shuffle::Mapper::Add(int partition, std::string_view key,
                            std::string_view payload) {
  MANIMAL_CHECK(!sealed_);
  MANIMAL_CHECK(partition >= 0 &&
                partition < static_cast<int>(buffers_.size()));
  buffers_[partition].Add(key, payload);
  buffered_bytes_ += key.size() + payload.size();
  ++entries_;
  while (buffered_bytes_ >= shuffle_->options_.mapper_budget_bytes ||
         buffers_[partition].buffered_bytes() > kMaxBufferBytes) {
    // Spill the largest buffer: fewest, longest runs for the merge.
    int largest = 0;
    for (int p = 1; p < static_cast<int>(buffers_.size()); ++p) {
      if (buffers_[p].buffered_bytes() >
          buffers_[largest].buffered_bytes()) {
        largest = p;
      }
    }
    if (buffers_[largest].empty()) break;
    MANIMAL_RETURN_IF_ERROR(Spill(largest));
  }
  return Status::OK();
}

Status Shuffle::Mapper::Spill(int partition) {
  index::SpillBuffer& buffer = buffers_[partition];
  const uint64_t arena_bytes = buffer.buffered_bytes();
  std::string path =
      shuffle_->options_.temp_dir + "/" +
      StrPrintf("shuffle-m%04d-p%04d-r%04d.sort", id_, partition,
                static_cast<int>(run_paths_[partition].size()));
  MANIMAL_ASSIGN_OR_RETURN(const uint64_t run_bytes,
                           buffer.SpillToFile(path));
  run_paths_[partition].push_back(std::move(path));
  buffered_bytes_ -= arena_bytes;
  partition_bytes_[partition] += arena_bytes;
  shuffle_->OnSpill(id_, partition, run_bytes);
  return Status::OK();
}

Status Shuffle::Mapper::Seal() {
  MANIMAL_CHECK(!sealed_);
  sealed_ = true;
  const int num_partitions = static_cast<int>(buffers_.size());
  std::vector<index::MemoryRun> tails(num_partitions);
  std::vector<bool> has_tail(num_partitions, false);
  for (int p = 0; p < num_partitions; ++p) {
    if (buffers_[p].empty()) continue;
    partition_bytes_[p] += buffers_[p].buffered_bytes();
    tails[p] = buffers_[p].TakeSortedRun();
    has_tail[p] = true;
  }
  std::lock_guard<std::mutex> lock(shuffle_->mu_);
  for (int p = 0; p < num_partitions; ++p) {
    PartitionState& state = shuffle_->partitions_[p];
    for (std::string& path : run_paths_[p]) {
      state.run_paths.push_back(std::move(path));
    }
    run_paths_[p].clear();
    if (has_tail[p]) state.memory_runs.push_back(std::move(tails[p]));
    state.bytes += partition_bytes_[p];
  }
  shuffle_->stats_.entries += entries_;
  ++shuffle_->stats_.mappers_sealed;
  return Status::OK();
}

// ---------------- Shuffle ----------------

Shuffle::Shuffle(Options options)
    : options_(std::move(options)), partitions_(options_.num_partitions) {
  MANIMAL_CHECK(!options_.temp_dir.empty());
  MANIMAL_CHECK(options_.num_partitions >= 1);
  auto& metrics = obs::MetricsRegistry::Get();
  spilled_runs_counter_ =
      metrics.GetCounter(options_.metric_label + ".spilled_runs");
  spilled_bytes_counter_ =
      metrics.GetCounter(options_.metric_label + ".spilled_bytes");
}

Shuffle::~Shuffle() {
  for (const PartitionState& state : partitions_) {
    for (const std::string& path : state.run_paths) {
      (void)RemoveFileIfExists(path);
    }
  }
}

std::unique_ptr<Shuffle::Mapper> Shuffle::NewMapper() {
  int id = next_mapper_id_.fetch_add(1, std::memory_order_relaxed);
  return std::unique_ptr<Mapper>(new Mapper(this, id));
}

void Shuffle::OnSpill(int mapper_id, int partition, uint64_t run_bytes) {
  spilled_runs_counter_->Increment();
  spilled_bytes_counter_->Add(static_cast<int64_t>(run_bytes));
  obs::TraceInstant((options_.metric_label + ".spill").c_str(), "exec",
                    {{"bytes", std::to_string(run_bytes)}});
  obs::Journal::Get()
      .Event("shuffle_spill")
      .Str("job", options_.job_id)
      .Int("mapper", mapper_id)
      .Int("partition", partition)
      .Uint("bytes", run_bytes)
      .Emit();
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.spilled_runs;
  stats_.spilled_bytes += run_bytes;
}

Result<std::unique_ptr<index::SortedStream>> Shuffle::FinishPartition(
    int p) {
  MANIMAL_CHECK(p >= 0 && p < static_cast<int>(partitions_.size()));
  // The partition's runs stay owned by the Shuffle (runs on disk, in
  // -memory tails borrowed by the merge stream), so a failed reduce
  // task can call FinishPartition again and re-merge from scratch.
  // All mappers must have sealed before the first call, which is what
  // keeps the borrowed pointers stable.
  std::vector<std::string> run_paths;
  std::vector<const index::MemoryRun*> memory_runs;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const PartitionState& state = partitions_[p];
    run_paths = state.run_paths;  // copy: dtor still removes the files
    memory_runs.reserve(state.memory_runs.size());
    for (const index::MemoryRun& run : state.memory_runs) {
      memory_runs.push_back(&run);
    }
  }
  obs::MetricsRegistry::Get()
      .GetHistogram(options_.metric_label + ".merge_fan_in")
      ->Record(static_cast<double>(run_paths.size() + memory_runs.size()));
  obs::Journal::Get()
      .Event("shuffle_merge")
      .Str("job", options_.job_id)
      .Int("partition", p)
      .Uint("disk_runs", run_paths.size())
      .Uint("memory_runs", memory_runs.size())
      .Emit();
  return index::MergeSortedRunsBorrowed(run_paths,
                                        std::move(memory_runs));
}

uint64_t Shuffle::PartitionBytes(int p) const {
  MANIMAL_CHECK(p >= 0 && p < static_cast<int>(partitions_.size()));
  std::lock_guard<std::mutex> lock(mu_);
  return partitions_[p].bytes;
}

Shuffle::Stats Shuffle::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

// ---------------- GroupIterator ----------------

Result<bool> GroupIterator::Next(Value* key, Value* values) {
  if (!stream_->Valid()) return false;
  group_key_.assign(stream_->key());
  // The pooled strings beyond `n` keep their capacity for the next
  // group — no per-value allocation once the pool is warm.
  size_t n = 0;
  while (stream_->Valid() && stream_->key() == group_key_) {
    if (n == encoded_values_.size()) encoded_values_.emplace_back();
    encoded_values_[n++].assign(stream_->payload());
    MANIMAL_RETURN_IF_ERROR(stream_->Next());
  }
  std::sort(encoded_values_.begin(), encoded_values_.begin() + n);
  if (!values->has_unique_list()) *values = Value::List({});
  ValueList& items = values->mutable_list();
  items.resize(n);
  for (size_t i = 0; i < n; ++i) {
    std::string_view in = encoded_values_[i];
    MANIMAL_RETURN_IF_ERROR(
        DecodeValue(&in, &items[i], /*borrow_strings=*/true));
  }
  MANIMAL_RETURN_IF_ERROR(DecodeOrderedKey(group_key_, key));
  return true;
}

}  // namespace manimal::exec
