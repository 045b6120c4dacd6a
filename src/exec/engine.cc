#include "exec/engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <thread>

#include "analyzer/expr_eval.h"
#include "codegen/kernel.h"
#include "codegen/skip.h"
#include "common/check.h"
#include "common/coding.h"
#include "common/faulty_env.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "common/threadpool.h"
#include "exec/pairfile.h"
#include "exec/shuffle.h"
#include "mril/verifier.h"
#include "mril/vm.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serde/key_codec.h"
#include "serde/record_codec.h"

namespace manimal::exec {

const char* BackendName(Backend backend) {
  switch (backend) {
    case Backend::kAuto: return "auto";
    case Backend::kVm: return "vm";
    case Backend::kNative: return "native";
  }
  return "auto";
}

std::optional<Backend> BackendFromName(std::string_view name) {
  if (name == "auto") return Backend::kAuto;
  if (name == "vm") return Backend::kVm;
  if (name == "native") return Backend::kNative;
  return std::nullopt;
}

namespace {

// Process-wide job id allocator backing JobConfig::job_id's
// auto-assignment.
std::atomic<uint64_t> g_next_job_id{1};

// Shared task id string ("m0003" / "r0001") stamped on journal events
// and trace spans so the two artifacts cross-reference.
std::string TaskId(char kind, int index) {
  return StrPrintf("%c%04d", kind, index);
}

// Shared error latch: first error wins; all tasks then bail early.
// Failed() is polled once per map record and once per reduce group by
// every task thread, so it is one atomic load; the flag is raised only
// after first_ holds the winning error, so a task that sees it and
// bails can never overtake that error in Set().
class ErrorLatch {
 public:
  void Set(const Status& status) {
    if (status.ok()) return;
    std::lock_guard<std::mutex> lock(mu_);
    if (!first_.ok()) return;
    first_ = status;
    failed_.store(true, std::memory_order_release);
  }
  bool Failed() const { return failed_.load(std::memory_order_acquire); }
  Status First() const {
    std::lock_guard<std::mutex> lock(mu_);
    return first_;
  }

 private:
  mutable std::mutex mu_;
  Status first_;
  std::atomic<bool> failed_{false};
};

// Job output sink: a PairFile, or (pipeline mode) a typed SeqFile the
// next MapReduce stage can consume. The writer targets a temp sibling
// of the output path; Finish() renames it into place, so a crashed or
// aborted job never leaves a half-written file a consumer could read
// as valid. Internally synchronized (assembly is single-threaded
// today, but the writer keeps its lock so callers need not care).
class OutputWriter {
 public:
  static Result<std::unique_ptr<OutputWriter>> Create(
      const JobConfig& config) {
    auto out = std::unique_ptr<OutputWriter>(new OutputWriter());
    out->final_path_ = config.output_path;
    out->temp_path_ = config.output_path + ".inprogress";
    if (!config.output_schema.has_value()) {
      MANIMAL_ASSIGN_OR_RETURN(out->pairs_,
                               PairFileWriter::Create(out->temp_path_));
      return out;
    }
    const Schema& declared = *config.output_schema;
    if (!declared.opaque()) {
      for (size_t i = 0; i < config.output_kept_fields.size(); ++i) {
        const int f = config.output_kept_fields[i];
        if (f < 0 || f >= declared.num_fields()) {
          return Status::InvalidArgument(StrPrintf(
              "output_kept_fields[%zu] = %d out of range for output "
              "schema with %d fields",
              i, f, declared.num_fields()));
        }
      }
    }
    columnar::SeqFileMeta meta;
    meta.original_schema = declared;
    if (config.output_kept_fields.empty() || declared.opaque()) {
      meta.stored_schema = declared;
      if (declared.opaque()) {
        meta.field_map = {0};
      } else {
        for (int i = 0; i < declared.num_fields(); ++i) {
          meta.field_map.push_back(i);
        }
      }
    } else {
      meta.stored_schema = declared.Project(config.output_kept_fields);
      meta.field_map = config.output_kept_fields;
      out->kept_fields_ = config.output_kept_fields;
    }
    out->declared_ = declared;
    MANIMAL_ASSIGN_OR_RETURN(
        out->records_,
        columnar::SeqFileWriter::Create(out->temp_path_, meta));
    return out;
  }

  Status Append(const Value& key, const Value& value) {
    std::lock_guard<std::mutex> lock(mu_);
    return AppendLocked(key, value);
  }

  // True when the output is a raw PairFile: assembly may then move
  // whole pre-encoded part payloads in without decoding.
  bool pair_encoded() const { return pairs_ != nullptr; }

  Status AppendEncodedChunk(std::string_view bytes, uint64_t num_pairs) {
    if (bytes.empty() && num_pairs == 0) return Status::OK();
    std::lock_guard<std::mutex> lock(mu_);
    return pairs_->AppendEncodedChunk(bytes, num_pairs);
  }

  uint64_t num_outputs() const {
    std::lock_guard<std::mutex> lock(mu_);
    return pairs_ != nullptr ? pairs_->num_pairs() : num_records_;
  }

  // Seals the writer and commits the temp file to the output path.
  Result<uint64_t> Finish() {
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t total = 0;
    if (pairs_ != nullptr) {
      MANIMAL_ASSIGN_OR_RETURN(total, pairs_->Finish());
    } else {
      MANIMAL_ASSIGN_OR_RETURN(total, records_->Finish());
    }
    MANIMAL_RETURN_IF_ERROR(RenameFile(temp_path_, final_path_));
    return total;
  }

  const std::string& temp_path() const { return temp_path_; }

 private:
  OutputWriter() = default;

  Status AppendLocked(const Value& key, const Value& value) {
    if (pairs_ != nullptr) return pairs_->Append(key, value);
    // Flatten (k, v) into a record.
    Record record;
    record.push_back(key);
    if (value.is_list()) {
      for (const Value& item : value.list()) record.push_back(item);
    } else {
      record.push_back(value);
    }
    if (static_cast<int>(record.size()) != declared_.num_fields()) {
      return Status::InvalidArgument(StrPrintf(
          "pipeline output pair flattens to %zu fields; declared "
          "schema has %d",
          record.size(), declared_.num_fields()));
    }
    if (!kept_fields_.empty()) {
      Record projected;
      projected.reserve(kept_fields_.size());
      for (int f : kept_fields_) projected.push_back(record[f]);
      record = std::move(projected);
    }
    ++num_records_;
    return records_->Append(record);
  }

  mutable std::mutex mu_;
  std::unique_ptr<PairFileWriter> pairs_;
  std::unique_ptr<columnar::SeqFileWriter> records_;
  std::string final_path_;
  std::string temp_path_;
  Schema declared_;
  std::vector<int> kept_fields_;
  uint64_t num_records_ = 0;
};

// One task attempt's private output file: self-describing Value-
// encoded (key, value) pairs followed by a fixed64 pair count. The
// attempt writes it at `<part path>.tmp`; Commit() seals it and
// renames it onto the part path, and the engine concatenates the
// committed parts (in task order) into the job output after the phase
// barrier. A PartFile destroyed uncommitted (its attempt failed)
// deletes its temp file, so a retried attempt can never contribute
// twice and a torn attempt file is never visible at a part path.
class PartFile {
 public:
  static constexpr size_t kChunkBytes = 256u << 10;

  static Result<std::unique_ptr<PartFile>> Create(std::string path) {
    std::string temp_path = path + ".tmp";
    MANIMAL_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> f,
                             WritableFile::Create(temp_path));
    return std::unique_ptr<PartFile>(
        new PartFile(std::move(path), std::move(temp_path), std::move(f)));
  }

  ~PartFile() {
    if (!committed_) (void)RemoveFileIfExists(temp_path_);
  }
  PartFile(const PartFile&) = delete;
  PartFile& operator=(const PartFile&) = delete;

  // The emit hot path encodes key/value bytes directly into buffer()
  // (no intermediate copy) and then reports the pair.
  std::string* buffer() { return &buf_; }
  Status PairAdded() {
    ++num_pairs_;
    if (buf_.size() >= kChunkBytes) return FlushBuffer();
    return Status::OK();
  }

  // Seals the temp file (the last chunk and the pair-count footer) and
  // renames it onto the part path.
  Status Commit() {
    MANIMAL_RETURN_IF_ERROR(FlushBuffer());
    std::string footer;
    PutFixed64(&footer, num_pairs_);
    MANIMAL_RETURN_IF_ERROR(file_->Append(footer));
    MANIMAL_RETURN_IF_ERROR(file_->Close());
    MANIMAL_RETURN_IF_ERROR(RenameFile(temp_path_, path_));
    committed_ = true;
    return Status::OK();
  }

  uint64_t num_pairs() const { return num_pairs_; }
  uint64_t payload_bytes() const { return payload_bytes_ + buf_.size(); }

 private:
  PartFile(std::string path, std::string temp_path,
           std::unique_ptr<WritableFile> f)
      : path_(std::move(path)),
        temp_path_(std::move(temp_path)),
        file_(std::move(f)) {}

  Status FlushBuffer() {
    if (buf_.empty()) return Status::OK();
    MANIMAL_RETURN_IF_ERROR(file_->Append(buf_));
    payload_bytes_ += buf_.size();
    buf_.clear();
    return Status::OK();
  }

  std::string path_;
  std::string temp_path_;
  std::unique_ptr<WritableFile> file_;
  std::string buf_;
  uint64_t num_pairs_ = 0;
  uint64_t payload_bytes_ = 0;
  bool committed_ = false;
};

struct PartData {
  std::string bytes;  // concatenated encoded pairs
  uint64_t num_pairs = 0;
};

Result<PartData> ReadPartFile(const std::string& path) {
  MANIMAL_ASSIGN_OR_RETURN(std::string data, ReadFileToString(path));
  if (data.size() < 8) {
    return Status::Corruption("task part file too short: " + path);
  }
  PartData part;
  part.num_pairs = DecodeFixed64(data.data() + data.size() - 8);
  data.resize(data.size() - 8);
  if (part.num_pairs > data.size() / 2 + 1) {
    return Status::Corruption("task part count mismatch in " + path);
  }
  part.bytes = std::move(data);
  return part;
}

// Runs one job: input planning, the map phase, the shuffle barrier,
// the reduce phase, part assembly, and the final output commit. Every
// task is a retry loop of attempts, and each attempt commits its own
// output.
class JobRunner {
 public:
  JobRunner(const ExecutionDescriptor& descriptor, JobConfig cfg)
      : descriptor_(descriptor),
        cfg_(std::move(cfg)),
        program_(descriptor.program),
        has_reduce_(descriptor.program.has_reduce()) {}

  Result<JobResult> Run();

 private:
  Status Prepare();
  Status ResolveBackend();
  Status RunPhase(char kind, int num_tasks);
  Status AssembleOutput(char kind, int num_parts);
  void RunTask(char kind, int index);
  Status MapAttempt(int split_index, int attempt);
  Status ReduceAttempt(int partition, int attempt);
  void Backoff(int attempt) const;
  void RecordTaskStat(const TaskStat& stat,
                      const std::vector<uint64_t>& interval_matches);

  std::string PartPath(char kind, int idx) const {
    return cfg_.temp_dir + "/" + StrPrintf("part-%c%04d", kind, idx);
  }

  const ExecutionDescriptor& descriptor_;
  JobConfig cfg_;
  const mril::Program& program_;
  const bool has_reduce_;

  std::unique_ptr<InputPlan> plan_;
  std::vector<int> field_remap_;
  std::unique_ptr<Shuffle> shuffle_;
  std::unique_ptr<OutputWriter> out_;
  ErrorLatch errors_;

  std::vector<uint64_t> partition_groups_;

  std::atomic<uint64_t> input_records_{0}, input_bytes_{0},
      map_invocations_{0}, map_output_records_{0}, map_output_bytes_{0},
      map_output_filtered_{0}, log_messages_{0};
  std::atomic<uint64_t> bytes_decoded_{0}, blocks_skipped_{0};
  std::atomic<uint64_t> task_retries_{0}, tasks_failed_{0};

  // ---- native backend (JobConfig::backend, docs/mril.md) ----
  // Resolved in Prepare(): non-null kernel_ means map tasks run the
  // native tier, replaying individual records through a companion VM
  // whenever the kernel bails out.
  std::shared_ptr<const codegen::NativeKernel> kernel_;
  std::string map_backend_name_ = "vm";
  std::string backend_detail_;
  // Direct-evaluation admission summary (journaled; kept for spans).
  std::string skip_detail_;
  std::atomic<uint64_t> native_tasks_{0}, native_bailouts_{0};

  // EXPLAIN ANALYZE collection (JobConfig::collect_task_stats).
  // observe_ is resolved in Prepare(): stats requested AND the
  // descriptor carries observation hooks AND the runtime layout is
  // the original one (EvalExpr addresses original field indexes, so a
  // projected/remapped artifact cannot be observed).
  bool observe_ = false;
  std::mutex stats_mu_;
  std::vector<TaskStat> task_stats_;
  std::vector<uint64_t> predicate_matches_;

  JobResult result_;
};

void JobRunner::Backoff(int attempt) const {
  if (cfg_.retry_backoff_ms <= 0) return;
  double ms = cfg_.retry_backoff_ms;
  for (int i = 2; i < attempt; ++i) ms *= 2;
  ms = std::min(ms, 100.0);
  std::this_thread::sleep_for(
      std::chrono::microseconds(static_cast<int64_t>(ms * 1000)));
}

// Attempts one task until an attempt commits: an IOError (transient,
// e.g. an injected fault) is retried after a backoff while the budget
// lasts; any other error fails the job at once.
void JobRunner::RunTask(char kind, int index) {
  auto& metrics = obs::MetricsRegistry::Get();
  auto& journal = obs::Journal::Get();
  const std::string task = TaskId(kind, index);
  const char* attempt_span_name =
      kind == 'm' ? "map_task_attempt" : "reduce_task_attempt";
  const int max_attempts = std::max(1, cfg_.max_task_attempts);
  Status last;
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    if (errors_.Failed()) return;
    if (attempt > 1) {
      task_retries_.fetch_add(1, std::memory_order_relaxed);
      metrics.GetCounter("engine.task_retries")->Increment();
      obs::TraceInstant("engine.task_retry", "exec",
                        {{"task", task},
                         {"attempt", std::to_string(attempt)},
                         {"error", last.ToString()}});
      journal.Event("task_retry")
          .Str("job", cfg_.job_id)
          .Str("task", task)
          .Int("attempt", attempt)
          .Str("error", last.ToString())
          .Emit();
      Backoff(attempt);
    } else {
      journal.Event("task_start")
          .Str("job", cfg_.job_id)
          .Str("task", task)
          .Str("backend", kind == 'm' ? map_backend_name_ : "vm")
          .Emit();
    }
    // One span per attempt inside the task's span, so retries show as
    // separate slices on the trace timeline.
    obs::ScopedSpan attempt_span(attempt_span_name, "exec");
    attempt_span.AddArg("task", task);
    attempt_span.AddArg("attempt", std::to_string(attempt));
    {
      // Faults are injected only inside armed scopes: everything a
      // retry can recover from, nothing it can't.
      ScopedFaultArming arm;
      last = kind == 'm' ? MapAttempt(index, attempt)
                         : ReduceAttempt(index, attempt);
    }
    if (last.ok()) {
      journal.Event("task_commit")
          .Str("job", cfg_.job_id)
          .Str("task", task)
          .Int("attempt", attempt)
          .Emit();
      return;
    }
    if (!last.IsIOError()) break;  // semantic failure: no retry
  }
  tasks_failed_.fetch_add(1, std::memory_order_relaxed);
  metrics.GetCounter("engine.tasks_failed")->Increment();
  journal.Event("task_failed")
      .Str("job", cfg_.job_id)
      .Str("task", task)
      .Str("error", last.ToString())
      .Emit();
  errors_.Set(last);
}

void JobRunner::RecordTaskStat(
    const TaskStat& stat, const std::vector<uint64_t>& interval_matches) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  task_stats_.push_back(stat);
  for (size_t i = 0;
       i < interval_matches.size() && i < predicate_matches_.size(); ++i) {
    predicate_matches_[i] += interval_matches[i];
  }
}

Status JobRunner::MapAttempt(int split_index, int attempt) {
  // Everything the attempt produces stays private until the commit at
  // its end; a failed attempt leaves nothing behind (the unsealed
  // Mapper removes its spill runs, the uncommitted part file deletes
  // itself).
  Stopwatch attempt_watch;
  MANIMAL_ASSIGN_OR_RETURN(std::unique_ptr<InputSplit> split,
                           plan_->OpenSplit(split_index));
  std::unique_ptr<Shuffle::Mapper> mapper;
  std::unique_ptr<PartFile> part;
  if (has_reduce_) {
    mapper = shuffle_->NewMapper();
  } else {
    MANIMAL_ASSIGN_OR_RETURN(part,
                             PartFile::Create(PartPath('m', split_index)));
  }

  uint64_t records = 0, output_records = 0, output_bytes = 0,
           output_filtered = 0, logs = 0, native_bailouts = 0;
  const int num_partitions = cfg_.num_partitions;
  std::string key_scratch, value_scratch;
  auto emit_pair = [&](const Value& k, const Value& v) -> Status {
    // Appendix E: delete pairs the reduce provably discards.
    if (descriptor_.reduce_key_filter.has_value()) {
      for (const analyzer::SelectTerm& term :
           descriptor_.reduce_key_filter->required.terms) {
        MANIMAL_ASSIGN_OR_RETURN(
            Value verdict,
            analyzer::EvalExpr(term.expr, k, Value::Null()));
        if (!verdict.is_bool()) {
          return Status::Internal("non-boolean reduce filter term");
        }
        if (verdict.bool_value() != term.polarity) {
          ++output_filtered;
          return Status::OK();
        }
      }
    }
    ++output_records;
    if (has_reduce_) {
      key_scratch.clear();
      MANIMAL_RETURN_IF_ERROR(EncodeOrderedKey(k, &key_scratch));
      value_scratch.clear();
      MANIMAL_RETURN_IF_ERROR(EncodeValue(v, &value_scratch));
      output_bytes += key_scratch.size() + value_scratch.size();
      int p = static_cast<int>(k.Hash() % num_partitions);
      // Lock-free: this attempt's private partition buffer.
      return mapper->Add(p, key_scratch, value_scratch);
    }
    // Map-only: encode straight into the part file's chunk buffer.
    std::string* buf = part->buffer();
    const size_t before = buf->size();
    MANIMAL_RETURN_IF_ERROR(EncodeValue(k, buf));
    MANIMAL_RETURN_IF_ERROR(EncodeValue(v, buf));
    output_bytes += buf->size() - before;
    return part->PairAdded();
  };

  // The VM: the sole map executor on the vm backend, the per-record
  // bailout replayer on the native backend (created lazily, so a
  // native task that never bails never builds one).
  mril::VmOptions vm_options;
  vm_options.field_remap = field_remap_;
  std::unique_ptr<mril::VmInstance> vm;
  auto ensure_vm = [&]() -> mril::VmInstance* {
    if (vm == nullptr) {
      vm = std::make_unique<mril::VmInstance>(&program_, vm_options);
      vm->set_log_sink([&logs](const Value&) { ++logs; });
      vm->set_emit_sink(emit_pair);
    }
    return vm.get();
  };
  const bool use_native = kernel_ != nullptr;
  if (!use_native) ensure_vm();
  codegen::KernelScratch kernel_scratch;
  uint64_t kernel_handled = 0;

  // EXPLAIN ANALYZE observation: evaluate the selection's index-key
  // expression per scanned record and tally which predicate intervals
  // it lands in (the observed-selectivity side of the drift report).
  const size_t num_observe_intervals =
      observe_ ? descriptor_.observe_intervals.size() : 0;
  std::vector<uint64_t> interval_matches(num_observe_intervals, 0);

  int64_t key = 0;
  Value value;
  while (true) {
    MANIMAL_ASSIGN_OR_RETURN(bool more, split->Next(&key, &value));
    if (!more) break;
    if (errors_.Failed()) {
      return Status::Internal("map task aborted: job already failed");
    }
    ++records;
    if (observe_) {
      Result<Value> index_key = analyzer::EvalExpr(
          descriptor_.observe_expr, Value::I64(key), value);
      if (index_key.ok()) {
        for (size_t i = 0; i < num_observe_intervals; ++i) {
          if (descriptor_.observe_intervals[i].Contains(*index_key)) {
            ++interval_matches[i];
          }
        }
      }
    }
    if (use_native) {
      // Exactness contract (codegen/kernel.h): the kernel either
      // reproduces the VM's behavior for this record or bails out, in
      // which case the record is replayed through the companion VM —
      // which also reproduces any error the VM would have raised.
      Value out_key, out_value;
      codegen::KernelOutcome outcome =
          kernel_->Run(Value::I64(key), value, &kernel_scratch,
                       &out_key, &out_value);
      if (outcome == codegen::KernelOutcome::kBailout) {
        ++native_bailouts;
        MANIMAL_RETURN_IF_ERROR(
            ensure_vm()->InvokeMap(Value::I64(key), value));
      } else {
        ++kernel_handled;
        if (outcome == codegen::KernelOutcome::kEmit) {
          MANIMAL_RETURN_IF_ERROR(emit_pair(out_key, out_value));
        }
      }
    } else {
      MANIMAL_RETURN_IF_ERROR(vm->InvokeMap(Value::I64(key), value));
    }
  }
  const double seconds = attempt_watch.ElapsedSeconds();

  // Commit: the Mapper hands its sorted runs and in-memory tails to the
  // partitions in one locked step (no IO), or the part file seals and
  // renames into place.
  MANIMAL_RETURN_IF_ERROR(has_reduce_ ? mapper->Seal() : part->Commit());
  input_records_.fetch_add(records, std::memory_order_relaxed);
  input_bytes_.fetch_add(split->bytes_read(), std::memory_order_relaxed);
  bytes_decoded_.fetch_add(split->bytes_decoded(),
                           std::memory_order_relaxed);
  blocks_skipped_.fetch_add(split->blocks_skipped(),
                            std::memory_order_relaxed);
  map_invocations_.fetch_add(
      kernel_handled +
          (vm != nullptr ? static_cast<uint64_t>(vm->map_invocations()) : 0),
      std::memory_order_relaxed);
  map_output_records_.fetch_add(output_records, std::memory_order_relaxed);
  map_output_bytes_.fetch_add(output_bytes, std::memory_order_relaxed);
  map_output_filtered_.fetch_add(output_filtered,
                                 std::memory_order_relaxed);
  log_messages_.fetch_add(logs, std::memory_order_relaxed);
  if (use_native) {
    native_tasks_.fetch_add(1, std::memory_order_relaxed);
    native_bailouts_.fetch_add(native_bailouts, std::memory_order_relaxed);
    obs::MetricsRegistry::Get().GetCounter("engine.native_tasks")->Increment();
  }
  if (cfg_.collect_task_stats) {
    TaskStat stat;
    stat.kind = 'm';
    stat.index = split_index;
    stat.attempt = attempt;
    stat.records_in = records;
    stat.records_out = output_records;
    stat.bytes_read = split->bytes_read();
    stat.bytes_written = output_bytes;
    stat.vm_instructions =
        vm != nullptr ? static_cast<uint64_t>(vm->total_steps()) : 0;
    stat.seconds = seconds;
    RecordTaskStat(stat, interval_matches);
  }
  return Status::OK();
}

Status JobRunner::ReduceAttempt(int partition, int attempt) {
  Stopwatch attempt_watch;
  std::unique_ptr<index::SortedStream> stream;
  {
    obs::ScopedSpan merge_span("shuffle.merge", "exec");
    MANIMAL_ASSIGN_OR_RETURN(stream, shuffle_->FinishPartition(partition));
  }
  MANIMAL_ASSIGN_OR_RETURN(std::unique_ptr<PartFile> part,
                           PartFile::Create(PartPath('r', partition)));

  uint64_t num_groups = 0, logs = 0;
  mril::VmInstance vm(&program_);
  vm.set_log_sink([&logs](const Value&) { ++logs; });
  vm.set_emit_sink([&part](const Value& k, const Value& v) -> Status {
    std::string* buf = part->buffer();
    MANIMAL_RETURN_IF_ERROR(EncodeValue(k, buf));
    MANIMAL_RETURN_IF_ERROR(EncodeValue(v, buf));
    return part->PairAdded();
  });

  // One key and one values list for the whole partition: the iterator
  // refills them in place, and their strings borrow its group buffers
  // (the VM promotes whatever the reduce retains or emits).
  GroupIterator groups(stream.get());
  Value key, values;
  while (true) {
    MANIMAL_ASSIGN_OR_RETURN(bool more, groups.Next(&key, &values));
    if (!more) break;
    if (errors_.Failed()) {
      return Status::Internal("reduce task aborted: job already failed");
    }
    ++num_groups;
    MANIMAL_RETURN_IF_ERROR(vm.InvokeReduce(key, values));
  }
  const double seconds = attempt_watch.ElapsedSeconds();
  MANIMAL_RETURN_IF_ERROR(part->Commit());
  // Each task writes only its own slot; read after the phase barrier.
  partition_groups_[partition] = num_groups;
  log_messages_.fetch_add(logs, std::memory_order_relaxed);
  if (cfg_.collect_task_stats) {
    TaskStat stat;
    stat.kind = 'r';
    stat.index = partition;
    stat.attempt = attempt;
    stat.records_in = num_groups;
    stat.records_out = part->num_pairs();
    stat.bytes_written = part->payload_bytes();
    stat.vm_instructions = vm.total_steps();
    stat.seconds = seconds;
    RecordTaskStat(stat, {});
  }
  return Status::OK();
}

// Runs a phase's tasks (kind 'm': one per split; 'r': one per
// partition) on map_parallelism workers and waits for all of them.
Status JobRunner::RunPhase(char kind, int num_tasks) {
  const bool map = kind == 'm';
  obs::ScopedSpan phase_span(map ? "job.map_phase" : "job.reduce_phase",
                             "exec");
  ThreadPool pool(cfg_.map_parallelism);
  for (int i = 0; i < num_tasks; ++i) {
    pool.Submit([this, kind, map, i] {
      if (errors_.Failed()) return;
      obs::ScopedSpan task_span(map ? "map_task" : "reduce_task", "exec");
      task_span.AddArg(map ? "split" : "partition", std::to_string(i));
      Stopwatch task_watch;
      RunTask(kind, i);
      auto& metrics = obs::MetricsRegistry::Get();
      metrics.GetCounter(map ? "exec.map_tasks" : "exec.reduce_tasks")
          ->Increment();
      metrics
          .GetHistogram(map ? "exec.map_task_seconds"
                            : "exec.reduce_task_seconds")
          ->Record(task_watch.ElapsedSeconds());
    });
  }
  pool.Wait();
  return errors_.First();
}

// Streams committed task parts, in task order, into the job output.
Status JobRunner::AssembleOutput(char kind, int num_parts) {
  obs::ScopedSpan span("job.assemble_output", "exec");
  for (int i = 0; i < num_parts; ++i) {
    const std::string path = PartPath(kind, i);
    MANIMAL_ASSIGN_OR_RETURN(PartData part, ReadPartFile(path));
    if (out_->pair_encoded()) {
      MANIMAL_RETURN_IF_ERROR(
          out_->AppendEncodedChunk(part.bytes, part.num_pairs));
    } else {
      std::string_view in = part.bytes;
      Value k, v;
      while (!in.empty()) {
        MANIMAL_RETURN_IF_ERROR(DecodeValue(&in, &k));
        MANIMAL_RETURN_IF_ERROR(DecodeValue(&in, &v));
        MANIMAL_RETURN_IF_ERROR(out_->Append(k, v));
      }
    }
    (void)RemoveFileIfExists(path);
  }
  return Status::OK();
}

// Resolves JobConfig::backend (plus the MANIMAL_BACKEND env override,
// honored only in kAuto) into the map tier for this job. `auto` uses
// the native kernel only when compilation succeeds — i.e. the
// analyzer facts describe the map exactly — and silently falls back
// to the VM otherwise, recording why in backend_detail_.
Status JobRunner::ResolveBackend() {
  Backend requested = cfg_.backend;
  if (requested == Backend::kAuto) {
    if (const char* env = std::getenv("MANIMAL_BACKEND")) {
      if (auto parsed = BackendFromName(env); parsed.has_value()) {
        requested = *parsed;
      }
    }
  }
  if (requested == Backend::kVm) {
    backend_detail_ = "vm requested";
    return Status::OK();
  }
  codegen::CompileOptions opts;
  opts.field_remap = field_remap_;
  opts.term_selectivity = descriptor_.native_term_selectivity;
  Result<std::shared_ptr<const codegen::NativeKernel>> kernel =
      codegen::CompileKernel(program_, opts);
  if (kernel.ok()) {
    kernel_ = std::move(*kernel);
    map_backend_name_ = "native";
    backend_detail_ = kernel_->Describe();
    return Status::OK();
  }
  if (requested == Backend::kNative) {
    return Status::NotSupported(
        "native backend requested but the program is not admissible: " +
        kernel.status().message());
  }
  backend_detail_ = "vm fallback: " + kernel.status().message();
  return Status::OK();
}

Status JobRunner::Prepare() {
  MANIMAL_RETURN_IF_ERROR(mril::VerifyProgram(program_));
  MANIMAL_RETURN_IF_ERROR(CreateDirIfMissing(cfg_.temp_dir));

  result_.output_path = cfg_.output_path;
  result_.applied_optimizations = descriptor_.applied;

  {
    obs::ScopedSpan plan_span("job.plan_input", "exec");
    MANIMAL_ASSIGN_OR_RETURN(
        plan_, PlanInput(descriptor_, cfg_.map_parallelism * 3));
  }
  result_.counters.input_file_bytes = plan_->total_input_bytes();

  // Self-describing projected inputs carry their own remap.
  field_remap_ = descriptor_.field_remap.empty()
                     ? plan_->DerivedFieldRemap()
                     : descriptor_.field_remap;

  // The backend decision needs the final remap (the kernel compiles
  // against the runtime field layout).
  MANIMAL_RETURN_IF_ERROR(ResolveBackend());

  // EXPLAIN ANALYZE observation is only sound on the original record
  // layout: EvalExpr addresses original field indexes, which a
  // projected/remapped artifact no longer stores at those slots.
  observe_ = cfg_.collect_task_stats &&
             descriptor_.observe_expr != nullptr &&
             !descriptor_.observe_intervals.empty() &&
             field_remap_.empty();
  if (observe_) {
    predicate_matches_.assign(descriptor_.observe_intervals.size(), 0);
  }

  // Direct evaluation on compressed blocks: prove from the skip
  // frames which blocks cannot contain a matching row, and elide them
  // from every scan split. Gated off while observation is armed —
  // EXPLAIN ANALYZE's per-record observation must see every scanned
  // record, and a skipped block's rows would silently vanish from the
  // tally.
  bool direct = cfg_.direct_eval;
  if (const char* env = std::getenv("MANIMAL_DIRECT_EVAL")) {
    std::string_view v(env);
    if (v == "0" || v == "off" || v == "false") direct = false;
  }
  if (direct && !observe_ &&
      descriptor_.access_path == AccessPath::kSeqScan &&
      plan_->seqfile() != nullptr) {
    codegen::BlockSkipReport report;
    std::shared_ptr<const std::vector<bool>> skip =
        codegen::BuildBlockSkipFilter(program_, *plan_->seqfile(),
                                      field_remap_, &report);
    if (skip != nullptr) plan_->InstallBlockSkip(std::move(skip));
    skip_detail_ = report.detail;
    obs::Journal::Get()
        .Event("direct_eval")
        .Str("job", cfg_.job_id)
        .Bool("admitted", report.admitted)
        .Uint("blocks_total", report.blocks_total)
        .Uint("blocks_refuted", report.blocks_skipped)
        .Str("detail", report.detail)
        .Emit();
  }

  if (has_reduce_) {
    Shuffle::Options shuffle_opts;
    shuffle_opts.temp_dir = cfg_.temp_dir;
    shuffle_opts.num_partitions = cfg_.num_partitions;
    shuffle_opts.job_id = cfg_.job_id;
    // The sort budget is shared by the concurrently-running mappers
    // (floored so degenerate configs still buffer something useful).
    shuffle_opts.mapper_budget_bytes = std::max<uint64_t>(
        64u << 10, cfg_.sort_buffer_bytes / cfg_.map_parallelism);
    shuffle_ = std::make_unique<Shuffle>(std::move(shuffle_opts));
  }
  MANIMAL_ASSIGN_OR_RETURN(out_, OutputWriter::Create(cfg_));
  return Status::OK();
}

Result<JobResult> JobRunner::Run() {
  obs::MetricsRegistry::Get().GetCounter("exec.jobs")->Increment();
  // Pre-register the fault-handling counters so they are visible in
  // DumpMetricsJson() even for an entirely fault-free process.
  obs::MetricsRegistry::Get().GetCounter("engine.task_retries");
  obs::MetricsRegistry::Get().GetCounter("engine.tasks_failed");
  obs::MetricsRegistry::Get().GetCounter("engine.native_tasks");
  obs::MetricsRegistry::Get().GetCounter("engine.bytes_decoded");
  obs::MetricsRegistry::Get().GetCounter("engine.blocks_skipped");
  obs::ScopedSpan job_span("job.run", "exec");
  job_span.AddArg("job", cfg_.job_id);
  job_span.AddArg("access_path", AccessPathName(descriptor_.access_path));
  job_span.AddArg("program", program_.name);
  Stopwatch total_watch;
  Stopwatch plan_watch;

  MANIMAL_RETURN_IF_ERROR(Prepare());
  obs::Journal::Get()
      .Event("job_start")
      .Str("job", cfg_.job_id)
      .Str("program", program_.name)
      .Str("access_path", AccessPathName(descriptor_.access_path))
      .Int("splits", plan_->num_splits())
      .Int("partitions", has_reduce_ ? cfg_.num_partitions : 0)
      .Uint("input_file_bytes", result_.counters.input_file_bytes)
      .Bool("observe_predicates", observe_)
      .Emit();

  // ---------------- map phase ----------------
  result_.phase_breakdown["plan"].seconds = plan_watch.ElapsedSeconds();
  Stopwatch map_watch;
  MANIMAL_RETURN_IF_ERROR(RunPhase('m', plan_->num_splits()));
  result_.map_seconds = map_watch.ElapsedSeconds();
  result_.phase_breakdown["map"].seconds = result_.map_seconds;

  // ---------------- reduce / output phase ----------------
  Stopwatch reduce_watch;
  uint64_t reduce_groups_total = 0;
  if (has_reduce_) {
    partition_groups_.assign(cfg_.num_partitions, 0);
    MANIMAL_RETURN_IF_ERROR(RunPhase('r', cfg_.num_partitions));
    for (uint64_t groups : partition_groups_) {
      reduce_groups_total += groups;
    }
    const Shuffle::Stats shuffle_stats = shuffle_->stats();
    result_.counters.shuffle_spilled_runs = shuffle_stats.spilled_runs;
    result_.counters.shuffle_spilled_bytes = shuffle_stats.spilled_bytes;
    MANIMAL_RETURN_IF_ERROR(AssembleOutput('r', cfg_.num_partitions));
  } else {
    MANIMAL_RETURN_IF_ERROR(AssembleOutput('m', plan_->num_splits()));
  }

  result_.counters.output_records = out_->num_outputs();
  MANIMAL_ASSIGN_OR_RETURN(result_.counters.output_bytes, out_->Finish());
  obs::Journal::Get()
      .Event("output_commit")
      .Str("job", cfg_.job_id)
      .Str("path", cfg_.output_path)
      .Uint("records", result_.counters.output_records)
      .Uint("bytes", result_.counters.output_bytes)
      .Emit();
  result_.reduce_seconds = reduce_watch.ElapsedSeconds();
  result_.phase_breakdown["reduce"].seconds = result_.reduce_seconds;

  result_.counters.input_records = input_records_.load();
  result_.counters.input_bytes = input_bytes_.load();
  result_.counters.map_invocations = map_invocations_.load();
  result_.counters.map_output_records = map_output_records_.load();
  result_.counters.map_output_bytes = map_output_bytes_.load();
  result_.counters.map_output_filtered = map_output_filtered_.load();
  result_.counters.log_messages = log_messages_.load();
  result_.counters.reduce_groups = reduce_groups_total;
  result_.counters.task_retries = task_retries_.load();
  result_.counters.tasks_failed = tasks_failed_.load();
  result_.counters.native_tasks = native_tasks_.load();
  result_.counters.native_bailout_records = native_bailouts_.load();
  result_.counters.bytes_decoded = bytes_decoded_.load();
  result_.counters.blocks_skipped = blocks_skipped_.load();
  obs::MetricsRegistry::Get()
      .GetCounter("engine.bytes_decoded")
      ->Add(result_.counters.bytes_decoded);
  obs::MetricsRegistry::Get()
      .GetCounter("engine.blocks_skipped")
      ->Add(result_.counters.blocks_skipped);
  result_.backend = map_backend_name_;
  result_.backend_detail = backend_detail_;

  result_.phase_breakdown["map"].bytes =
      result_.counters.input_bytes + result_.counters.map_output_bytes;
  result_.phase_breakdown["reduce"].bytes =
      result_.counters.map_output_bytes + result_.counters.output_bytes;

  result_.wall_seconds = total_watch.ElapsedSeconds();
  if (cfg_.simulated_disk_bytes_per_sec > 0) {
    uint64_t bytes_moved = result_.counters.input_bytes +
                           result_.counters.map_output_bytes +
                           result_.counters.output_bytes;
    double aggregate_rate =
        static_cast<double>(cfg_.simulated_disk_bytes_per_sec) *
        cfg_.map_parallelism;
    result_.simulated_io_seconds =
        static_cast<double>(bytes_moved) / aggregate_rate;
  }
  result_.reported_seconds = result_.wall_seconds +
                             cfg_.simulated_startup_seconds +
                             result_.simulated_io_seconds;

  result_.job_id = cfg_.job_id;
  if (cfg_.collect_task_stats) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    result_.task_stats = std::move(task_stats_);
    result_.predicates_observed = observe_;
    for (size_t i = 0; i < predicate_matches_.size(); ++i) {
      PredicateStat ps;
      ps.predicate = descriptor_.observe_intervals[i].ToString();
      ps.matched = predicate_matches_[i];
      result_.predicate_stats.push_back(std::move(ps));
    }
  }
  obs::Journal::Get()
      .Event("job_finish")
      .Str("job", cfg_.job_id)
      .Uint("input_records", result_.counters.input_records)
      .Uint("output_records", result_.counters.output_records)
      .Uint("task_retries", result_.counters.task_retries)
      .Uint("shuffle_spilled_runs",
            result_.counters.shuffle_spilled_runs)
      .Uint("bytes_decoded", result_.counters.bytes_decoded)
      .Uint("blocks_skipped", result_.counters.blocks_skipped)
      .Time("wall_seconds", result_.wall_seconds)
      .Time("reported_seconds", result_.reported_seconds)
      .Emit();
  // Rewrite the cumulative trace after every job so MANIMAL_TRACE
  // output exists even when the process exits abnormally later.
  if (obs::Tracer::Get().enabled()) {
    obs::Tracer::Get().WriteIfConfigured();
  }
  return std::move(result_);
}

// Clean job abort: remove the in-progress output and any task part
// files (committed or attempt-level) so an aborted job leaves nothing
// a rerun or a consumer could mistake for valid output. Shuffle run
// files are removed by the Shuffle destructor.
void CleanupPartialOutputs(const JobConfig& cfg) {
  (void)RemoveFileIfExists(cfg.output_path + ".inprogress");
  auto names = ListDir(cfg.temp_dir);
  if (!names.ok()) return;
  for (const std::string& name : *names) {
    if (name.rfind("part-", 0) == 0) {
      (void)RemoveFileIfExists(cfg.temp_dir + "/" + name);
    }
  }
}

}  // namespace

Result<JobResult> RunJob(const ExecutionDescriptor& descriptor,
                         const JobConfig& config) {
  if (config.temp_dir.empty() || config.output_path.empty()) {
    return Status::InvalidArgument("temp_dir and output_path required");
  }
  // Normalize the parallelism knobs exactly once, so input planning,
  // the worker pools, and the shuffle budget all see the same values.
  JobConfig cfg = config;
  cfg.map_parallelism = std::max(1, cfg.map_parallelism);
  cfg.num_partitions = std::max(1, cfg.num_partitions);
  if (cfg.job_id.empty()) {
    cfg.job_id = "job-" + std::to_string(g_next_job_id.fetch_add(
                              1, std::memory_order_relaxed));
  }

  JobRunner runner(descriptor, cfg);
  Result<JobResult> result = runner.Run();
  if (!result.ok()) {
    obs::Journal::Get()
        .Event("job_failed")
        .Str("job", cfg.job_id)
        .Str("error", result.status().ToString())
        .Emit();
    CleanupPartialOutputs(cfg);
  }
  return result;
}

}  // namespace manimal::exec
