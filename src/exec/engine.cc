#include "exec/engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <condition_variable>
#include <deque>
#include <functional>
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
// attempt writes it at an attempt-unique path; committing the task
// renames it to the canonical part path, and the engine concatenates
// the committed parts (in task order) into the job output after the
// phase barrier. This is what makes task outputs idempotent: a
// retried or speculative duplicate attempt can never contribute
// twice, and a torn attempt file is never visible at a canonical
// path.
class PartFile {
 public:
  static constexpr size_t kChunkBytes = 256u << 10;

  static Result<std::unique_ptr<PartFile>> Create(
      const std::string& path) {
    MANIMAL_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> f,
                             WritableFile::Create(path));
    return std::unique_ptr<PartFile>(new PartFile(std::move(f)));
  }

  // The emit hot path encodes key/value bytes directly into buffer()
  // (no intermediate copy) and then reports the pair.
  std::string* buffer() { return &buf_; }
  Status PairAdded() {
    ++num_pairs_;
    if (buf_.size() >= kChunkBytes) return FlushBuffer();
    return Status::OK();
  }

  Status Finish() {
    MANIMAL_RETURN_IF_ERROR(FlushBuffer());
    std::string footer;
    PutFixed64(&footer, num_pairs_);
    MANIMAL_RETURN_IF_ERROR(file_->Append(footer));
    return file_->Close();
  }

  uint64_t num_pairs() const { return num_pairs_; }
  uint64_t payload_bytes() const { return payload_bytes_ + buf_.size(); }

 private:
  explicit PartFile(std::unique_ptr<WritableFile> f)
      : file_(std::move(f)) {}

  Status FlushBuffer() {
    if (buf_.empty()) return Status::OK();
    MANIMAL_RETURN_IF_ERROR(file_->Append(buf_));
    payload_bytes_ += buf_.size();
    buf_.clear();
    return Status::OK();
  }

  std::unique_ptr<WritableFile> file_;
  std::string buf_;
  uint64_t num_pairs_ = 0;
  uint64_t payload_bytes_ = 0;
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

int64_t SteadyNowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Runs one job: input planning, the map phase (with per-task retry
// chains and speculative duplicates), the shuffle barrier, the reduce
// phase (with retry), part assembly, and the final output commit.
class JobRunner {
 public:
  JobRunner(const ExecutionDescriptor& descriptor, JobConfig cfg)
      : descriptor_(descriptor),
        cfg_(std::move(cfg)),
        program_(descriptor.program),
        has_reduce_(descriptor.program.has_reduce()) {}

  Result<JobResult> Run();

 private:
  // Per-task coordination between retry chains, speculative twins,
  // and the speculation monitor.
  struct TaskControl {
    // The commit gate: exactly one attempt of one chain holds it
    // while renaming/sealing; released again if that commit fails.
    std::atomic<bool> committed{false};
    // Some attempt committed successfully; all other chains stand down.
    std::atomic<bool> done{false};
    // The task reached a terminal state (success or budget
    // exhaustion); used by the monitor's exit condition.
    std::atomic<bool> resolved{false};
    std::atomic<bool> speculated{false};
    // Steady-clock start of the first chain (0 = not started yet).
    std::atomic<int64_t> started_ns{0};
  };

  // The fallible work of one attempt returns a commit closure; the
  // chain runs it only if this attempt wins the task's commit gate.
  using CommitFn = std::function<Status()>;
  using AttemptFn = std::function<Result<CommitFn>(int chain, int attempt)>;

  Status Prepare();
  Status ResolveBackend();
  Status RunMapPhase();
  Status RunReducePhase();
  Status AssembleOutput(char kind, int num_parts);
  void RunChain(TaskControl* ctl, char kind, int index, int chain,
                const AttemptFn& attempt_fn);
  Result<CommitFn> MapAttempt(int split_index, int chain, int attempt);
  Result<CommitFn> ReduceAttempt(int partition, int chain, int attempt);
  void SubmitMapChain(ThreadPool* pool, int split_index, int chain);
  void MonitorMapPhase(ThreadPool* pool);
  void Backoff(int attempt) const;
  void RecordTaskStat(const TaskStat& stat,
                      const std::vector<uint64_t>& interval_matches);

  std::string PartPath(char kind, int idx) const {
    return cfg_.temp_dir + "/" + StrPrintf("part-%c%04d", kind, idx);
  }
  std::string AttemptPath(char kind, int idx, int chain) const {
    return PartPath(kind, idx) + StrPrintf(".c%d.tmp", chain);
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

  std::deque<TaskControl> map_tasks_;
  std::deque<TaskControl> reduce_tasks_;
  std::vector<uint64_t> partition_groups_;

  // Completed map-chain durations feed the speculation threshold.
  std::mutex durations_mu_;
  std::vector<double> map_chain_seconds_;

  // Wakes the speculation monitor when a map chain finishes, so the
  // phase ends promptly without a tight polling loop stealing CPU
  // from the workers.
  std::mutex monitor_mu_;
  std::condition_variable monitor_cv_;

  std::atomic<uint64_t> input_records_{0}, input_bytes_{0},
      map_invocations_{0}, map_output_records_{0}, map_output_bytes_{0},
      map_output_filtered_{0}, log_messages_{0};
  std::atomic<uint64_t> bytes_decoded_{0}, blocks_skipped_{0};
  std::atomic<uint64_t> task_retries_{0}, speculative_launches_{0},
      tasks_failed_{0};

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

void JobRunner::RunChain(TaskControl* ctl, char kind, int index,
                         int chain, const AttemptFn& attempt_fn) {
  auto& metrics = obs::MetricsRegistry::Get();
  auto& journal = obs::Journal::Get();
  const std::string task = TaskId(kind, index);
  const char* attempt_span_name =
      kind == 'm' ? "map_task_attempt" : "reduce_task_attempt";
  const int max_attempts = std::max(1, cfg_.max_task_attempts);
  Status last;
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    if (ctl->done.load(std::memory_order_acquire) || errors_.Failed()) {
      return;
    }
    if (attempt > 1) {
      task_retries_.fetch_add(1, std::memory_order_relaxed);
      metrics.GetCounter("engine.task_retries")->Increment();
      obs::TraceInstant("engine.task_retry", "exec",
                        {{"task", task},
                         {"chain", std::to_string(chain)},
                         {"attempt", std::to_string(attempt)},
                         {"error", last.ToString()}});
      journal.Event("task_retry")
          .Str("job", cfg_.job_id)
          .Str("task", task)
          .Int("chain", chain)
          .Int("attempt", attempt)
          .Str("error", last.ToString())
          .Emit();
      Backoff(attempt);
    } else {
      journal.Event("task_start")
          .Str("job", cfg_.job_id)
          .Str("task", task)
          .Str("backend", kind == 'm' ? map_backend_name_ : "vm")
          .Int("chain", chain)
          .Bool("speculative", chain > 0)
          .Emit();
    }
    // One span per attempt (the enclosing map_task / reduce_task span
    // covers the whole chain): retries and speculative twins become
    // separate slices on the trace timeline.
    obs::ScopedSpan attempt_span(attempt_span_name, "exec");
    attempt_span.AddArg("task", task);
    attempt_span.AddArg("chain", std::to_string(chain));
    attempt_span.AddArg("attempt", std::to_string(attempt));
    Result<CommitFn> commit = [&]() -> Result<CommitFn> {
      // Faults are injected only inside armed scopes: everything a
      // retry can recover from, nothing it can't.
      ScopedFaultArming arm;
      return attempt_fn(chain, attempt);
    }();
    if (!commit.ok()) {
      last = commit.status();
      if (last.IsIOError()) continue;  // transient: retry
      break;                           // semantic failure: no retry
    }
    if (ctl->done.load(std::memory_order_acquire)) return;
    if (ctl->committed.exchange(true, std::memory_order_acq_rel)) {
      // A speculative twin holds (or completed) the commit; discard.
      return;
    }
    Status commit_status;
    {
      ScopedFaultArming arm;
      commit_status = (*commit)();
    }
    if (commit_status.ok()) {
      ctl->done.store(true, std::memory_order_release);
      ctl->resolved.store(true, std::memory_order_release);
      journal.Event("task_commit")
          .Str("job", cfg_.job_id)
          .Str("task", task)
          .Int("chain", chain)
          .Int("attempt", attempt)
          .Emit();
      return;
    }
    // Release the gate so the twin (if any) may commit instead.
    ctl->committed.store(false, std::memory_order_release);
    last = commit_status;
    if (!last.IsIOError()) break;
  }
  if (!ctl->done.load(std::memory_order_acquire) &&
      !ctl->resolved.exchange(true, std::memory_order_acq_rel)) {
    tasks_failed_.fetch_add(1, std::memory_order_relaxed);
    metrics.GetCounter("engine.tasks_failed")->Increment();
    journal.Event("task_failed")
        .Str("job", cfg_.job_id)
        .Str("task", task)
        .Int("chain", chain)
        .Str("error", last.ToString())
        .Emit();
    errors_.Set(last.ok() ? Status::Internal("task failed without status")
                          : last);
  }
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

Result<JobRunner::CommitFn> JobRunner::MapAttempt(int split_index,
                                                  int chain,
                                                  int attempt) {
  // Everything an attempt produces lives here until the commit
  // decision; an uncommitted attempt cleans up after itself (the
  // unsealed Mapper removes its spill runs, the attempt part file is
  // deleted).
  struct AttemptState {
    std::unique_ptr<Shuffle::Mapper> mapper;
    std::unique_ptr<PartFile> part;
    std::string attempt_path;
    std::string canonical_path;
    bool committed = false;
    uint64_t records = 0;
    uint64_t map_invocations = 0;
    uint64_t output_records = 0;
    uint64_t output_bytes = 0;
    uint64_t output_filtered = 0;
    uint64_t logs = 0;
    uint64_t vm_instructions = 0;
    uint64_t native_bailouts = 0;
    bool used_native = false;
    double seconds = 0;
    std::vector<uint64_t> interval_matches;
    ~AttemptState() {
      if (!committed && !attempt_path.empty()) {
        (void)RemoveFileIfExists(attempt_path);
      }
    }
  };
  auto state = std::make_shared<AttemptState>();
  Stopwatch attempt_watch;
  MANIMAL_ASSIGN_OR_RETURN(std::unique_ptr<InputSplit> split,
                           plan_->OpenSplit(split_index));
  if (has_reduce_) {
    state->mapper = shuffle_->NewMapper();
  } else {
    state->attempt_path = AttemptPath('m', split_index, chain);
    state->canonical_path = PartPath('m', split_index);
    MANIMAL_ASSIGN_OR_RETURN(state->part,
                             PartFile::Create(state->attempt_path));
  }

  const int num_partitions = cfg_.num_partitions;
  std::string key_scratch, value_scratch;
  auto emit_pair = [&, state](const Value& k, const Value& v) -> Status {
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
          ++state->output_filtered;
          return Status::OK();
        }
      }
    }
    ++state->output_records;
    if (has_reduce_) {
      key_scratch.clear();
      MANIMAL_RETURN_IF_ERROR(EncodeOrderedKey(k, &key_scratch));
      value_scratch.clear();
      MANIMAL_RETURN_IF_ERROR(EncodeValue(v, &value_scratch));
      state->output_bytes += key_scratch.size() + value_scratch.size();
      int p = static_cast<int>(k.Hash() % num_partitions);
      // Lock-free: this attempt's private partition buffer.
      return state->mapper->Add(p, key_scratch, value_scratch);
    }
    // Map-only: encode straight into the part file's chunk buffer.
    std::string* buf = state->part->buffer();
    const size_t before = buf->size();
    MANIMAL_RETURN_IF_ERROR(EncodeValue(k, buf));
    MANIMAL_RETURN_IF_ERROR(EncodeValue(v, buf));
    state->output_bytes += buf->size() - before;
    return state->part->PairAdded();
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
      vm->set_log_sink([state](const Value&) { ++state->logs; });
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
  if (observe_) state->interval_matches.assign(num_observe_intervals, 0);

  int64_t key = 0;
  Value value;
  while (true) {
    MANIMAL_ASSIGN_OR_RETURN(bool more, split->Next(&key, &value));
    if (!more) break;
    if (errors_.Failed()) {
      return Status::Internal("map task aborted: job already failed");
    }
    ++state->records;
    if (observe_) {
      Result<Value> index_key = analyzer::EvalExpr(
          descriptor_.observe_expr, Value::I64(key), value);
      if (index_key.ok()) {
        for (size_t i = 0; i < num_observe_intervals; ++i) {
          if (descriptor_.observe_intervals[i].Contains(*index_key)) {
            ++state->interval_matches[i];
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
        ++state->native_bailouts;
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
    if (cfg_.debug_map_record_sleep_ms > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          cfg_.debug_map_record_sleep_ms));
    }
  }
  if (state->part != nullptr) {
    MANIMAL_RETURN_IF_ERROR(state->part->Finish());
  }
  state->used_native = use_native;
  state->map_invocations =
      kernel_handled +
      (vm != nullptr ? static_cast<uint64_t>(vm->map_invocations()) : 0);
  state->vm_instructions =
      vm != nullptr ? static_cast<uint64_t>(vm->total_steps()) : 0;
  state->seconds = attempt_watch.ElapsedSeconds();
  const uint64_t split_bytes = split->bytes_read();
  const uint64_t split_decoded = split->bytes_decoded();
  const uint64_t split_skipped = split->blocks_skipped();

  return CommitFn([this, state, split_bytes, split_decoded, split_skipped,
                   split_index, chain, attempt]() -> Status {
    if (state->part != nullptr) {
      MANIMAL_RETURN_IF_ERROR(
          RenameFile(state->attempt_path, state->canonical_path));
    }
    // Map/reduce barrier handoff: sorted runs + in-memory tails move
    // to the partitions in one locked step. No IO happens here, so a
    // claimed commit cannot fail past this point.
    if (state->mapper != nullptr) {
      MANIMAL_RETURN_IF_ERROR(state->mapper->Seal());
    }
    state->committed = true;
    input_records_.fetch_add(state->records, std::memory_order_relaxed);
    input_bytes_.fetch_add(split_bytes, std::memory_order_relaxed);
    bytes_decoded_.fetch_add(split_decoded, std::memory_order_relaxed);
    blocks_skipped_.fetch_add(split_skipped, std::memory_order_relaxed);
    map_invocations_.fetch_add(state->map_invocations,
                               std::memory_order_relaxed);
    map_output_records_.fetch_add(state->output_records,
                                  std::memory_order_relaxed);
    map_output_bytes_.fetch_add(state->output_bytes,
                                std::memory_order_relaxed);
    map_output_filtered_.fetch_add(state->output_filtered,
                                   std::memory_order_relaxed);
    log_messages_.fetch_add(state->logs, std::memory_order_relaxed);
    if (state->used_native) {
      native_tasks_.fetch_add(1, std::memory_order_relaxed);
      native_bailouts_.fetch_add(state->native_bailouts,
                                 std::memory_order_relaxed);
      obs::MetricsRegistry::Get()
          .GetCounter("engine.native_tasks")
          ->Increment();
    }
    if (cfg_.collect_task_stats) {
      TaskStat stat;
      stat.kind = 'm';
      stat.index = split_index;
      stat.chain = chain;
      stat.attempt = attempt;
      stat.records_in = state->records;
      stat.records_out = state->output_records;
      stat.bytes_read = split_bytes;
      stat.bytes_written = state->output_bytes;
      stat.vm_instructions = state->vm_instructions;
      stat.seconds = state->seconds;
      RecordTaskStat(stat, state->interval_matches);
    }
    return Status::OK();
  });
}

Result<JobRunner::CommitFn> JobRunner::ReduceAttempt(int partition,
                                                     int chain,
                                                     int attempt) {
  struct AttemptState {
    std::unique_ptr<PartFile> part;
    std::string attempt_path;
    std::string canonical_path;
    bool committed = false;
    uint64_t groups = 0;
    uint64_t logs = 0;
    uint64_t vm_instructions = 0;
    double seconds = 0;
    ~AttemptState() {
      if (!committed && !attempt_path.empty()) {
        (void)RemoveFileIfExists(attempt_path);
      }
    }
  };
  auto state = std::make_shared<AttemptState>();
  Stopwatch attempt_watch;
  state->attempt_path = AttemptPath('r', partition, chain);
  state->canonical_path = PartPath('r', partition);

  std::unique_ptr<index::SortedStream> stream;
  {
    obs::ScopedSpan merge_span("shuffle.merge", "exec");
    MANIMAL_ASSIGN_OR_RETURN(stream, shuffle_->FinishPartition(partition));
  }
  MANIMAL_ASSIGN_OR_RETURN(state->part,
                           PartFile::Create(state->attempt_path));

  mril::VmInstance vm(&program_);
  vm.set_log_sink([state](const Value&) { ++state->logs; });
  vm.set_emit_sink([state](const Value& k, const Value& v) -> Status {
    std::string* buf = state->part->buffer();
    MANIMAL_RETURN_IF_ERROR(EncodeValue(k, buf));
    MANIMAL_RETURN_IF_ERROR(EncodeValue(v, buf));
    return state->part->PairAdded();
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
    ++state->groups;
    MANIMAL_RETURN_IF_ERROR(vm.InvokeReduce(key, values));
  }
  MANIMAL_RETURN_IF_ERROR(state->part->Finish());
  state->vm_instructions = vm.total_steps();
  state->seconds = attempt_watch.ElapsedSeconds();

  return CommitFn([this, state, partition, chain, attempt]() -> Status {
    MANIMAL_RETURN_IF_ERROR(
        RenameFile(state->attempt_path, state->canonical_path));
    state->committed = true;
    // Winner-only plain write; read after the phase barrier.
    partition_groups_[partition] = state->groups;
    log_messages_.fetch_add(state->logs, std::memory_order_relaxed);
    if (cfg_.collect_task_stats) {
      TaskStat stat;
      stat.kind = 'r';
      stat.index = partition;
      stat.chain = chain;
      stat.attempt = attempt;
      stat.records_in = state->groups;
      stat.records_out = state->part->num_pairs();
      stat.bytes_written = state->part->payload_bytes();
      stat.vm_instructions = state->vm_instructions;
      stat.seconds = state->seconds;
      RecordTaskStat(stat, {});
    }
    return Status::OK();
  });
}

void JobRunner::SubmitMapChain(ThreadPool* pool, int split_index,
                               int chain) {
  pool->Submit([this, split_index, chain] {
    TaskControl& ctl = map_tasks_[split_index];
    if (ctl.done.load(std::memory_order_acquire) || errors_.Failed()) {
      return;
    }
    obs::ScopedSpan task_span("map_task", "exec");
    task_span.AddArg("split", std::to_string(split_index));
    if (chain > 0) task_span.AddArg("speculative", "1");
    int64_t zero = 0;
    ctl.started_ns.compare_exchange_strong(zero, SteadyNowNanos(),
                                           std::memory_order_relaxed);
    Stopwatch chain_watch;
    RunChain(&ctl, 'm', split_index, chain,
             [this, split_index](int c, int attempt) {
               return MapAttempt(split_index, c, attempt);
             });
    const double seconds = chain_watch.ElapsedSeconds();
    {
      std::lock_guard<std::mutex> lock(durations_mu_);
      map_chain_seconds_.push_back(seconds);
    }
    auto& metrics = obs::MetricsRegistry::Get();
    metrics.GetCounter("exec.map_tasks")->Increment();
    metrics.GetHistogram("exec.map_task_seconds")->Record(seconds);
    monitor_cv_.notify_all();
  });
}

void JobRunner::MonitorMapPhase(ThreadPool* pool) {
  const int num_tasks = plan_->num_splits();
  auto& metrics = obs::MetricsRegistry::Get();
  auto all_resolved = [&] {
    for (const TaskControl& t : map_tasks_) {
      if (!t.resolved.load(std::memory_order_acquire)) return false;
    }
    return true;
  };
  // Poll coarsely: speculation decisions only need resolution at the
  // scale of the minimum straggler threshold, and a fine-grained
  // polling loop steals CPU from the map workers themselves. Chain
  // completions notify monitor_cv_, so phase exit is still prompt.
  const double poll_seconds = std::min(
      0.05, std::max(0.001, cfg_.speculation_min_seconds / 8));
  const auto poll = std::chrono::microseconds(
      static_cast<int64_t>(poll_seconds * 1e6));
  while (!all_resolved() && !errors_.Failed()) {
    if (cfg_.enable_speculation && num_tasks >= 2) {
      double threshold = -1;
      {
        std::lock_guard<std::mutex> lock(durations_mu_);
        const size_t completed = map_chain_seconds_.size();
        if (completed >= std::max<size_t>(2, num_tasks / 2)) {
          // p95 of completed chain durations.
          std::vector<double> sorted = map_chain_seconds_;
          std::sort(sorted.begin(), sorted.end());
          const double p95 =
              sorted[std::min(sorted.size() - 1,
                              static_cast<size_t>(0.95 * sorted.size()))];
          threshold = std::max(cfg_.speculation_min_seconds,
                               cfg_.speculation_factor * p95);
        }
      }
      if (threshold >= 0) {
        const int64_t now = SteadyNowNanos();
        for (int i = 0; i < num_tasks; ++i) {
          TaskControl& ctl = map_tasks_[i];
          const int64_t started =
              ctl.started_ns.load(std::memory_order_relaxed);
          if (started == 0 ||
              ctl.resolved.load(std::memory_order_acquire)) {
            continue;
          }
          const double elapsed =
              static_cast<double>(now - started) * 1e-9;
          if (elapsed >= threshold &&
              !ctl.speculated.exchange(true,
                                       std::memory_order_acq_rel)) {
            speculative_launches_.fetch_add(1,
                                            std::memory_order_relaxed);
            metrics.GetCounter("engine.speculative_launches")
                ->Increment();
            obs::TraceInstant("engine.speculative_launch", "exec",
                              {{"task", TaskId('m', i)},
                               {"elapsed_s", StrPrintf("%.3f", elapsed)},
                               {"threshold_s",
                                StrPrintf("%.3f", threshold)}});
            obs::Journal::Get()
                .Event("speculative_launch")
                .Str("job", cfg_.job_id)
                .Str("task", TaskId('m', i))
                .Time("elapsed_s", elapsed)
                .Time("threshold_s", threshold)
                .Emit();
            SubmitMapChain(pool, i, /*chain=*/1);
          }
        }
      }
    }
    std::unique_lock<std::mutex> lock(monitor_mu_);
    monitor_cv_.wait_for(lock, poll, [&] {
      return all_resolved() || errors_.Failed();
    });
  }
}

Status JobRunner::RunMapPhase() {
  obs::ScopedSpan map_phase_span("job.map_phase", "exec");
  const int num_tasks = plan_->num_splits();
  for (int i = 0; i < num_tasks; ++i) map_tasks_.emplace_back();
  ThreadPool pool(cfg_.map_parallelism);
  for (int i = 0; i < num_tasks; ++i) {
    SubmitMapChain(&pool, i, /*chain=*/0);
  }
  MonitorMapPhase(&pool);
  pool.Wait();
  return errors_.First();
}

Status JobRunner::RunReducePhase() {
  obs::ScopedSpan reduce_phase_span("job.reduce_phase", "exec");
  const int num_partitions = cfg_.num_partitions;
  partition_groups_.assign(num_partitions, 0);
  for (int p = 0; p < num_partitions; ++p) reduce_tasks_.emplace_back();
  ThreadPool pool(cfg_.map_parallelism);
  for (int p = 0; p < num_partitions; ++p) {
    pool.Submit([this, p] {
      TaskControl& ctl = reduce_tasks_[p];
      obs::ScopedSpan task_span("reduce_task", "exec");
      task_span.AddArg("partition", std::to_string(p));
      Stopwatch task_watch;
      RunChain(&ctl, 'r', p, /*chain=*/0, [this, p](int c, int attempt) {
        return ReduceAttempt(p, c, attempt);
      });
      auto& metrics = obs::MetricsRegistry::Get();
      metrics.GetCounter("exec.reduce_tasks")->Increment();
      metrics.GetHistogram("exec.reduce_task_seconds")
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
  obs::MetricsRegistry::Get().GetCounter("engine.speculative_launches");
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
  MANIMAL_RETURN_IF_ERROR(RunMapPhase());
  result_.map_seconds = map_watch.ElapsedSeconds();
  result_.phase_breakdown["map"].seconds = result_.map_seconds;

  // ---------------- reduce / output phase ----------------
  Stopwatch reduce_watch;
  uint64_t reduce_groups_total = 0;
  if (has_reduce_) {
    MANIMAL_RETURN_IF_ERROR(RunReducePhase());
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
  result_.counters.speculative_launches = speculative_launches_.load();
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
      .Uint("speculative_launches",
            result_.counters.speculative_launches)
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
