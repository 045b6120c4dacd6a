// Telemetry substrate, part 4: a structured per-job run journal.
//
// The tracer answers "where did the time go" visually; the journal
// answers "what did the run DO", machine-readably. When
// MANIMAL_JOURNAL=<path> is set, every job / plan / task lifecycle
// transition — plan selection, task start, retry and commit,
// fault-injection hit, shuffle spill, partition merge, output commit,
// job finish — is appended to <path> as one JSON object per line
// (JSON lines), in emission order, with a stable versioned schema
// ("v" field, currently 2) and a process-monotonic sequence number.
//
// Journal events and Chrome-trace spans share identifiers and the
// timebase: the engine stamps the same job id ("job-<n>") and task id
// ("m0003" / "r0001") strings on both, and "ts_us" is microseconds
// since the tracer's epoch, so a journal line can be located inside
// the trace timeline directly. See docs/observability.md for the
// event schema table.
//
// When the variable is unset, Event() costs one relaxed atomic load
// and every builder call is a no-op — cheap enough to leave the
// emission sites compiled in everywhere. Events are task/job-level,
// never per-record.

#ifndef MANIMAL_OBS_JOURNAL_H_
#define MANIMAL_OBS_JOURNAL_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <string_view>

namespace manimal::obs {

// Version of the journal line schema. Bump when a field is renamed,
// removed, or changes meaning; adding fields is backward-compatible.
inline constexpr int kJournalSchemaVersion = 2;

class Journal;

// One pending journal line. Obtained from Journal::Event(); field
// setters append in call order; Emit() writes the line (or the
// destructor drops it). All calls are no-ops when the journal is
// disabled.
class JournalEvent {
 public:
  JournalEvent(JournalEvent&&) = default;
  JournalEvent(const JournalEvent&) = delete;
  JournalEvent& operator=(const JournalEvent&) = delete;

  JournalEvent& Str(std::string_view key, std::string_view value);
  JournalEvent& Int(std::string_view key, int64_t value);
  JournalEvent& Uint(std::string_view key, uint64_t value);
  JournalEvent& Num(std::string_view key, double value);
  JournalEvent& Bool(std::string_view key, bool value);
  // A wall-clock-derived duration in seconds: written with %.6f, and
  // zeroed in deterministic mode so golden-file tests stay
  // byte-stable under a fixed seed.
  JournalEvent& Time(std::string_view key, double seconds);
  // Pre-serialized JSON (objects/arrays), trusted verbatim.
  JournalEvent& Raw(std::string_view key, std::string_view json);

  void Emit();

 private:
  friend class Journal;
  JournalEvent(Journal* journal, const char* type)
      : journal_(journal), type_(type) {}

  Journal* journal_;  // nullptr: disabled, everything no-ops
  const char* type_;
  std::string fields_;
};

class Journal {
 public:
  static Journal& Get();

  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  // Starts a journal line of the given event type. `type` must
  // outlive the builder (string literals in practice).
  JournalEvent Event(const char* type);

  // Total events written since process start (or the last reset).
  uint64_t events_written() const;

  // ---- test hooks ----
  // Points the journal at `path` (truncating it) and enables
  // recording without the environment variable.
  void SetOutputPathForTest(const std::string& path);
  // Deterministic mode: ts_us and every Time() field are written as
  // 0, so a single-threaded run under a fixed seed is byte-stable.
  void SetDeterministicForTest(bool on) {
    deterministic_.store(on, std::memory_order_relaxed);
  }
  bool deterministic() const {
    return deterministic_.load(std::memory_order_relaxed);
  }
  // Closes the output, resets the sequence counter, and re-disables
  // recording unless MANIMAL_JOURNAL is set in the environment.
  void ResetForTest();

 private:
  friend class JournalEvent;
  Journal();

  void Write(const char* type, const std::string& fields);

  std::atomic<bool> enabled_{false};
  std::atomic<bool> deterministic_{false};
  std::atomic<uint64_t> events_written_{0};
  std::mutex mu_;
  std::string path_;
  std::FILE* file_ = nullptr;  // opened lazily on first write
  uint64_t next_seq_ = 1;
};

}  // namespace manimal::obs

#endif  // MANIMAL_OBS_JOURNAL_H_
