#include "obs/journal.h"

#include <cstdlib>
#include <utility>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace manimal::obs {

namespace {

void AppendKey(std::string* out, std::string_view key) {
  if (!out->empty()) *out += ',';
  *out += '"';
  JsonAppendEscaped(out, key);
  *out += "\":";
}

}  // namespace

JournalEvent& JournalEvent::Str(std::string_view key,
                                std::string_view value) {
  if (journal_ == nullptr) return *this;
  AppendKey(&fields_, key);
  fields_ += JsonQuote(value);
  return *this;
}

JournalEvent& JournalEvent::Int(std::string_view key, int64_t value) {
  if (journal_ == nullptr) return *this;
  AppendKey(&fields_, key);
  fields_ += std::to_string(value);
  return *this;
}

JournalEvent& JournalEvent::Uint(std::string_view key, uint64_t value) {
  if (journal_ == nullptr) return *this;
  AppendKey(&fields_, key);
  fields_ += std::to_string(value);
  return *this;
}

JournalEvent& JournalEvent::Num(std::string_view key, double value) {
  if (journal_ == nullptr) return *this;
  AppendKey(&fields_, key);
  fields_ += JsonNumber(value);
  return *this;
}

JournalEvent& JournalEvent::Bool(std::string_view key, bool value) {
  if (journal_ == nullptr) return *this;
  AppendKey(&fields_, key);
  fields_ += value ? "true" : "false";
  return *this;
}

JournalEvent& JournalEvent::Time(std::string_view key, double seconds) {
  if (journal_ == nullptr) return *this;
  AppendKey(&fields_, key);
  fields_ +=
      JsonFixed(journal_->deterministic() ? 0.0 : seconds, 6);
  return *this;
}

JournalEvent& JournalEvent::Raw(std::string_view key,
                                std::string_view json) {
  if (journal_ == nullptr) return *this;
  AppendKey(&fields_, key);
  fields_ += json;
  return *this;
}

void JournalEvent::Emit() {
  if (journal_ == nullptr) return;
  journal_->Write(type_, fields_);
  journal_ = nullptr;
}

Journal::Journal() {
  const char* path = std::getenv("MANIMAL_JOURNAL");
  if (path != nullptr && path[0] != '\0') {
    path_ = path;
    enabled_.store(true, std::memory_order_relaxed);
  }
}

Journal& Journal::Get() {
  // Leaked singleton, same rationale as the metrics registry: events
  // may still arrive from static destructors.
  static Journal* journal = new Journal();
  return *journal;
}

JournalEvent Journal::Event(const char* type) {
  return JournalEvent(enabled() ? this : nullptr, type);
}

uint64_t Journal::events_written() const {
  return events_written_.load(std::memory_order_relaxed);
}

void Journal::Write(const char* type, const std::string& fields) {
  // Timestamp shares the tracer's epoch so journal lines locate
  // within the Chrome trace timeline. Taken outside the lock.
  const double ts_us =
      deterministic() ? 0.0 : Tracer::Get().NowMicros();
  std::string line = "{\"v\":";
  line += std::to_string(kJournalSchemaVersion);
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr) {
    if (path_.empty()) return;
    file_ = std::fopen(path_.c_str(), "a");
    if (file_ == nullptr) {
      // Journal IO must never fail a job; drop events.
      enabled_.store(false, std::memory_order_relaxed);
      return;
    }
  }
  line += ",\"seq\":" + std::to_string(next_seq_++);
  line += ",\"ts_us\":" + JsonFixed(ts_us, 3);
  line += ",\"event\":" + JsonQuote(type);
  if (!fields.empty()) {
    line += ',';
    line += fields;
  }
  line += "}\n";
  if (std::fwrite(line.data(), 1, line.size(), file_) != line.size() ||
      std::fflush(file_) != 0) {
    // Journal IO must never fail a job: close the file, forget the
    // path and drop this and every later event.
    std::fclose(file_);
    file_ = nullptr;
    path_.clear();
    enabled_.store(false, std::memory_order_relaxed);
    return;
  }
  events_written_.fetch_add(1, std::memory_order_relaxed);
  MetricsRegistry::Get().GetCounter("obs.journal_events")->Increment();
}

void Journal::SetOutputPathForTest(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  path_ = path;
  next_seq_ = 1;
  if (!path.empty()) {
    // Truncate so each test starts from a clean journal.
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f != nullptr) std::fclose(f);
  }
  enabled_.store(!path.empty(), std::memory_order_relaxed);
}

void Journal::ResetForTest() {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  next_seq_ = 1;
  events_written_.store(0, std::memory_order_relaxed);
  deterministic_.store(false, std::memory_order_relaxed);
  const char* env = std::getenv("MANIMAL_JOURNAL");
  if (env != nullptr && env[0] != '\0') {
    path_ = env;
    enabled_.store(true, std::memory_order_relaxed);
  } else {
    path_.clear();
    enabled_.store(false, std::memory_order_relaxed);
  }
}

}  // namespace manimal::obs
