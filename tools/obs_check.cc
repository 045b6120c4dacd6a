// obs_check — CI validator for the machine-readable observability
// artifacts (docs/observability.md):
//
//   obs_check --journal run.jsonl   # run journal (JSON lines, v2)
//   obs_check --trace trace.json    # Chrome trace export
//   obs_check --explain plans.jsonl # EXPLAIN reports (JSON lines, v2)
//
// Any mix of flags may be given; every named file is validated and
// the process exits nonzero if any check fails. The checks enforce
// the schema contracts the docs promise: every journal line is a
// versioned, monotonically-sequenced JSON object of a known event
// type carrying that type's required fields; the trace is one JSON
// object with a well-formed traceEvents array; every explain line is
// a versioned report with a plan section and a legal candidate set.

#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/env.h"
#include "obs/journal.h"
#include "obs/json.h"
#include "optimizer/explain.h"

namespace {

using manimal::obs::JsonParse;
using manimal::obs::JsonValue;

int g_failures = 0;

void Fail(const std::string& file, size_t line_no,
          const std::string& what) {
  std::fprintf(stderr, "obs_check: %s:%zu: %s\n", file.c_str(), line_no,
               what.c_str());
  ++g_failures;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    if (end > start) lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

bool HasKeys(const JsonValue& obj, const std::vector<const char*>& keys,
             std::string* missing) {
  for (const char* key : keys) {
    if (obj.Find(key) == nullptr) {
      *missing = key;
      return false;
    }
  }
  return true;
}

// ---- journal ----

// Required fields per event type (beyond the envelope v/seq/ts_us).
const std::map<std::string, std::vector<const char*>>& JournalSchema() {
  static const std::map<std::string, std::vector<const char*>> schema = {
      {"plan_selected",
       {"program", "input", "mode", "access_path", "optimized",
        "candidates", "summary"}},
      {"job_start",
       {"job", "program", "access_path", "splits", "partitions",
        "input_file_bytes", "observe_predicates"}},
      {"task_start", {"job", "task", "backend"}},
      {"task_retry", {"job", "task", "attempt", "error"}},
      {"task_commit", {"job", "task", "attempt"}},
      {"task_failed", {"job", "task", "error"}},
      {"shuffle_spill", {"job", "mapper", "partition", "bytes"}},
      {"shuffle_merge", {"job", "partition", "disk_runs", "memory_runs"}},
      {"fault_injected",
       {"op", "path", "site_ordinal", "injected_so_far"}},
      {"direct_eval",
       {"job", "admitted", "blocks_total", "blocks_refuted", "detail"}},
      {"output_commit", {"job", "path", "records", "bytes"}},
      {"job_finish",
       {"job", "input_records", "output_records", "task_retries",
        "shuffle_spilled_runs", "bytes_decoded", "blocks_skipped",
        "wall_seconds", "reported_seconds"}},
      {"job_failed", {"job", "error"}},
  };
  return schema;
}

void CheckJournal(const std::string& path) {
  auto text = manimal::ReadFileToString(path);
  if (!text.ok()) {
    Fail(path, 0, text.status().ToString());
    return;
  }
  const std::vector<std::string> lines = SplitLines(*text);
  if (lines.empty()) Fail(path, 0, "journal is empty");
  uint64_t prev_seq = 0;
  std::map<std::string, int> counts;
  for (size_t i = 0; i < lines.size(); ++i) {
    JsonValue value;
    std::string error;
    if (!JsonParse(lines[i], &value, &error)) {
      Fail(path, i + 1, "not valid JSON: " + error);
      continue;
    }
    if (!value.is_object()) {
      Fail(path, i + 1, "line is not a JSON object");
      continue;
    }
    const int version = static_cast<int>(value.NumberOr("v", -1));
    if (version != manimal::obs::kJournalSchemaVersion) {
      Fail(path, i + 1,
           "schema version " + std::to_string(version) + " != " +
               std::to_string(manimal::obs::kJournalSchemaVersion));
    }
    const double seq = value.NumberOr("seq", -1);
    if (seq <= static_cast<double>(prev_seq)) {
      Fail(path, i + 1, "seq not strictly increasing");
    }
    prev_seq = static_cast<uint64_t>(seq);
    if (value.Find("ts_us") == nullptr) {
      Fail(path, i + 1, "missing ts_us");
    }
    const std::string event = value.StringOr("event", "");
    auto it = JournalSchema().find(event);
    if (it == JournalSchema().end()) {
      Fail(path, i + 1, "unknown event type '" + event + "'");
      continue;
    }
    std::string missing;
    if (!HasKeys(value, it->second, &missing)) {
      Fail(path, i + 1, event + " missing field '" + missing + "'");
    }
    ++counts[event];
  }
  std::printf("obs_check: %s: %zu journal lines", path.c_str(),
              lines.size());
  for (const auto& [event, n] : counts) {
    std::printf(" %s=%d", event.c_str(), n);
  }
  std::printf("\n");
}

// ---- trace ----

void CheckTrace(const std::string& path) {
  auto text = manimal::ReadFileToString(path);
  if (!text.ok()) {
    Fail(path, 0, text.status().ToString());
    return;
  }
  JsonValue value;
  std::string error;
  if (!JsonParse(*text, &value, &error)) {
    Fail(path, 0, "not valid JSON: " + error);
    return;
  }
  const JsonValue* events = value.Find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    Fail(path, 0, "missing traceEvents array");
    return;
  }
  if (events->items.empty()) Fail(path, 0, "trace has no events");
  static const std::set<std::string> kPhases = {"X", "i", "C", "M"};
  for (size_t i = 0; i < events->items.size(); ++i) {
    const JsonValue& ev = events->items[i];
    const std::string ph = ev.StringOr("ph", "");
    if (kPhases.count(ph) == 0) {
      Fail(path, i + 1, "event phase '" + ph + "' unexpected");
      continue;
    }
    std::string missing;
    if (!HasKeys(ev, {"name", "ts", "pid", "tid"}, &missing)) {
      Fail(path, i + 1, "trace event missing '" + missing + "'");
    }
    if (ph == "X" && ev.Find("dur") == nullptr) {
      Fail(path, i + 1, "complete event missing 'dur'");
    }
  }
  std::printf("obs_check: %s: %zu trace events\n", path.c_str(),
              events->items.size());
}

// ---- explain ----

void CheckExplain(const std::string& path) {
  auto text = manimal::ReadFileToString(path);
  if (!text.ok()) {
    Fail(path, 0, text.status().ToString());
    return;
  }
  const std::vector<std::string> lines = SplitLines(*text);
  if (lines.empty()) Fail(path, 0, "explain file is empty");
  static const std::set<std::string> kVerdicts = {"chosen", "rejected",
                                                 "uncataloged", "stale"};
  static const std::set<std::string> kProvenances = {"histogram",
                                                    "btree-fanout"};
  for (size_t i = 0; i < lines.size(); ++i) {
    JsonValue value;
    std::string error;
    if (!JsonParse(lines[i], &value, &error)) {
      Fail(path, i + 1, "not valid JSON: " + error);
      continue;
    }
    const int version =
        static_cast<int>(value.NumberOr("explain_version", -1));
    if (version != manimal::optimizer::kExplainSchemaVersion) {
      Fail(path, i + 1,
           "explain_version " + std::to_string(version) + " != " +
               std::to_string(manimal::optimizer::kExplainSchemaVersion));
    }
    const JsonValue* plan = value.Find("plan");
    if (plan == nullptr || !plan->is_object()) {
      Fail(path, i + 1, "missing plan object");
      continue;
    }
    std::string missing;
    if (!HasKeys(*plan,
                 {"program", "input", "mode", "access_path", "optimized",
                  "candidates"},
                 &missing)) {
      Fail(path, i + 1, "plan missing '" + missing + "'");
    }
    const std::string mode = plan->StringOr("mode", "");
    if (mode != "rule" && mode != "cost") {
      Fail(path, i + 1, "plan mode '" + mode + "' unexpected");
    }
    const JsonValue* candidates = plan->Find("candidates");
    int chosen = 0;
    if (candidates != nullptr && candidates->is_array()) {
      for (const JsonValue& c : candidates->items) {
        const std::string verdict = c.StringOr("verdict", "");
        if (kVerdicts.count(verdict) == 0) {
          Fail(path, i + 1, "candidate verdict '" + verdict + "'");
        }
        if (verdict == "chosen") ++chosen;
        // Full-scan candidates legitimately carry no provenance
        // (selectivity 1.0 by construction); when one is present it
        // must name a known estimator.
        if (c.Find("provenance") != nullptr &&
            kProvenances.count(c.StringOr("provenance", "")) == 0) {
          Fail(path, i + 1,
               "candidate provenance '" +
                   c.StringOr("provenance", "") + "' unexpected");
        }
      }
      if (chosen > 1) Fail(path, i + 1, "multiple chosen candidates");
    }
    const JsonValue* plan_prov = plan->Find("est_provenance");
    if (plan_prov != nullptr &&
        kProvenances.count(plan->StringOr("est_provenance", "")) == 0) {
      Fail(path, i + 1,
           "plan est_provenance '" +
               plan->StringOr("est_provenance", "") + "' unexpected");
    }
    const bool analyzed = [&] {
      const JsonValue* a = value.Find("analyzed");
      return a != nullptr && a->is_bool() && a->bool_value;
    }();
    if (analyzed) {
      const JsonValue* exec = value.Find("exec");
      if (exec == nullptr || !exec->is_object()) {
        Fail(path, i + 1, "analyzed report missing exec object");
      } else {
        if (!HasKeys(*exec,
                     {"rows_scanned", "rows_emitted", "phases",
                      "counters", "tasks"},
                     &missing)) {
          Fail(path, i + 1, "exec missing '" + missing + "'");
        }
        // The resolved map backend is "vm" or "native" when reported,
        // and the counters object always carries the native-tier pair
        // (zero for pure-VM runs).
        const JsonValue* backend = exec->Find("backend");
        if (backend != nullptr) {
          const std::string name = exec->StringOr("backend", "");
          if (name != "vm" && name != "native") {
            Fail(path, i + 1, "exec backend '" + name + "' unexpected");
          }
        }
        const JsonValue* counters = exec->Find("counters");
        if (counters != nullptr && counters->is_object() &&
            !HasKeys(*counters, {"native_tasks", "native_bailout_records"},
                     &missing)) {
          Fail(path, i + 1, "exec counters missing '" + missing + "'");
        }
      }
      if (value.Find("drift") == nullptr) {
        Fail(path, i + 1, "analyzed report missing drift array");
      }
    }
  }
  std::printf("obs_check: %s: %zu explain reports\n", path.c_str(),
              lines.size());
}

}  // namespace

int main(int argc, char** argv) {
  bool did_anything = false;
  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "obs_check: %s needs a path\n", argv[i]);
        ++g_failures;
        return nullptr;
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--journal") == 0) {
      if (const char* p = next()) CheckJournal(p);
      did_anything = true;
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      if (const char* p = next()) CheckTrace(p);
      did_anything = true;
    } else if (std::strcmp(argv[i], "--explain") == 0) {
      if (const char* p = next()) CheckExplain(p);
      did_anything = true;
    } else {
      std::fprintf(stderr,
                   "usage: obs_check [--journal <path>] [--trace <path>] "
                   "[--explain <path>]\n");
      return 2;
    }
  }
  if (!did_anything) {
    std::fprintf(stderr,
                 "usage: obs_check [--journal <path>] [--trace <path>] "
                 "[--explain <path>]\n");
    return 2;
  }
  if (g_failures > 0) {
    std::fprintf(stderr, "obs_check: %d failure(s)\n", g_failures);
    return 1;
  }
  std::printf("obs_check: OK\n");
  return 0;
}
