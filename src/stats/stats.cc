#include "stats/stats.h"

#include <algorithm>
#include <cstdio>

#include "common/env.h"
#include "common/strings.h"
#include "obs/json.h"

namespace manimal::stats {

namespace {

// FNV-1a, the same hash family the rest of the repo uses for tags, but
// with its own offset basis rather than common/strings.h's Fnv1a one:
// switching would change every KMV sketch, and so every ndv.
uint64_t HashKey(std::string_view s) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// Every collector starts its reservoir PRNG here, so rebuilding the
// same input yields byte-identical stats.
constexpr uint64_t kReservoirSeed = 0x9e3779b97f4a7c15ull;

// xorshift64* — deterministic, seedless-state PRNG for the reservoir.
uint64_t NextRng(uint64_t* state) {
  uint64_t x = *state;
  x ^= x >> 12;
  x ^= x << 25;
  x ^= x >> 27;
  *state = x;
  return x * 2685821657736338717ull;
}

// Algorithm R: the reservoir slot of the `count`-th key (1-based).
// Each of the first N keys survives with probability
// kReservoirCapacity/N. Draws from *rng only once the reservoir is
// full.
size_t ReservoirSlot(uint64_t count, uint64_t* rng) {
  if (count <= kReservoirCapacity) return static_cast<size_t>(count - 1);
  const uint64_t j = NextRng(rng) % count;
  return j < kReservoirCapacity ? static_cast<size_t>(j) : SIZE_MAX;
}

// Appends `s` as a quoted lowercase-hex JSON string (hex needs no
// escaping).
void AppendQuotedHex(std::string* out, std::string_view s) {
  static const char* kDigits = "0123456789abcdef";
  out->push_back('"');
  for (unsigned char c : s) {
    out->push_back(kDigits[c >> 4]);
    out->push_back(kDigits[c & 0xf]);
  }
  out->push_back('"');
}

Result<std::string> HexDecode(std::string_view s) {
  if (s.size() % 2 != 0) {
    return Status::Corruption("stats: odd-length hex string");
  }
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  std::string out;
  out.reserve(s.size() / 2);
  for (size_t i = 0; i < s.size(); i += 2) {
    int hi = nibble(s[i]), lo = nibble(s[i + 1]);
    if (hi < 0 || lo < 0) {
      return Status::Corruption("stats: bad hex digit");
    }
    out.push_back(static_cast<char>((hi << 4) | lo));
  }
  return out;
}

void AppendHexArray(std::string* out, const char* key,
                    const std::vector<std::string>& values) {
  out->append(obs::JsonQuote(key));
  out->append(":[");
  for (size_t i = 0; i < values.size(); ++i) {
    if (i) out->push_back(',');
    AppendQuotedHex(out, values[i]);
  }
  out->push_back(']');
}

Result<std::vector<std::string>> ParseHexArray(const obs::JsonValue& obj,
                                               const char* key) {
  std::vector<std::string> out;
  const obs::JsonValue* arr = obj.Find(key);
  if (arr == nullptr || !arr->is_array()) return out;
  out.reserve(arr->items.size());
  for (const obs::JsonValue& item : arr->items) {
    if (!item.is_string()) {
      return Status::Corruption("stats: non-string key in array");
    }
    auto decoded = HexDecode(item.str);
    if (!decoded.ok()) return decoded.status();
    out.push_back(std::move(decoded).value());
  }
  return out;
}

}  // namespace

// ---- ColumnStats ----

double ColumnStats::EstimateRangeFraction(
    const std::optional<std::string>& lo, bool lo_inclusive,
    const std::optional<std::string>& hi, bool hi_inclusive) const {
  if (!usable()) return 1.0;
  const auto begin = histogram.begin();
  const auto end = histogram.end();
  // First sample entry inside the range, first past it.
  auto first = !lo.has_value() ? begin
               : lo_inclusive  ? std::lower_bound(begin, end, *lo)
                               : std::upper_bound(begin, end, *lo);
  auto past = !hi.has_value() ? end
              : hi_inclusive  ? std::upper_bound(begin, end, *hi)
                              : std::lower_bound(begin, end, *hi);
  if (past <= first) {
    // No sample entry in range. A point lookup inside the observed
    // domain may still match rows the sample missed — floor at 1/NDV.
    const bool point = lo.has_value() && hi.has_value() && *lo == *hi &&
                       lo_inclusive && hi_inclusive;
    if (point && ndv >= 1.0 && *lo >= histogram.front() &&
        *lo <= histogram.back()) {
      return std::min(1.0, 1.0 / ndv);
    }
    return 0.0;
  }
  return static_cast<double>(past - first) /
         static_cast<double>(histogram.size());
}

// ---- TableStats ----

const ColumnStats* TableStats::Find(const std::string& name) const {
  auto it = columns.find(name);
  if (it == columns.end() || !it->second.usable()) return nullptr;
  return &it->second;
}

std::string TableStats::ToJson() const {
  std::string out;
  out.append("{\"stats_version\":");
  out.append(std::to_string(kStatsVersion));
  out.append(",\"fingerprint\":");
  out.append(obs::JsonQuote(fingerprint));
  out.append(",\"row_count\":");
  out.append(std::to_string(row_count));
  out.append(",\"columns\":[");
  bool first = true;
  for (const auto& [name, col] : columns) {
    if (!first) out.push_back(',');
    first = false;
    out.append("{\"name\":");
    out.append(obs::JsonQuote(name));
    out.append(",\"row_count\":");
    out.append(std::to_string(col.row_count));
    out.append(",\"ndv\":");
    out.append(obs::JsonNumber(col.ndv));
    out.push_back(',');
    AppendHexArray(&out, "histogram", col.histogram);
    out.push_back(',');
    AppendHexArray(&out, "sample", col.sample);
    out.push_back('}');
  }
  out.append("]}");
  return out;
}

Result<TableStats> TableStats::FromJson(std::string_view text) {
  obs::JsonValue root;
  std::string error;
  if (!obs::JsonParse(text, &root, &error)) {
    return Status::Corruption("stats: bad JSON: " + error);
  }
  if (!root.is_object()) {
    return Status::Corruption("stats: top level is not an object");
  }
  const int version = static_cast<int>(root.NumberOr("stats_version", -1));
  if (version != kStatsVersion) {
    return Status::Corruption(
        StrPrintf("stats: unsupported stats_version %d", version));
  }
  TableStats table;
  table.fingerprint = root.StringOr("fingerprint", "");
  table.row_count = static_cast<uint64_t>(root.NumberOr("row_count", 0));
  const obs::JsonValue* cols = root.Find("columns");
  if (cols != nullptr && cols->is_array()) {
    for (const obs::JsonValue& c : cols->items) {
      if (!c.is_object()) {
        return Status::Corruption("stats: column entry is not an object");
      }
      ColumnStats col;
      std::string name = c.StringOr("name", "");
      if (name.empty()) {
        return Status::Corruption("stats: column without a name");
      }
      col.row_count = static_cast<uint64_t>(c.NumberOr("row_count", 0));
      col.ndv = c.NumberOr("ndv", 0);
      auto histogram = ParseHexArray(c, "histogram");
      if (!histogram.ok()) return histogram.status();
      col.histogram = std::move(histogram).value();
      if (!std::is_sorted(col.histogram.begin(), col.histogram.end())) {
        return Status::Corruption("stats: histogram not sorted");
      }
      auto sample = ParseHexArray(c, "sample");
      if (!sample.ok()) return sample.status();
      col.sample = std::move(sample).value();
      table.columns.emplace(std::move(name), std::move(col));
    }
  }
  return table;
}

Status TableStats::SaveTo(const std::string& path) const {
  const std::string temp_path = path + ".inprogress";
  MANIMAL_RETURN_IF_ERROR(WriteStringToFile(temp_path, ToJson()));
  return RenameFile(temp_path, path);
}

Result<TableStats> TableStats::Load(const std::string& path) {
  auto text = ReadFileToString(path);
  if (!text.ok()) return text.status();
  return FromJson(text.value());
}

// ---- collectors ----

void KmvSketch::Add(std::string_view encoded_key) {
  AddHash(HashKey(encoded_key));
}

// Once full, almost every hash fails the first comparison.
void KmvSketch::AddHash(uint64_t h) {
  if (hashes_.size() == kSketchSize && h >= hashes_.back()) return;
  auto it = std::lower_bound(hashes_.begin(), hashes_.end(), h);
  if (it != hashes_.end() && *it == h) return;
  const size_t pos = it - hashes_.begin();
  if (hashes_.size() == kSketchSize) hashes_.pop_back();
  hashes_.insert(hashes_.begin() + pos, h);
}

void KmvSketch::Merge(const KmvSketch& other) {
  for (uint64_t h : other.hashes_) AddHash(h);
}

double KmvSketch::Estimate(uint64_t count) const {
  if (hashes_.empty()) return 0;
  double ndv = 0;
  if (hashes_.size() < kSketchSize) {
    // Sketch never filled: it holds every distinct hash seen.
    ndv = static_cast<double>(hashes_.size());
  } else {
    // Standard KMV estimator: (k-1) / normalized k-th minimum.
    const double kth = static_cast<double>(hashes_.back());
    const double unit = kth / 18446744073709551615.0;  // 2^64 - 1
    if (unit > 0) {
      ndv = (static_cast<double>(hashes_.size()) - 1.0) / unit;
    }
  }
  return std::min(ndv, static_cast<double>(count));
}

namespace internal {

void ColumnSketch::AddSample(std::string_view encoded_key, size_t slot) {
  if (slot == reservoir.size()) {
    reservoir.emplace_back(encoded_key);
  } else if (slot < reservoir.size()) {
    reservoir[slot].assign(encoded_key.data(), encoded_key.size());
  }
  if (raw_sample.size() < kRawSampleSize) {
    raw_sample.emplace_back(encoded_key);
  }
}

ColumnStats ColumnSketch::Finish(uint64_t count) const {
  ColumnStats out;
  out.row_count = count;
  out.histogram = reservoir;
  std::sort(out.histogram.begin(), out.histogram.end());
  out.sample = raw_sample;
  out.ndv = kmv.Estimate(count);
  return out;
}

}  // namespace internal

ColumnStatsCollector::ColumnStatsCollector() : rng_(kReservoirSeed) {}

void ColumnStatsCollector::Add(std::string_view encoded_key) {
  ++count_;
  column_.AddSample(encoded_key, ReservoirSlot(count_, &rng_));
  column_.kmv.Add(encoded_key);
}

ColumnStats ColumnStatsCollector::Finish() const {
  return column_.Finish(count_);
}

TableStatsCollector::TableStatsCollector(
    std::vector<std::string> column_names)
    : names_(std::move(column_names)),
      rng_(kReservoirSeed),
      columns_(names_.size()) {}

void TableStatsCollector::AddRow(const std::vector<std::string_view>& keys) {
  AddRowSample(keys);
  for (size_t i = 0; i < columns_.size(); ++i) columns_[i].kmv.Add(keys[i]);
}

void TableStatsCollector::AddRowSample(
    const std::vector<std::string_view>& keys) {
  ++row_count_;
  const size_t slot = ReservoirSlot(row_count_, &rng_);
  for (size_t i = 0; i < columns_.size(); ++i) {
    columns_[i].AddSample(keys[i], slot);
  }
}

void TableStatsCollector::MergeSketch(size_t column, const KmvSketch& part) {
  columns_[column].kmv.Merge(part);
}

TableStats TableStatsCollector::Finish() const {
  TableStats out;
  out.row_count = row_count_;
  for (size_t i = 0; i < columns_.size(); ++i) {
    out.columns.emplace(names_[i], columns_[i].Finish(row_count_));
  }
  return out;
}

}  // namespace manimal::stats
