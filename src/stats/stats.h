// Per-column statistics for the cost-based optimizer (ROADMAP item 4).
//
// The paper defers plan choice to "a cost-based approach" (§2.2); the
// cost model's missing input is predicate selectivity. This library
// collects, in one streaming pass piggy-backed on index/artifact
// builds (src/exec/index_build.cc), three classic summaries per
// column:
//
//   * an equi-depth histogram — a uniform reservoir sample of the
//     column's memcomparable key encodings, sorted at Finish(). The
//     sorted sample IS the quantile table: the fraction of sample
//     entries inside a key range is an unbiased estimate of the
//     fraction of rows inside it, duplicates and skew included.
//   * a KMV (k-minimum-values) distinct-count sketch, used to floor
//     point-lookup selectivity at 1/NDV when the value misses the
//     sample.
//   * a small raw row sample for debugging/EXPLAIN.
//
// Columns are named by what produced the key: "field:<i>" for plain
// record fields, "expr:<Expr::ToString>" for a B+Tree build's computed
// index-key expression. All keys are serde::EncodeOrderedKey
// encodings, so estimation is pure byte comparison and works for any
// Value type the key codec supports.
//
// Statistics belong to one version of one input file, named by its
// SeqFileReader::Fingerprint(). They are serialized as a single JSON
// document (via obs/json) with a "stats_version" field checked on
// load, shared by every catalog entry of the input, and held parsed
// by the catalog (src/index/catalog.h).

#ifndef MANIMAL_STATS_STATS_H_
#define MANIMAL_STATS_STATS_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace manimal::stats {

inline constexpr int kStatsVersion = 2;

// Per-column summary sizes: reservoir (= histogram) keys, KMV hashes,
// raw sample keys.
inline constexpr size_t kReservoirCapacity = 1024;
inline constexpr size_t kSketchSize = 256;
inline constexpr size_t kRawSampleSize = 8;

// Summaries for one column. `histogram` and `sample` hold
// memcomparable key encodings; `histogram` is sorted.
struct ColumnStats {
  uint64_t row_count = 0;
  double ndv = 0;  // distinct-value estimate from the KMV sketch
  std::vector<std::string> histogram;  // sorted equi-depth sample
  std::vector<std::string> sample;     // small raw row sample

  bool usable() const { return row_count > 0 && !histogram.empty(); }

  // Estimated fraction of rows whose key falls in [lo, hi] (bounds
  // honoring inclusivity; nullopt = unbounded on that side). Keys are
  // EncodeOrderedKey encodings. Requires usable(). Point lookups
  // ([v, v] both-inclusive) that miss the sample but sit inside the
  // observed domain are floored at 1/NDV instead of 0.
  double EstimateRangeFraction(const std::optional<std::string>& lo,
                               bool lo_inclusive,
                               const std::optional<std::string>& hi,
                               bool hi_inclusive) const;
};

// All columns collected for one version of an input file.
struct TableStats {
  // SeqFileReader::Fingerprint() of the input version described.
  std::string fingerprint;
  uint64_t row_count = 0;
  std::map<std::string, ColumnStats> columns;

  // nullptr when absent or unusable.
  const ColumnStats* Find(const std::string& name) const;

  std::string ToJson() const;
  static Result<TableStats> FromJson(std::string_view text);

  // Commits by temp + rename: a reader sees the previous file or this
  // one, never a torn prefix.
  Status SaveTo(const std::string& path) const;
  static Result<TableStats> Load(const std::string& path);
};

// KMV distinct-count sketch: the kSketchSize smallest distinct key
// hashes seen. The smallest k of a union are the smallest k of the
// parts' smallest k, so sketches built over any partition of a
// column's rows merge, in any order, into exactly the sketch of all of
// them.
class KmvSketch {
 public:
  void Add(std::string_view encoded_key);
  void Merge(const KmvSketch& other);

  // Distinct-value estimate for a column of `count` rows.
  double Estimate(uint64_t count) const;

 private:
  void AddHash(uint64_t h);

  std::vector<uint64_t> hashes_;  // ascending
};

namespace internal {

// One column's summaries under construction. Which reservoir slot a
// key takes is decided by the owner: per column in
// ColumnStatsCollector, once per row for every column in
// TableStatsCollector.
struct ColumnSketch {
  // The order-dependent summaries: reservoir.size() appends, a smaller
  // slot replaces, anything larger keeps the key out of the reservoir;
  // the first kRawSampleSize keys form the raw sample.
  void AddSample(std::string_view encoded_key, size_t slot);
  ColumnStats Finish(uint64_t count) const;

  std::vector<std::string> reservoir;
  KmvSketch kmv;
  std::vector<std::string> raw_sample;
};

}  // namespace internal

// Streaming collector for one column: reservoir sample + KMV sketch.
// Deterministic (fixed-seed xorshift), so rebuilding the same input
// yields byte-identical stats.
class ColumnStatsCollector {
 public:
  ColumnStatsCollector();

  void Add(std::string_view encoded_key);
  ColumnStats Finish() const;

 private:
  uint64_t count_ = 0;
  uint64_t rng_;
  internal::ColumnSketch column_;
};

// Collector for a whole table, one row at a time, with every column
// fed once per row. Each column then makes the reservoir decision its
// own ColumnStatsCollector would make — same seed, same count — so it
// is made once per row and shared: the result equals one
// ColumnStatsCollector per column, at a fraction of the cost.
//
// A row has two halves. The reservoir and raw sample depend on row
// order (AddRowSample, every row, in order); the KMV sketch does not
// (MergeSketch, from parts built over any partition of the rows), so
// that half can be computed on other threads.
class TableStatsCollector {
 public:
  explicit TableStatsCollector(std::vector<std::string> column_names);

  // keys[i] is column i's encoded key for this row. Both halves.
  void AddRow(const std::vector<std::string_view>& keys);

  // The order-dependent half of AddRow.
  void AddRowSample(const std::vector<std::string_view>& keys);
  // Folds in column `column`'s KMV sketch of some of the rows.
  void MergeSketch(size_t column, const KmvSketch& part);

  // The collected columns; row_count counts the rows added (AddRow or
  // AddRowSample calls).
  TableStats Finish() const;

 private:
  std::vector<std::string> names_;
  uint64_t row_count_ = 0;
  uint64_t rng_;
  std::vector<internal::ColumnSketch> columns_;
};

}  // namespace manimal::stats

#endif  // MANIMAL_STATS_STATS_H_
