#include "optimizer/cost.h"

#include <algorithm>

#include "columnar/column_groups.h"
#include "columnar/seqfile.h"
#include "common/env.h"
#include "common/strings.h"
#include "serde/key_codec.h"

namespace manimal::optimizer {

Result<double> EstimateSelectivity(
    const index::BTreeReader* tree, const stats::ColumnStats* column,
    const std::vector<analyzer::KeyInterval>& intervals,
    std::vector<std::pair<std::string, double>>* per_interval,
    std::string* provenance) {
  const bool use_stats = column != nullptr && column->usable();
  if (!use_stats && tree == nullptr) {
    return Status::InvalidArgument(
        "selectivity estimation needs a histogram or a tree");
  }
  *provenance = use_stats ? "histogram" : "btree-fanout";
  if (intervals.empty()) return 1.0;  // full index scan
  double total = 0;
  for (const analyzer::KeyInterval& iv : CanonicalizeIntervals(intervals)) {
    std::optional<std::string> lo, hi;
    if (iv.lo.has_value()) {
      std::string bytes;
      MANIMAL_RETURN_IF_ERROR(EncodeOrderedKey(*iv.lo, &bytes));
      lo = std::move(bytes);
    }
    if (iv.hi.has_value()) {
      std::string bytes;
      MANIMAL_RETURN_IF_ERROR(EncodeOrderedKey(*iv.hi, &bytes));
      hi = std::move(bytes);
    }
    double fraction = 0;
    if (use_stats) {
      fraction = column->EstimateRangeFraction(lo, iv.lo_inclusive, hi,
                                               iv.hi_inclusive);
    } else {
      MANIMAL_ASSIGN_OR_RETURN(fraction,
                               tree->EstimateRangeFraction(lo, hi));
    }
    per_interval->emplace_back(iv.ToString(), fraction);
    total += fraction;
  }
  // Canonicalized intervals are disjoint, so the sum is a probability;
  // the clamp only guards floating-point slop.
  return std::min(1.0, total);
}

const stats::ColumnStats* FindKeyColumn(const stats::TableStats* stats,
                                        const analysis::ExprRef& expr) {
  if (stats == nullptr || expr == nullptr) return nullptr;
  const stats::ColumnStats* column = stats->Find("expr:" + expr->ToString());
  const int field = analysis::ValueFieldIndex(expr);
  if (column == nullptr && field >= 0) {
    column = stats->Find("field:" + std::to_string(field));
  }
  return column;
}

CandidateCost BaselineCost(uint64_t input_bytes) {
  CandidateCost cost;
  cost.bytes = static_cast<double>(input_bytes);
  cost.selectivity = 1.0;
  cost.detail = "full scan of " + HumanBytes(input_bytes);
  return cost;
}

Result<CandidateCost> EstimateArtifactCost(
    const analyzer::IndexGenProgram& spec,
    const index::CatalogEntry& entry,
    const analyzer::AnalysisReport& report,
    const stats::TableStats* stats) {
  CandidateCost cost;
  const stats::ColumnStats* column =
      report.selection.has_value()
          ? FindKeyColumn(stats, report.selection->indexed_expr)
          : nullptr;
  const std::vector<analyzer::KeyInterval> no_intervals;
  const std::vector<analyzer::KeyInterval>& intervals =
      report.selection.has_value() ? report.selection->intervals
                                   : no_intervals;

  if (spec.column_groups) {
    MANIMAL_ASSIGN_OR_RETURN(
        std::shared_ptr<columnar::ColumnGroupReader> reader,
        columnar::ColumnGroupReader::Open(entry.artifact_path));
    std::vector<int> needed;
    if (report.projection.has_value()) {
      needed = report.projection->used_fields;
    }
    auto selection = reader->SelectGroups(needed);
    cost.bytes = static_cast<double>(selection.bytes);
    // Column groups read whole groups regardless of the predicate, but
    // a histogram still prices its selectivity for EXPLAIN/drift.
    if (column != nullptr && !intervals.empty()) {
      MANIMAL_ASSIGN_OR_RETURN(
          cost.selectivity,
          EstimateSelectivity(nullptr, column, intervals,
                              &cost.interval_selectivity,
                              &cost.provenance));
    }
    cost.detail = StrPrintf("column groups: %zu groups, %s",
                            selection.group_indexes.size(),
                            HumanBytes(selection.bytes).c_str());
    return cost;
  }

  if (spec.btree) {
    MANIMAL_ASSIGN_OR_RETURN(std::unique_ptr<index::BTreeReader> tree,
                             index::BTreeReader::Open(entry.artifact_path));
    MANIMAL_ASSIGN_OR_RETURN(
        double selectivity,
        EstimateSelectivity(tree.get(), column, intervals,
                            &cost.interval_selectivity,
                            &cost.provenance));
    cost.selectivity = selectivity;
    if (spec.clustered) {
      // Embedded records: bytes scale with selectivity.
      cost.bytes = selectivity * static_cast<double>(tree->file_size());
      cost.detail = StrPrintf("clustered btree: sel %.3f of %s",
                              selectivity,
                              HumanBytes(tree->file_size()).c_str());
      return cost;
    }
    // Locator tree: matching index entries plus the touched base
    // blocks (each match may decode one block; capped by the base
    // size). Block size comes from the base file's own footer — the
    // writer's 16 KiB target is only a target, and single wide records
    // routinely blow past it.
    MANIMAL_ASSIGN_OR_RETURN(
        std::shared_ptr<columnar::SeqFileReader> base,
        columnar::SeqFileReader::Open(entry.base_path));
    const double base_bytes = static_cast<double>(base->file_size());
    double block_bytes = base->average_block_bytes();
    if (block_bytes <= 0) {
      block_bytes = 16 * 1024;  // empty base: fall back to the target
    }
    double index_bytes =
        selectivity * static_cast<double>(tree->file_size());
    double matches =
        selectivity * static_cast<double>(tree->num_entries());
    double touched = std::min(base_bytes, matches * block_bytes);
    cost.bytes = index_bytes + touched;
    cost.detail = StrPrintf(
        "locator btree: sel %.3f, index %s + <=%s of base "
        "(%s avg block)",
        selectivity,
        HumanBytes(static_cast<uint64_t>(index_bytes)).c_str(),
        HumanBytes(static_cast<uint64_t>(touched)).c_str(),
        HumanBytes(static_cast<uint64_t>(block_bytes)).c_str());
    return cost;
  }

  // Re-encoded SeqFile artifacts (projection / delta / dictionary):
  // full scan of the artifact, with histogram-priced selectivity for
  // EXPLAIN/drift when stats exist.
  if (column != nullptr && !intervals.empty()) {
    MANIMAL_ASSIGN_OR_RETURN(
        cost.selectivity,
        EstimateSelectivity(nullptr, column, intervals,
                            &cost.interval_selectivity,
                            &cost.provenance));
  }
  cost.bytes = static_cast<double>(entry.artifact_bytes);
  cost.detail =
      "artifact scan of " + HumanBytes(entry.artifact_bytes);

  // Block-compressed (v2) artifacts are priced on BOTH axes: the
  // compressed bytes scanned off disk plus a discounted charge for the
  // uncompressed bytes the scan must materialize (decompression is
  // CPU, not I/O — cheaper per byte than the disk rate the unit cost
  // models). When the artifact carries skip frames and the predicate
  // is selective, direct evaluation touches only blocks that can hold
  // a match: about min(1, selectivity * records-per-block) of them
  // under a uniform spread, and touch discounts both axes because an
  // elided block is neither read nor decoded.
  if (!entry.codec_chain.empty() || entry.raw_bytes > 0) {
    constexpr double kDecodedByteWeight = 0.25;
    Result<std::shared_ptr<columnar::SeqFileReader>> reader =
        columnar::SeqFileReader::Open(entry.artifact_path);
    if (reader.ok()) {
      double touch = 1.0;
      if ((*reader)->has_skip_frames() && cost.selectivity < 1.0 &&
          (*reader)->num_blocks() > 0) {
        const double records_per_block =
            static_cast<double>((*reader)->num_records()) /
            static_cast<double>((*reader)->num_blocks());
        touch = std::min(1.0, cost.selectivity *
                                  std::max(1.0, records_per_block));
      }
      const double raw_bytes = static_cast<double>(
          entry.raw_bytes > 0 ? entry.raw_bytes : entry.artifact_bytes);
      cost.bytes =
          touch * (static_cast<double>(entry.artifact_bytes) +
                   kDecodedByteWeight * raw_bytes);
      cost.detail = StrPrintf(
          "artifact scan of %s (codec %s, raw %s): touch %.3f",
          HumanBytes(entry.artifact_bytes).c_str(),
          entry.codec_chain.empty() ? "none" : entry.codec_chain.c_str(),
          HumanBytes(entry.raw_bytes).c_str(), touch);
    }
  }
  return cost;
}

}  // namespace manimal::optimizer
