// Execution descriptors (paper §2.2 Step 2: "The resulting execution
// descriptor indicates to the final execution fabric which index file
// to use, and which optimizations should be applied") plus the input
// split machinery the map phase consumes.

#ifndef MANIMAL_EXEC_DESCRIPTOR_H_
#define MANIMAL_EXEC_DESCRIPTOR_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analyzer/descriptor.h"
#include "columnar/seqfile.h"
#include "common/status.h"
#include "mril/program.h"

namespace manimal::exec {

// How the map phase reads its input.
enum class AccessPath {
  kSeqScan,       // full scan of a SeqFile (raw or re-encoded artifact)
  kBTree,         // range scans of a B+Tree artifact
  kColumnGroups,  // zip scan of the column groups covering the
                  // program's fields (§2.1)
};

// Stable lowercase name ("seqscan" / "btree" / "column-groups") used
// by spans, journal events, and EXPLAIN output.
const char* AccessPathName(AccessPath path);

struct ExecutionDescriptor {
  AccessPath access_path = AccessPath::kSeqScan;

  // SeqFile path (kSeqScan) or B+Tree path (kBTree).
  std::string data_path;

  // kBTree only: the record file the tree's locators point into — the
  // raw input or a projected sibling copy (empty for clustered trees,
  // which embed their records).
  std::string base_path;

  // kBTree only: clustered layout (records embedded in the leaves).
  bool clustered = false;

  // kBTree clustered only: layout of the embedded records.
  columnar::SeqFileMeta artifact_meta;

  // Key ranges to scan (kBTree only); empty means full scan.
  std::vector<analyzer::KeyInterval> intervals;

  // original-field -> runtime-slot remap handed to the VM when the
  // artifact is projected; empty = identity.
  std::vector<int> field_remap;

  // The "potentially-modified copy of the user's original program"
  // (constant patches for direct operation on compressed data).
  mril::Program program;

  // kColumnGroups only: original field indexes the program reads; the
  // plan opens just the groups covering them (empty reads everything).
  std::vector<int> needed_fields;

  // Appendix E extension: map outputs whose key fails this key-only
  // conjunction are deleted before the shuffle (the reduce provably
  // discards such groups). Empty = no filtering.
  std::optional<analyzer::ReduceFilterDescriptor> reduce_key_filter;

  // EXPLAIN ANALYZE observation hooks: the selection predicate's
  // indexed key expression and its intervals, carried on EVERY plan
  // that has an indexable selection (including the plain scan, where
  // `intervals` above stays empty because no B+Tree drives the read).
  // When JobConfig::collect_task_stats is set and the input layout is
  // unremapped, the fabric evaluates `observe_expr` per scanned
  // record and counts matches per interval — the observed-selectivity
  // side of the estimated-vs-actual drift report.
  analyzer::ExprRef observe_expr;
  std::vector<analyzer::KeyInterval> observe_intervals;

  // ---- native codegen tier (src/codegen, docs/mril.md) ----
  // Set by the optimizer when ExtractShape admits the (possibly
  // patched) program: the map function is a proven selection+
  // projection the native tier can execute exactly. Advisory — the
  // engine re-probes compilation at job-prepare time — but surfaced
  // through EXPLAIN so plan output shows the backend decision.
  bool native_eligible = false;
  // Why (shape description) or why not (admission-gate reason).
  std::string native_detail;
  // The same for the reduce, from codegen::ExtractFoldShape (detail
  // empty for a map-only program).
  bool reduce_native_eligible = false;
  std::string reduce_native_detail;
  // Per-term selectivity estimates keyed by SelectTerm::ToString(),
  // derived from column statistics when available; the native kernel
  // short-circuits conjunct terms most-selective-first.
  std::vector<std::pair<std::string, double>> native_term_selectivity;

  // Human-readable list of optimizations in effect (for reporting).
  std::vector<std::string> applied;

  std::string Describe() const;
};

// A stream of (key, record-value) map inputs owned by one map task.
class InputSplit {
 public:
  virtual ~InputSplit() = default;

  // Fills *key / *value; false at end. `value` is the runtime record
  // (list value) or opaque blob (str value).
  //
  // Lifetime: string content inside *value may be *borrowed* from the
  // split's current decode buffer — valid only until the next call to
  // Next() on this split (or the split's destruction). A caller that
  // retains values across records must ToOwned() them first; the map
  // engine consumes each record with one VM invocation before
  // advancing, and the VM promotes anything that escapes the record
  // (emits, logs, member stores).
  virtual Result<bool> Next(int64_t* key, Value* value) = 0;

  virtual uint64_t bytes_read() const = 0;

  // Uncompressed bytes this split materialized. Differs from
  // bytes_read when the input is block-compressed (either direction:
  // decompression expands, block elision shrinks). Defaults to
  // bytes_read for formats without a compression stage.
  virtual uint64_t bytes_decoded() const { return bytes_read(); }

  // Blocks elided by a direct-evaluation skip filter (never read or
  // decompressed). 0 for splits without one.
  virtual uint64_t blocks_skipped() const { return 0; }
};

// Plans and opens splits for a descriptor.
class InputPlan {
 public:
  virtual ~InputPlan() = default;

  virtual int num_splits() const = 0;
  virtual Result<std::unique_ptr<InputSplit>> OpenSplit(int i) = 0;
  virtual uint64_t total_input_bytes() const = 0;

  // For self-describing projected inputs (SeqFiles whose stored layout
  // differs from the original schema), the original-field ->
  // runtime-slot remap derived from the file header; empty when the
  // layout is the identity. Used when the descriptor does not supply
  // its own remap (e.g. pipeline intermediates).
  virtual std::vector<int> DerivedFieldRemap() const { return {}; }

  // The SeqFile this plan scans, when it scans exactly one (the
  // direct-evaluation path inspects its skip frames). nullptr for
  // index- and group-driven plans.
  virtual const columnar::SeqFileReader* seqfile() const {
    return nullptr;
  }

  // Installs a per-block skip bitmap (index = absolute block number)
  // on every split subsequently opened. Only meaningful for plans
  // where seqfile() is non-null; a no-op elsewhere.
  virtual void InstallBlockSkip(
      std::shared_ptr<const std::vector<bool>> skip) {
    (void)skip;
  }
};

// Builds the input plan: SeqFile block ranges for kSeqScan, or
// interval sub-ranges (subdivided along B+Tree node boundaries) for
// kBTree. `target_splits` is a parallelism hint.
Result<std::unique_ptr<InputPlan>> PlanInput(
    const ExecutionDescriptor& descriptor, int target_splits);

}  // namespace manimal::exec

#endif  // MANIMAL_EXEC_DESCRIPTOR_H_
