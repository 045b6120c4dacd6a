// Executes index-generation programs (paper §2.2): scans the raw input
// file, applies the transformations the analyzer prescribed
// (projection, delta encoding, dictionary encoding), and either
// bulk-loads a B+Tree keyed by the selection expression or writes a
// re-encoded SeqFile or column groups. The artifact is then registered
// in the catalog.
//
// This is the fabric-side realization of "an index-generation program
// ... is itself a MapReduce program": scan (map) -> sort by index key
// (shuffle) -> bulk load (reduce). The map side runs in parallel:
// worker threads decode input blocks and compute every per-row product
// that does not depend on row order (projected records, statistics
// keys and their KMV sketches, the B+Tree key and clustered or
// raw-input locator payloads). The calling thread takes the blocks in
// file order and does the rest — reservoir sampling, the artifact
// writers and the sort — so the artifact is the same bytes at every
// parallelism (docs/execution.md "Index generation").

#ifndef MANIMAL_EXEC_INDEX_BUILD_H_
#define MANIMAL_EXEC_INDEX_BUILD_H_

#include <memory>
#include <string>

#include "analyzer/index_gen.h"
#include "common/status.h"
#include "index/catalog.h"
#include "stats/stats.h"

namespace manimal::exec {

struct IndexBuildResult {
  index::CatalogEntry entry;
  // The input version's statistics when this build collected or
  // extended them (committed at entry.stats_path); null when it reused
  // the statistics it was given unchanged, or the input is empty.
  std::shared_ptr<const stats::TableStats> stats;
  double seconds = 0;
  uint64_t records = 0;
};

// Builds the artifact for `spec` from `input_path` (a plain SeqFile),
// placing outputs under `artifact_dir` and spill files under
// `temp_dir`, with up to `parallelism` worker threads (never more than
// the input has blocks). Does not touch the catalog; callers register
// the entry with the result's stats.
//
// Statistics are kept once per input version, in one file under
// `artifact_dir` named after the input. `input_stats` are the input's
// cataloged statistics (nullable). When their fingerprint matches the
// input's, the build collects only a computed B+Tree key's missing
// "expr:" column, if any; otherwise it collects every "field:" column
// too and replaces the file.
Result<IndexBuildResult> BuildIndexArtifact(
    const analyzer::IndexGenProgram& spec, const std::string& input_path,
    const std::string& artifact_dir, const std::string& temp_dir,
    const stats::TableStats* input_stats = nullptr, int parallelism = 1);

}  // namespace manimal::exec

#endif  // MANIMAL_EXEC_INDEX_BUILD_H_
