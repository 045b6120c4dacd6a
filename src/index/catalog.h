// The Manimal catalog (paper Fig. 1 / §2.2): a persistent registry of
// index artifacts keyed by (input file, index signature). The
// optimizer consults it to find an indexed version of a job's input;
// the admin's decision to actually run an index-generation program is
// what populates it.
//
// Stored as a tab-separated text manifest (one artifact per line) so
// it is inspectable with standard tools. Beside the manifest the
// catalog holds, per input, the parsed statistics of its latest
// version (src/stats/stats.h): handed over in memory by the build
// that collected them, or parsed once by Open.

#ifndef MANIMAL_INDEX_CATALOG_H_
#define MANIMAL_INDEX_CATALOG_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "stats/stats.h"

namespace manimal::index {

struct CatalogEntry {
  std::string input_file;     // the raw data file this indexes
  std::string signature;      // IndexGenProgram::Signature()
  std::string artifact_path;  // the B+Tree / projected / encoded file
  std::string dict_path;      // dictionary sidecar ("" if none)
  // For B+Tree artifacts: the record file the tree's locators point
  // into — the raw input itself, or a projected sibling copy ("" for
  // non-B+Tree artifacts).
  std::string base_path;
  // The input's per-column statistics file (src/stats/stats.h), one
  // per input and shared by all of its entries ("" if none).
  std::string stats_path;
  uint64_t artifact_bytes = 0;
  uint64_t input_bytes = 0;
  // Block codec the artifact was written with ("mlz"; "" = raw blocks)
  // and its uncompressed block-body size — what a scan would decode
  // if no block were elided. The cost model prices bytes-decoded from
  // these separately from bytes-scanned (artifact_bytes).
  std::string codec_chain;
  uint64_t raw_bytes = 0;
  // SeqFileReader::Fingerprint() of the input the artifact was built
  // from ("" in manifests that predate fingerprints). The optimizer
  // uses the entry only while the input still has this fingerprint.
  std::string input_fingerprint;

  double SpaceOverhead() const {
    return input_bytes == 0
               ? 0.0
               : static_cast<double>(artifact_bytes) /
                     static_cast<double>(input_bytes);
  }
};

class Catalog {
 public:
  // Loads the manifest at `path` if it exists; otherwise starts empty.
  // Parses each input's statistics file once; a missing or corrupt one
  // leaves that input without statistics.
  static Result<Catalog> Open(const std::string& path);

  // Registers (or replaces, matching input_file+signature) an entry
  // and persists the manifest. The manifest is written to a temp
  // sibling and renamed into place, so a failed or torn write leaves
  // the previous manifest readable. Non-null `stats` become the
  // input's statistics; otherwise statistics of an input version
  // other than the entry's are dropped.
  Status Register(const CatalogEntry& entry,
                  std::shared_ptr<const stats::TableStats> stats = nullptr);

  // The input's statistics (their fingerprint names the version they
  // describe), or nullptr.
  const stats::TableStats* StatsFor(const std::string& input_file) const;

  // All artifacts available for an input file.
  std::vector<CatalogEntry> FindForInput(const std::string& input_file) const;

  // Exact lookup.
  std::optional<CatalogEntry> Find(const std::string& input_file,
                                   const std::string& signature) const;

  const std::vector<CatalogEntry>& entries() const { return entries_; }

 private:
  explicit Catalog(std::string path) : path_(std::move(path)) {}

  Status Save() const;

  std::string path_;
  std::vector<CatalogEntry> entries_;
  std::map<std::string, std::shared_ptr<const stats::TableStats>> stats_;
};

}  // namespace manimal::index

#endif  // MANIMAL_INDEX_CATALOG_H_
