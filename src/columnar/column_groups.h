// Column-group storage — the paper's §2.1 extension to projection:
// "In the future we could modify Manimal projection to use
// 'column-groups' that break input data into different smaller files,
// increasing the number of user programs that could use an index, at
// the cost of possibly-increased program execution time."
//
// A ColumnGroupSet splits one logical file's columns across several
// SeqFile siblings, row-aligned (identical record order and identical
// records-per-block), described by a small text manifest. A consumer
// that needs a subset of fields opens only the groups covering them
// and zips their streams back into records — so ONE artifact serves
// every projection pattern, not just the one the analyzer saw.
//
// Manifest format (<name>.cgs, tab-separated after the keyword):
//   MCGS v1
//   schema <original schema string>
//   records_per_block <n>
//   group <comma field indexes> <sibling filename> <bytes>
//   ... one line per group

#ifndef MANIMAL_COLUMNAR_COLUMN_GROUPS_H_
#define MANIMAL_COLUMNAR_COLUMN_GROUPS_H_

#include <memory>
#include <string>
#include <vector>

#include "columnar/seqfile.h"
#include "common/status.h"

namespace manimal::columnar {

struct ColumnGroup {
  std::vector<int> fields;  // original field indexes, ascending
  std::string path;         // sibling SeqFile (absolute)
  uint64_t bytes = 0;
};

// One group per field — the pure column-store layout; the generic
// grouping the analyzer emits when it cannot predict future workloads.
std::vector<std::vector<int>> PerFieldGrouping(const Schema& schema);

class ColumnGroupWriter {
 public:
  // `grouping` must partition [0, schema.num_fields()).
  static Result<std::unique_ptr<ColumnGroupWriter>> Create(
      const std::string& manifest_path, const Schema& schema,
      std::vector<std::vector<int>> grouping,
      uint32_t records_per_block = 4096);

  // Appends a full record (all original fields); the writer routes
  // each field to its group file. `key` is persisted in every group.
  Status Append(int64_t key, const Record& record);

  // Finalizes every sibling and the manifest; returns total bytes.
  // Files are written under temp names and committed by rename, the
  // manifest last, so a failed build never truncates or tears the
  // artifact a previous build left at the same path.
  Result<uint64_t> Finish();

  uint64_t num_records() const { return num_records_; }

 private:
  ColumnGroupWriter() = default;

  std::string manifest_path_;
  Schema schema_;
  std::vector<std::vector<int>> grouping_;
  std::vector<std::unique_ptr<SeqFileWriter>> writers_;
  std::vector<std::string> sibling_paths_;
  uint64_t num_records_ = 0;
};

class ColumnGroupReader
    : public std::enable_shared_from_this<ColumnGroupReader> {
 public:
  static Result<std::shared_ptr<ColumnGroupReader>> Open(
      const std::string& manifest_path);

  const Schema& schema() const { return schema_; }
  const std::vector<ColumnGroup>& groups() const { return groups_; }
  uint64_t num_blocks() const { return num_blocks_; }
  uint64_t num_records() const { return num_records_; }
  uint64_t total_bytes() const { return total_bytes_; }

  // The minimal set of group indexes covering `needed_fields`
  // (all groups when empty), plus the byte cost of reading them.
  struct GroupSelection {
    std::vector<int> group_indexes;
    std::vector<int> stored_fields;  // original indexes, concatenated
                                     // in group order
    uint64_t bytes = 0;
  };
  GroupSelection SelectGroups(const std::vector<int>& needed_fields) const;

  // Streams zipped records of the selected groups over a row-aligned
  // block range. Records carry the selection's stored_fields layout.
  class ZippedStream {
   public:
    Result<bool> Next(int64_t* key, Record* record);
    uint64_t bytes_read() const;

   private:
    friend class ColumnGroupReader;
    std::vector<SeqFileReader::RecordStream> streams_;
  };

  Result<ZippedStream> Scan(const GroupSelection& selection,
                            uint64_t begin_block,
                            uint64_t end_block) const;

 private:
  ColumnGroupReader() = default;

  Status Init(const std::string& manifest_path);

  Schema schema_;
  std::vector<ColumnGroup> groups_;
  std::vector<std::shared_ptr<SeqFileReader>> readers_;
  uint64_t num_blocks_ = 0;
  uint64_t num_records_ = 0;
  uint64_t total_bytes_ = 0;
};

}  // namespace manimal::columnar

#endif  // MANIMAL_COLUMNAR_COLUMN_GROUPS_H_
