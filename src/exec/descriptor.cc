#include "exec/descriptor.h"

#include <algorithm>

#include "columnar/column_groups.h"
#include "common/coding.h"
#include "common/strings.h"
#include "index/btree.h"
#include "serde/key_codec.h"
#include "serde/record_codec.h"

namespace manimal::exec {

const char* AccessPathName(AccessPath path) {
  switch (path) {
    case AccessPath::kSeqScan:
      return "seqscan";
    case AccessPath::kBTree:
      return "btree";
    case AccessPath::kColumnGroups:
      return "column-groups";
  }
  return "unknown";
}

std::string ExecutionDescriptor::Describe() const {
  std::string out = "ExecutionDescriptor{";
  out += AccessPathName(access_path);
  out += " " + data_path;
  if (!intervals.empty()) {
    out += " ranges=";
    for (size_t i = 0; i < intervals.size(); ++i) {
      if (i) out += " u ";
      out += intervals[i].ToString();
    }
  }
  if (!applied.empty()) {
    out += " applied=[" + JoinStrings(applied, "; ") + "]";
  }
  out += "}";
  return out;
}

namespace {

// Converts a stored record (per meta) to the runtime map value.
Value RecordToValue(const columnar::SeqFileMeta& meta, Record record) {
  if (meta.stored_schema.opaque()) {
    // The opaque blob itself is the value parameter.
    return record.empty() ? Value::Str("") : record[0];
  }
  return Value::List(std::move(record));
}

// Cuts [0, blocks) into ranges of ceil(blocks / target_splits) blocks;
// an empty input gets one empty range.
std::vector<std::pair<uint64_t, uint64_t>> SplitBlocks(uint64_t blocks,
                                                       int target_splits) {
  std::vector<std::pair<uint64_t, uint64_t>> ranges;
  const uint64_t chunk = std::max<uint64_t>(
      1, (blocks + target_splits - 1) / std::max(1, target_splits));
  for (uint64_t b = 0; b < blocks; b += chunk) {
    ranges.emplace_back(b, std::min(blocks, b + chunk));
  }
  if (ranges.empty()) ranges.emplace_back(0, 0);
  return ranges;
}

// Original field -> stored slot, from `slot_fields` (stored slot ->
// original field) over a schema of `num_fields`; empty when the
// layout is the identity.
std::vector<int> FieldRemap(const std::vector<int>& slot_fields,
                            int num_fields) {
  bool identity = static_cast<int>(slot_fields.size()) == num_fields;
  std::vector<int> remap(num_fields, -1);
  for (size_t slot = 0; slot < slot_fields.size(); ++slot) {
    remap[slot_fields[slot]] = static_cast<int>(slot);
    if (slot_fields[slot] != static_cast<int>(slot)) identity = false;
  }
  if (identity) return {};
  return remap;
}

// ---------------- SeqScan ----------------

class SeqScanSplit : public InputSplit {
 public:
  SeqScanSplit(columnar::SeqFileReader::RecordStream stream,
               const columnar::SeqFileMeta* meta)
      : stream_(std::move(stream)), meta_(meta) {
    // The map engine consumes each record before advancing (the
    // InputSplit::Next contract), so str fields can be served as
    // zero-copy views into the stream's block buffer.
    stream_.set_borrow_strings(true);
  }

  Result<bool> Next(int64_t* key, Value* value) override {
    // Steady-state fast path: the engine hands back the same Value each
    // iteration. When it still holds the previous record's list and
    // nothing else kept a reference (the VM promotes anything that
    // escapes, and clears its stack/locals per invocation), decode
    // straight into that storage — per record this costs zero heap
    // allocations instead of a fresh shared list + vector.
    if (!meta_->stored_schema.opaque() && value->has_unique_list()) {
      MANIMAL_ASSIGN_OR_RETURN(bool more,
                               stream_.Next(key, &value->mutable_list()));
      return more;
    }
    Record record;
    MANIMAL_ASSIGN_OR_RETURN(bool more, stream_.Next(key, &record));
    if (!more) return false;
    *value = RecordToValue(*meta_, std::move(record));
    return true;
  }

  uint64_t bytes_read() const override { return stream_.bytes_read(); }
  uint64_t bytes_decoded() const override {
    return stream_.bytes_decoded();
  }
  uint64_t blocks_skipped() const override {
    return stream_.blocks_skipped();
  }

 private:
  columnar::SeqFileReader::RecordStream stream_;
  const columnar::SeqFileMeta* meta_;
};

class SeqScanPlan : public InputPlan {
 public:
  SeqScanPlan(std::shared_ptr<columnar::SeqFileReader> reader,
              int target_splits)
      : reader_(std::move(reader)),
        ranges_(SplitBlocks(reader_->num_blocks(), target_splits)) {}

  int num_splits() const override {
    return static_cast<int>(ranges_.size());
  }

  Result<std::unique_ptr<InputSplit>> OpenSplit(int i) override {
    auto [begin, end] = ranges_.at(i);
    MANIMAL_ASSIGN_OR_RETURN(columnar::SeqFileReader::RecordStream stream,
                             reader_->Scan(begin, end));
    if (skip_ != nullptr) stream.set_skip_blocks(skip_);
    return std::unique_ptr<InputSplit>(
        new SeqScanSplit(std::move(stream), &reader_->meta()));
  }

  uint64_t total_input_bytes() const override {
    return reader_->file_size();
  }

  std::vector<int> DerivedFieldRemap() const override {
    const columnar::SeqFileMeta& meta = reader_->meta();
    if (meta.original_schema.opaque()) return {};
    return FieldRemap(meta.field_map, meta.original_schema.num_fields());
  }

  const columnar::SeqFileReader* seqfile() const override {
    return reader_.get();
  }

  void InstallBlockSkip(
      std::shared_ptr<const std::vector<bool>> skip) override {
    skip_ = std::move(skip);
  }

 private:
  std::shared_ptr<columnar::SeqFileReader> reader_;
  std::vector<std::pair<uint64_t, uint64_t>> ranges_;
  std::shared_ptr<const std::vector<bool>> skip_;
};

// ---------------- BTree ranges ----------------

// Half-open-ish byte range over encoded keys.
struct ByteRange {
  // Start position: seek to start_key; include equal keys iff
  // start_inclusive. Empty start_key + inclusive = from beginning.
  std::string start_key;
  bool start_inclusive = true;
  // End: stop at keys > end_key (or >= when !end_inclusive). Unbounded
  // when !has_end.
  bool has_end = false;
  std::string end_key;
  bool end_inclusive = true;
};

using Locator = std::pair<uint64_t, uint32_t>;  // (block, index)

// Resolves a file-position-ordered slice of matching record locators
// against the base SeqFile block by block — each base block decodes at
// most once across the whole job, and only blocks containing matches
// are touched at all.
class BTreeRangeSplit : public InputSplit {
 public:
  BTreeRangeSplit(columnar::SeqFileReader::BlockAccessor accessor,
                  std::vector<Locator> locators, uint64_t index_bytes)
      : accessor_(std::move(accessor)),
        locators_(std::move(locators)),
        index_bytes_(index_bytes) {}

  Result<bool> Next(int64_t* key, Value* value) override {
    if (pos_ >= locators_.size()) return false;
    auto [block, idx] = locators_[pos_++];
    MANIMAL_RETURN_IF_ERROR(accessor_.Load(block));
    if (idx >= accessor_.num_records()) {
      return Status::Corruption("locator index out of range");
    }
    *key = accessor_.key(idx);
    *value = RecordToValue(accessor_.reader_meta(), accessor_.record(idx));
    return true;
  }

  uint64_t bytes_read() const override {
    return index_bytes_ + accessor_.bytes_read();
  }
  uint64_t bytes_decoded() const override {
    return index_bytes_ + accessor_.bytes_decoded();
  }

 private:
  columnar::SeqFileReader::BlockAccessor accessor_;
  std::vector<Locator> locators_;
  size_t pos_ = 0;
  uint64_t index_bytes_ = 0;
};

// Clustered-tree split: iterates one key sub-range of the tree and
// decodes the records embedded in its leaves.
class ClusteredBTreeSplit : public InputSplit {
 public:
  ClusteredBTreeSplit(std::shared_ptr<index::BTreeReader> tree,
                      index::BTreeReader::Iterator it, ByteRange range,
                      const columnar::SeqFileMeta* meta)
      : tree_(std::move(tree)),
        it_(std::move(it)),
        range_(std::move(range)),
        meta_(meta) {}

  Result<bool> Next(int64_t* key, Value* value) override {
    if (!it_.Valid()) return false;
    if (range_.has_end) {
      int c = std::string_view(it_.key()).compare(range_.end_key);
      if (c > 0 || (c == 0 && !range_.end_inclusive)) return false;
    }
    std::string_view in = it_.payload();
    int64_t orig_key = 0;
    MANIMAL_RETURN_IF_ERROR(GetVarintSigned(&in, &orig_key));
    Record record;
    MANIMAL_RETURN_IF_ERROR(
        DecodeRecord(meta_->stored_schema, &in, &record));
    *key = orig_key;
    *value = RecordToValue(*meta_, std::move(record));
    bytes_read_ += it_.key().size() + it_.payload().size();
    MANIMAL_RETURN_IF_ERROR(it_.Next());
    return true;
  }

  uint64_t bytes_read() const override { return bytes_read_; }

 private:
  std::shared_ptr<index::BTreeReader> tree_;
  index::BTreeReader::Iterator it_;
  ByteRange range_;
  const columnar::SeqFileMeta* meta_;
  uint64_t bytes_read_ = 0;
};

Result<std::vector<ByteRange>> EncodeIntervals(
    const std::vector<analyzer::KeyInterval>& intervals) {
  // Analyzer intervals come pre-merged and disjoint; an empty list
  // means a full index scan.
  std::vector<ByteRange> ranges;
  if (intervals.empty()) {
    ranges.push_back(ByteRange{});
  }
  for (const analyzer::KeyInterval& iv : intervals) {
    ByteRange r;
    if (iv.lo.has_value()) {
      MANIMAL_RETURN_IF_ERROR(EncodeOrderedKey(*iv.lo, &r.start_key));
      r.start_inclusive = iv.lo_inclusive;
    }
    if (iv.hi.has_value()) {
      r.has_end = true;
      MANIMAL_RETURN_IF_ERROR(EncodeOrderedKey(*iv.hi, &r.end_key));
      r.end_inclusive = iv.hi_inclusive;
    }
    ranges.push_back(std::move(r));
  }
  return ranges;
}

// Clustered plan: key sub-ranges cut along root-child boundaries.
class ClusteredBTreePlan : public InputPlan {
 public:
  static Result<std::unique_ptr<ClusteredBTreePlan>> Make(
      const ExecutionDescriptor& descriptor) {
    auto plan = std::make_unique<ClusteredBTreePlan>();
    plan->path_ = descriptor.data_path;
    plan->meta_ = descriptor.artifact_meta;
    MANIMAL_ASSIGN_OR_RETURN(std::shared_ptr<index::BTreeReader> tree,
                             index::BTreeReader::Open(plan->path_));
    plan->file_size_ = tree->file_size();
    MANIMAL_ASSIGN_OR_RETURN(std::vector<std::string> boundaries,
                             tree->RootChildKeys());
    MANIMAL_ASSIGN_OR_RETURN(std::vector<ByteRange> ranges,
                             EncodeIntervals(descriptor.intervals));
    for (const ByteRange& r : ranges) {
      std::vector<std::string> cuts;
      for (const std::string& b : boundaries) {
        bool after_start = r.start_key.empty() || b > r.start_key;
        bool before_end = !r.has_end || b < r.end_key;
        if (after_start && before_end) cuts.push_back(b);
      }
      std::string prev_start = r.start_key;
      bool prev_incl = r.start_inclusive;
      for (const std::string& cut : cuts) {
        ByteRange sub;
        sub.start_key = prev_start;
        sub.start_inclusive = prev_incl;
        sub.has_end = true;
        sub.end_key = cut;
        sub.end_inclusive = false;
        plan->ranges_.push_back(std::move(sub));
        prev_start = cut;
        prev_incl = true;
      }
      ByteRange last;
      last.start_key = prev_start;
      last.start_inclusive = prev_incl;
      last.has_end = r.has_end;
      last.end_key = r.end_key;
      last.end_inclusive = r.end_inclusive;
      plan->ranges_.push_back(std::move(last));
    }
    return plan;
  }

  int num_splits() const override {
    return static_cast<int>(ranges_.size());
  }

  Result<std::unique_ptr<InputSplit>> OpenSplit(int i) override {
    const ByteRange& r = ranges_.at(i);
    MANIMAL_ASSIGN_OR_RETURN(std::shared_ptr<index::BTreeReader> tree,
                             index::BTreeReader::Open(path_));
    index::BTreeReader::Iterator it;
    if (r.start_key.empty() && r.start_inclusive) {
      MANIMAL_ASSIGN_OR_RETURN(it, tree->SeekToFirst());
    } else {
      MANIMAL_ASSIGN_OR_RETURN(
          it, tree->Seek(r.start_key, r.start_inclusive));
    }
    return std::unique_ptr<InputSplit>(new ClusteredBTreeSplit(
        std::move(tree), std::move(it), r, &meta_));
  }

  uint64_t total_input_bytes() const override { return file_size_; }

  columnar::SeqFileMeta meta_;
  std::string path_;
  uint64_t file_size_ = 0;
  std::vector<ByteRange> ranges_;
};

// Every matching locator of `ranges`, sorted into file order.
// *index_bytes accumulates the key+payload bytes the index pass read.
Result<std::vector<Locator>> CollectLocators(
    const index::BTreeReader& tree, const std::vector<ByteRange>& ranges,
    uint64_t* index_bytes) {
  std::vector<Locator> locators;
  for (const ByteRange& r : ranges) {
    index::BTreeReader::Iterator it;
    if (r.start_key.empty() && r.start_inclusive) {
      MANIMAL_ASSIGN_OR_RETURN(it, tree.SeekToFirst());
    } else {
      MANIMAL_ASSIGN_OR_RETURN(
          it, tree.Seek(r.start_key, r.start_inclusive));
    }
    while (it.Valid()) {
      if (r.has_end) {
        int c = std::string_view(it.key()).compare(r.end_key);
        if (c > 0 || (c == 0 && !r.end_inclusive)) break;
      }
      std::string_view in = it.payload();
      uint64_t block = 0;
      uint32_t idx = 0;
      MANIMAL_RETURN_IF_ERROR(GetVarint64(&in, &block));
      MANIMAL_RETURN_IF_ERROR(GetVarint32(&in, &idx));
      locators.emplace_back(block, idx);
      *index_bytes += it.key().size() + it.payload().size();
      MANIMAL_RETURN_IF_ERROR(it.Next());
    }
  }
  std::sort(locators.begin(), locators.end());
  return locators;
}

class BTreePlan : public InputPlan {
 public:
  static Result<std::unique_ptr<BTreePlan>> Make(
      const ExecutionDescriptor& descriptor, int target_splits) {
    auto plan = std::make_unique<BTreePlan>();
    plan->path_ = descriptor.data_path;
    MANIMAL_ASSIGN_OR_RETURN(
        plan->base_reader_,
        columnar::SeqFileReader::Open(descriptor.base_path));
    MANIMAL_ASSIGN_OR_RETURN(std::shared_ptr<index::BTreeReader> tree,
                             index::BTreeReader::Open(plan->path_));
    plan->file_size_ = tree->file_size();
    MANIMAL_ASSIGN_OR_RETURN(std::vector<ByteRange> ranges,
                             EncodeIntervals(descriptor.intervals));

    // One pass over the index collects every matching locator; sorting
    // by file position then lets splits stream the base file in order,
    // decoding each touched block exactly once job-wide.
    MANIMAL_ASSIGN_OR_RETURN(
        std::vector<Locator> locators,
        CollectLocators(*tree, ranges, &plan->index_bytes_));

    // Chunk into splits, never splitting a base block across two
    // splits (a shared block would decode twice).
    size_t target = std::max(1, target_splits);
    size_t per_split =
        std::max<size_t>(1, (locators.size() + target - 1) / target);
    size_t begin = 0;
    while (begin < locators.size()) {
      size_t end = std::min(locators.size(), begin + per_split);
      while (end < locators.size() &&
             locators[end].first == locators[end - 1].first) {
        ++end;
      }
      plan->slices_.emplace_back(
          locators.begin() + begin, locators.begin() + end);
      begin = end;
    }
    if (plan->slices_.empty()) plan->slices_.emplace_back();
    return plan;
  }

  int num_splits() const override {
    return static_cast<int>(slices_.size());
  }

  Result<std::unique_ptr<InputSplit>> OpenSplit(int i) override {
    MANIMAL_ASSIGN_OR_RETURN(
        columnar::SeqFileReader::BlockAccessor accessor,
        base_reader_->OpenBlockAccessor());
    // The planner's index read cost is attributed to the first split.
    uint64_t index_bytes = (i == 0) ? index_bytes_ : 0;
    return std::unique_ptr<InputSplit>(new BTreeRangeSplit(
        std::move(accessor), slices_.at(i), index_bytes));
  }

  uint64_t total_input_bytes() const override { return file_size_; }

  std::shared_ptr<columnar::SeqFileReader> base_reader_;
  std::string path_;
  uint64_t file_size_ = 0;
  uint64_t index_bytes_ = 0;
  std::vector<std::vector<Locator>> slices_;
};

// ---------------- column groups ----------------

class ColumnGroupSplit : public InputSplit {
 public:
  explicit ColumnGroupSplit(
      columnar::ColumnGroupReader::ZippedStream stream)
      : stream_(std::move(stream)) {}

  Result<bool> Next(int64_t* key, Value* value) override {
    Record record;
    MANIMAL_ASSIGN_OR_RETURN(bool more, stream_.Next(key, &record));
    if (!more) return false;
    *value = Value::List(std::move(record));
    return true;
  }

  uint64_t bytes_read() const override { return stream_.bytes_read(); }

 private:
  columnar::ColumnGroupReader::ZippedStream stream_;
};

class ColumnGroupPlan : public InputPlan {
 public:
  static Result<std::unique_ptr<ColumnGroupPlan>> Make(
      const ExecutionDescriptor& descriptor, int target_splits) {
    auto plan = std::make_unique<ColumnGroupPlan>();
    MANIMAL_ASSIGN_OR_RETURN(
        plan->reader_,
        columnar::ColumnGroupReader::Open(descriptor.data_path));
    plan->selection_ =
        plan->reader_->SelectGroups(descriptor.needed_fields);
    plan->ranges_ = SplitBlocks(plan->reader_->num_blocks(), target_splits);
    return plan;
  }

  int num_splits() const override {
    return static_cast<int>(ranges_.size());
  }

  Result<std::unique_ptr<InputSplit>> OpenSplit(int i) override {
    auto [begin, end] = ranges_.at(i);
    MANIMAL_ASSIGN_OR_RETURN(
        columnar::ColumnGroupReader::ZippedStream stream,
        reader_->Scan(selection_, begin, end));
    return std::unique_ptr<InputSplit>(
        new ColumnGroupSplit(std::move(stream)));
  }

  uint64_t total_input_bytes() const override {
    return selection_.bytes;
  }

  std::vector<int> DerivedFieldRemap() const override {
    return FieldRemap(selection_.stored_fields,
                      reader_->schema().num_fields());
  }

  std::shared_ptr<columnar::ColumnGroupReader> reader_;
  columnar::ColumnGroupReader::GroupSelection selection_;
  std::vector<std::pair<uint64_t, uint64_t>> ranges_;
};

}  // namespace

Result<std::unique_ptr<InputPlan>> PlanInput(
    const ExecutionDescriptor& descriptor, int target_splits) {
  switch (descriptor.access_path) {
    case AccessPath::kColumnGroups: {
      MANIMAL_ASSIGN_OR_RETURN(
          std::unique_ptr<ColumnGroupPlan> plan,
          ColumnGroupPlan::Make(descriptor, target_splits));
      return std::unique_ptr<InputPlan>(std::move(plan));
    }
    case AccessPath::kSeqScan: {
      MANIMAL_ASSIGN_OR_RETURN(
          std::shared_ptr<columnar::SeqFileReader> reader,
          columnar::SeqFileReader::Open(descriptor.data_path));
      return std::unique_ptr<InputPlan>(
          new SeqScanPlan(std::move(reader), target_splits));
    }
    case AccessPath::kBTree: {
      if (descriptor.clustered) {
        MANIMAL_ASSIGN_OR_RETURN(
            std::unique_ptr<ClusteredBTreePlan> plan,
            ClusteredBTreePlan::Make(descriptor));
        return std::unique_ptr<InputPlan>(std::move(plan));
      }
      MANIMAL_ASSIGN_OR_RETURN(std::unique_ptr<BTreePlan> plan,
                               BTreePlan::Make(descriptor, target_splits));
      return std::unique_ptr<InputPlan>(std::move(plan));
    }
  }
  return Status::Internal("bad access path");
}

}  // namespace manimal::exec
