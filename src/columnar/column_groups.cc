#include "columnar/column_groups.h"

#include <algorithm>
#include <cstdlib>
#include <filesystem>

#include "common/env.h"
#include "common/strings.h"

namespace manimal::columnar {

namespace {

std::string SiblingName(const std::string& manifest_path, int group) {
  return manifest_path + ".g" + std::to_string(group) + ".msq";
}

Status ValidateGrouping(const Schema& schema,
                        const std::vector<std::vector<int>>& grouping) {
  if (schema.opaque()) {
    return Status::InvalidArgument(
        "column groups require a structured schema");
  }
  std::vector<bool> seen(schema.num_fields(), false);
  for (const auto& group : grouping) {
    if (group.empty()) {
      return Status::InvalidArgument("empty column group");
    }
    for (int f : group) {
      if (f < 0 || f >= schema.num_fields()) {
        return Status::InvalidArgument("column group field out of range");
      }
      if (seen[f]) {
        return Status::InvalidArgument(
            "field appears in two column groups");
      }
      seen[f] = true;
    }
  }
  for (bool s : seen) {
    if (!s) {
      return Status::InvalidArgument(
          "grouping does not cover every field");
    }
  }
  return Status::OK();
}

}  // namespace

std::vector<std::vector<int>> PerFieldGrouping(const Schema& schema) {
  std::vector<std::vector<int>> grouping;
  for (int i = 0; i < schema.num_fields(); ++i) {
    grouping.push_back({i});
  }
  return grouping;
}

// ---------------- writer ----------------

Result<std::unique_ptr<ColumnGroupWriter>> ColumnGroupWriter::Create(
    const std::string& manifest_path, const Schema& schema,
    std::vector<std::vector<int>> grouping, uint32_t records_per_block) {
  MANIMAL_RETURN_IF_ERROR(ValidateGrouping(schema, grouping));
  if (records_per_block == 0) {
    return Status::InvalidArgument("records_per_block must be positive");
  }
  auto writer = std::unique_ptr<ColumnGroupWriter>(new ColumnGroupWriter());
  writer->manifest_path_ = manifest_path;
  writer->schema_ = schema;
  writer->grouping_ = std::move(grouping);
  for (size_t g = 0; g < writer->grouping_.size(); ++g) {
    SeqFileMeta meta;
    meta.original_schema = schema;
    meta.stored_schema = schema.Project(writer->grouping_[g]);
    meta.field_map = writer->grouping_[g];
    meta.has_key_slot = true;
    SeqFileWriter::Options options;
    options.records_per_block = records_per_block;
    std::string path = SiblingName(manifest_path, static_cast<int>(g));
    MANIMAL_ASSIGN_OR_RETURN(
        std::unique_ptr<SeqFileWriter> sibling,
        SeqFileWriter::Create(path + ".inprogress", std::move(meta),
                              options));
    writer->writers_.push_back(std::move(sibling));
    writer->sibling_paths_.push_back(std::move(path));
  }
  return writer;
}

Status ColumnGroupWriter::Append(int64_t key, const Record& record) {
  if (static_cast<int>(record.size()) != schema_.num_fields()) {
    return Status::InvalidArgument("record arity != schema");
  }
  for (size_t g = 0; g < grouping_.size(); ++g) {
    Record slice;
    slice.reserve(grouping_[g].size());
    for (int f : grouping_[g]) slice.push_back(record[f]);
    MANIMAL_RETURN_IF_ERROR(writers_[g]->Append(key, slice));
  }
  ++num_records_;
  return Status::OK();
}

Result<uint64_t> ColumnGroupWriter::Finish() {
  uint64_t total = 0;
  std::vector<uint64_t> sizes;
  for (auto& w : writers_) {
    MANIMAL_ASSIGN_OR_RETURN(uint64_t bytes, w->Finish());
    sizes.push_back(bytes);
    total += bytes;
  }
  // The manifest commits last. Until then a reader opens the previous
  // one, whose siblings are untouched or complete files written from
  // the same input (an entry of a rewritten input is stale anyway).
  for (const std::string& path : sibling_paths_) {
    MANIMAL_RETURN_IF_ERROR(RenameFile(path + ".inprogress", path));
  }
  std::string manifest = "MCGS v1\n";
  manifest += "schema\t" + schema_.ToString() + "\n";
  for (size_t g = 0; g < grouping_.size(); ++g) {
    std::vector<std::string> fields;
    for (int f : grouping_[g]) fields.push_back(std::to_string(f));
    manifest += "group\t" + JoinStrings(fields, ",") + "\t" +
                std::filesystem::path(sibling_paths_[g])
                    .filename()
                    .string() +
                "\t" + std::to_string(sizes[g]) + "\n";
  }
  MANIMAL_RETURN_IF_ERROR(
      WriteStringToFile(manifest_path_ + ".inprogress", manifest));
  MANIMAL_RETURN_IF_ERROR(
      RenameFile(manifest_path_ + ".inprogress", manifest_path_));
  return total + manifest.size();
}

// ---------------- reader ----------------

Result<std::shared_ptr<ColumnGroupReader>> ColumnGroupReader::Open(
    const std::string& manifest_path) {
  std::shared_ptr<ColumnGroupReader> reader(new ColumnGroupReader());
  MANIMAL_RETURN_IF_ERROR(reader->Init(manifest_path));
  return reader;
}

Status ColumnGroupReader::Init(const std::string& manifest_path) {
  MANIMAL_ASSIGN_OR_RETURN(std::string text,
                           ReadFileToString(manifest_path));
  std::vector<std::string> lines = SplitString(text, '\n');
  if (lines.empty() || lines[0] != "MCGS v1") {
    return Status::Corruption("bad column-group manifest: " +
                              manifest_path);
  }
  std::string dir =
      std::filesystem::path(manifest_path).parent_path().string();
  for (size_t i = 1; i < lines.size(); ++i) {
    if (lines[i].empty()) continue;
    std::vector<std::string> cols = SplitString(lines[i], '\t');
    if (cols[0] == "schema" && cols.size() == 2) {
      MANIMAL_ASSIGN_OR_RETURN(schema_, Schema::Parse(cols[1]));
    } else if (cols[0] == "group" && cols.size() == 4) {
      ColumnGroup group;
      for (const std::string& f : SplitString(cols[1], ',')) {
        group.fields.push_back(
            static_cast<int>(std::strtol(f.c_str(), nullptr, 10)));
      }
      group.path = dir.empty() ? cols[2] : dir + "/" + cols[2];
      group.bytes = std::strtoull(cols[3].c_str(), nullptr, 10);
      groups_.push_back(std::move(group));
    } else {
      return Status::Corruption("bad manifest line: " + lines[i]);
    }
  }
  if (groups_.empty()) {
    return Status::Corruption("manifest has no groups");
  }
  MANIMAL_RETURN_IF_ERROR(ValidateGrouping(schema_, [this] {
    std::vector<std::vector<int>> grouping;
    for (const ColumnGroup& g : groups_) grouping.push_back(g.fields);
    return grouping;
  }()));
  for (const ColumnGroup& group : groups_) {
    MANIMAL_ASSIGN_OR_RETURN(std::shared_ptr<SeqFileReader> sibling,
                             SeqFileReader::Open(group.path));
    if (!readers_.empty()) {
      if (sibling->num_blocks() != readers_[0]->num_blocks() ||
          sibling->num_records() != readers_[0]->num_records()) {
        return Status::Corruption(
            "column-group siblings are not row-aligned");
      }
    }
    total_bytes_ += group.bytes;
    readers_.push_back(std::move(sibling));
  }
  num_blocks_ = readers_[0]->num_blocks();
  num_records_ = readers_[0]->num_records();
  return Status::OK();
}

ColumnGroupReader::GroupSelection ColumnGroupReader::SelectGroups(
    const std::vector<int>& needed_fields) const {
  GroupSelection selection;
  std::vector<bool> needed(schema_.num_fields(),
                           needed_fields.empty());
  for (int f : needed_fields) {
    if (f >= 0 && f < schema_.num_fields()) needed[f] = true;
  }
  for (size_t g = 0; g < groups_.size(); ++g) {
    bool touch = false;
    for (int f : groups_[g].fields) touch = touch || needed[f];
    if (!touch) continue;
    selection.group_indexes.push_back(static_cast<int>(g));
    for (int f : groups_[g].fields) {
      selection.stored_fields.push_back(f);
    }
    selection.bytes += groups_[g].bytes;
  }
  if (selection.group_indexes.empty()) {
    // Nothing needed, but something must supply keys and record
    // count: read the smallest group.
    size_t best = 0;
    for (size_t g = 1; g < groups_.size(); ++g) {
      if (groups_[g].bytes < groups_[best].bytes) best = g;
    }
    selection.group_indexes.push_back(static_cast<int>(best));
    for (int f : groups_[best].fields) {
      selection.stored_fields.push_back(f);
    }
    selection.bytes = groups_[best].bytes;
  }
  return selection;
}

Result<ColumnGroupReader::ZippedStream> ColumnGroupReader::Scan(
    const GroupSelection& selection, uint64_t begin_block,
    uint64_t end_block) const {
  ZippedStream zipped;
  for (int g : selection.group_indexes) {
    MANIMAL_ASSIGN_OR_RETURN(SeqFileReader::RecordStream stream,
                             readers_.at(g)->Scan(begin_block, end_block));
    zipped.streams_.push_back(std::move(stream));
  }
  return zipped;
}

Result<bool> ColumnGroupReader::ZippedStream::Next(int64_t* key,
                                                   Record* record) {
  record->clear();
  bool first = true;
  bool any = false;
  for (SeqFileReader::RecordStream& stream : streams_) {
    int64_t stream_key = 0;
    Record slice;
    MANIMAL_ASSIGN_OR_RETURN(bool more, stream.Next(&stream_key, &slice));
    if (first) {
      if (!more) return false;
      *key = stream_key;
      any = true;
      first = false;
    } else {
      if (!more || stream_key != *key) {
        return Status::Corruption(
            "column-group siblings desynchronized during zip");
      }
    }
    for (Value& v : slice) record->push_back(std::move(v));
  }
  return any;
}

uint64_t ColumnGroupReader::ZippedStream::bytes_read() const {
  uint64_t total = 0;
  for (const SeqFileReader::RecordStream& stream : streams_) {
    total += stream.bytes_read();
  }
  return total;
}

}  // namespace manimal::columnar
