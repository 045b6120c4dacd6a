#include "index/catalog.h"

#include <cstdlib>
#include <set>

#include "common/env.h"
#include "common/strings.h"

namespace manimal::index {

Result<Catalog> Catalog::Open(const std::string& path) {
  Catalog catalog(path);
  if (!FileExists(path)) return catalog;
  MANIMAL_ASSIGN_OR_RETURN(std::string data, ReadFileToString(path));
  int line_no = 0;
  for (const std::string& line : SplitString(data, '\n')) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::vector<std::string> cols = SplitString(line, '\t');
    // 7 columns is the pre-stats manifest layout; 8 adds stats_path;
    // 10 adds codec_chain + raw_bytes; 11 adds input_fingerprint.
    if (cols.size() != 7 && cols.size() != 8 && cols.size() != 10 &&
        cols.size() != 11) {
      return Status::Corruption(StrPrintf(
          "catalog %s line %d: expected 7, 8, 10 or 11 columns, got %zu",
          path.c_str(), line_no, cols.size()));
    }
    CatalogEntry e;
    e.input_file = UnescapeField(cols[0]);
    e.signature = UnescapeField(cols[1]);
    e.artifact_path = UnescapeField(cols[2]);
    e.dict_path = UnescapeField(cols[3]);
    e.base_path = UnescapeField(cols[4]);
    e.artifact_bytes = std::strtoull(cols[5].c_str(), nullptr, 10);
    e.input_bytes = std::strtoull(cols[6].c_str(), nullptr, 10);
    if (cols.size() >= 8) e.stats_path = UnescapeField(cols[7]);
    if (cols.size() >= 10) {
      e.codec_chain = UnescapeField(cols[8]);
      e.raw_bytes = std::strtoull(cols[9].c_str(), nullptr, 10);
    }
    if (cols.size() >= 11) e.input_fingerprint = UnescapeField(cols[10]);
    catalog.entries_.push_back(std::move(e));
  }
  std::set<std::string> tried;
  for (const CatalogEntry& e : catalog.entries_) {
    if (e.stats_path.empty() || catalog.stats_.count(e.input_file) > 0 ||
        !tried.insert(e.stats_path).second) {
      continue;
    }
    Result<stats::TableStats> loaded = stats::TableStats::Load(e.stats_path);
    if (loaded.ok()) {
      catalog.stats_[e.input_file] =
          std::make_shared<const stats::TableStats>(std::move(loaded).value());
    }
  }
  return catalog;
}

Status Catalog::Register(const CatalogEntry& entry,
                         std::shared_ptr<const stats::TableStats> stats) {
  auto held = stats_.find(entry.input_file);
  if (stats != nullptr) {
    stats_[entry.input_file] = std::move(stats);
  } else if (held != stats_.end() &&
             held->second->fingerprint != entry.input_fingerprint) {
    stats_.erase(held);
  }
  for (CatalogEntry& e : entries_) {
    if (e.input_file == entry.input_file &&
        e.signature == entry.signature) {
      e = entry;
      return Save();
    }
  }
  entries_.push_back(entry);
  return Save();
}

std::vector<CatalogEntry> Catalog::FindForInput(
    const std::string& input_file) const {
  std::vector<CatalogEntry> out;
  for (const CatalogEntry& e : entries_) {
    if (e.input_file == input_file) out.push_back(e);
  }
  return out;
}

const stats::TableStats* Catalog::StatsFor(
    const std::string& input_file) const {
  auto it = stats_.find(input_file);
  return it == stats_.end() ? nullptr : it->second.get();
}

std::optional<CatalogEntry> Catalog::Find(
    const std::string& input_file, const std::string& signature) const {
  for (const CatalogEntry& e : entries_) {
    if (e.input_file == input_file && e.signature == signature) return e;
  }
  return std::nullopt;
}

Status Catalog::Save() const {
  std::string out =
      "# Manimal catalog: input\tsignature\tartifact\tdict\tbase\t"
      "bytes\tinput_bytes\tstats\tcodec_chain\traw_bytes\t"
      "input_fingerprint\n";
  for (const CatalogEntry& e : entries_) {
    out += EscapeField(e.input_file);
    out += '\t';
    out += EscapeField(e.signature);
    out += '\t';
    out += EscapeField(e.artifact_path);
    out += '\t';
    out += EscapeField(e.dict_path);
    out += '\t';
    out += EscapeField(e.base_path);
    out += '\t';
    out += std::to_string(e.artifact_bytes);
    out += '\t';
    out += std::to_string(e.input_bytes);
    out += '\t';
    out += EscapeField(e.stats_path);
    out += '\t';
    out += EscapeField(e.codec_chain);
    out += '\t';
    out += std::to_string(e.raw_bytes);
    out += '\t';
    out += EscapeField(e.input_fingerprint);
    out += '\n';
  }
  // Commit by rename, so a torn write never replaces the previous
  // manifest.
  const std::string temp_path = path_ + ".inprogress";
  MANIMAL_RETURN_IF_ERROR(WriteStringToFile(temp_path, out));
  return RenameFile(temp_path, path_);
}

}  // namespace manimal::index
