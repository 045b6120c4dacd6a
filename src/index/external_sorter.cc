#include "index/external_sorter.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/coding.h"
#include "common/strings.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace manimal::index {

namespace {

// Block-buffered reader over one spilled run file (varint-length-
// prefixed key/payload pairs). Reads the file in large chunks and
// parses entries out of the in-memory window, instead of issuing one
// file read per byte of varint.
class RunReader {
 public:
  static constexpr size_t kBlockBytes = 256u << 10;

  static Result<std::unique_ptr<RunReader>> Open(const std::string& path) {
    MANIMAL_ASSIGN_OR_RETURN(std::unique_ptr<SequentialFile> f,
                             SequentialFile::Open(path));
    auto reader = std::unique_ptr<RunReader>(new RunReader(std::move(f)));
    MANIMAL_RETURN_IF_ERROR(reader->Next());
    return reader;
  }

  bool Valid() const { return valid_; }
  std::string_view key() const { return key_; }
  std::string_view payload() const { return payload_; }

  Status Next() {
    // Clean EOF only at an entry boundary.
    MANIMAL_RETURN_IF_ERROR(Ensure(1));
    if (available() == 0) {
      valid_ = false;
      return Status::OK();
    }
    // Parse the whole entry against offsets relative to pos_, then
    // take views into the window — key()/payload() are zero-copy and
    // stay valid until the next call (the only point that compacts).
    MANIMAL_RETURN_IF_ERROR(Ensure(10));  // two max varint32s
    uint32_t key_len = 0, payload_len = 0;
    size_t off = 0;
    MANIMAL_RETURN_IF_ERROR(ParseLength(&off, &key_len));
    const size_t key_off = off;
    off += key_len;
    MANIMAL_RETURN_IF_ERROR(Ensure(off + 5));
    MANIMAL_RETURN_IF_ERROR(ParseLength(&off, &payload_len));
    MANIMAL_RETURN_IF_ERROR(Ensure(off + payload_len));
    if (available() < off + payload_len) {
      return Status::Corruption("short run read");
    }
    key_ = std::string_view(buf_.data() + pos_ + key_off, key_len);
    payload_ = std::string_view(buf_.data() + pos_ + off, payload_len);
    pos_ += off + payload_len;
    valid_ = true;
    return Status::OK();
  }

 private:
  explicit RunReader(std::unique_ptr<SequentialFile> f)
      : file_(std::move(f)) {}

  size_t available() const { return buf_.size() - pos_; }

  // Tops the window up to at least n readable bytes (less only at
  // EOF), refilling in kBlockBytes chunks. Never more than a chunk at
  // a time: n comes from lengths stored in the run, and a corrupted
  // one must fail at EOF, not allocate what it claims.
  Status Ensure(size_t n) {
    if (available() >= n || eof_) return Status::OK();
    buf_.erase(0, pos_);
    pos_ = 0;
    std::string chunk;
    while (buf_.size() < n && !eof_) {
      MANIMAL_RETURN_IF_ERROR(file_->Read(kBlockBytes, &chunk));
      if (chunk.empty()) {
        eof_ = true;
        break;
      }
      buf_.append(chunk);
    }
    return Status::OK();
  }

  // Decodes a varint32 at window offset *off, advancing *off past it.
  Status ParseLength(size_t* off, uint32_t* out) {
    if (available() < *off) return Status::Corruption("short run read");
    std::string_view window(buf_.data() + pos_ + *off,
                            available() - *off);
    const size_t before = window.size();
    if (!GetVarint32(&window, out).ok()) {
      return Status::Corruption("truncated varint in run");
    }
    *off += before - window.size();
    return Status::OK();
  }

  std::unique_ptr<SequentialFile> file_;
  std::string buf_;
  size_t pos_ = 0;
  bool eof_ = false;
  std::string_view key_, payload_;
  bool valid_ = false;
};

// Cursor over one in-memory sorted run (borrowed: the run outlives
// the cursor — owned either by the MergeStream or by the caller).
class MemoryRunCursor {
 public:
  explicit MemoryRunCursor(const MemoryRun* run) : run_(run) {}

  bool Valid() const { return pos_ < run_->entries.size(); }
  std::string_view key() const {
    const MemoryRun::Entry& e = run_->entries[pos_];
    return std::string_view(run_->arena.data() + e.key_offset, e.key_len);
  }
  std::string_view payload() const {
    const MemoryRun::Entry& e = run_->entries[pos_];
    return std::string_view(run_->arena.data() + e.payload_offset,
                            e.payload_len);
  }
  void Next() { ++pos_; }

 private:
  const MemoryRun* run_;
  size_t pos_ = 0;
};

// K-way merge: a binary min-heap of source indexes ordered by each
// source's current key (ties toward the lower index, i.e. earlier
// source). The head of the heap IS the current entry; advancing
// steps that source and sifts the head down in place (one O(log k)
// sift per entry instead of a pop + push pair), against a cache of
// each source's current key so comparisons never chase the source
// indirection. A single-source merge degenerates to a plain scan:
// SiftDown over a one-element heap compares nothing.
class MergeStream : public SortedStream {
 public:
  MergeStream(std::vector<std::unique_ptr<RunReader>> runs,
              std::vector<MemoryRun> owned_memory_runs,
              std::vector<const MemoryRun*> borrowed_memory_runs)
      : runs_(std::move(runs)),
        owned_memory_(std::move(owned_memory_runs)) {
    memory_.reserve(owned_memory_.size() + borrowed_memory_runs.size());
    for (const MemoryRun& run : owned_memory_) {
      memory_.emplace_back(&run);
    }
    for (const MemoryRun* run : borrowed_memory_runs) {
      memory_.emplace_back(run);
    }
    const size_t n = runs_.size() + memory_.size();
    keys_.resize(n);
    heap_.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      if (SourceValid(i)) {
        keys_[i] = SourceKey(i);
        heap_.push_back(i);
      }
    }
    for (size_t i = heap_.size() / 2; i-- > 0;) SiftDown(i);
  }

  bool Valid() const override { return !heap_.empty(); }
  std::string_view key() const override { return keys_[heap_[0]]; }
  std::string_view payload() const override {
    return SourcePayload(heap_[0]);
  }

  Status Next() override {
    const size_t src = heap_[0];
    MANIMAL_RETURN_IF_ERROR(SourceNext(src));
    if (SourceValid(src)) {
      keys_[src] = SourceKey(src);
    } else {
      heap_[0] = heap_.back();
      heap_.pop_back();
      if (heap_.empty()) return Status::OK();
    }
    SiftDown(0);
    return Status::OK();
  }

 private:
  // Min order over source indexes; equal keys break toward the lower
  // source index (run files come before memory runs).
  bool SourceLess(size_t a, size_t b) const {
    int c = keys_[a].compare(keys_[b]);
    if (c != 0) return c < 0;
    return a < b;
  }

  void SiftDown(size_t i) {
    const size_t n = heap_.size();
    while (true) {
      const size_t left = 2 * i + 1;
      if (left >= n) return;
      size_t smallest = SourceLess(heap_[left], heap_[i]) ? left : i;
      const size_t right = left + 1;
      if (right < n && SourceLess(heap_[right], heap_[smallest])) {
        smallest = right;
      }
      if (smallest == i) return;
      std::swap(heap_[i], heap_[smallest]);
      i = smallest;
    }
  }

  bool SourceValid(size_t i) const {
    if (i < runs_.size()) return runs_[i]->Valid();
    return memory_[i - runs_.size()].Valid();
  }
  std::string_view SourceKey(size_t i) const {
    if (i < runs_.size()) return runs_[i]->key();
    return memory_[i - runs_.size()].key();
  }
  std::string_view SourcePayload(size_t i) const {
    if (i < runs_.size()) return runs_[i]->payload();
    return memory_[i - runs_.size()].payload();
  }
  Status SourceNext(size_t i) {
    if (i < runs_.size()) return runs_[i]->Next();
    memory_[i - runs_.size()].Next();
    return Status::OK();
  }

  std::vector<std::unique_ptr<RunReader>> runs_;
  std::vector<MemoryRun> owned_memory_;
  std::vector<MemoryRunCursor> memory_;
  // Current key per source, refreshed when that source advances.
  std::vector<std::string_view> keys_;
  std::vector<size_t> heap_;
};

Result<std::unique_ptr<SortedStream>> OpenMergeStream(
    const std::vector<std::string>& run_paths,
    std::vector<MemoryRun> owned_memory_runs,
    std::vector<const MemoryRun*> borrowed_memory_runs) {
  std::vector<std::unique_ptr<RunReader>> runs;
  runs.reserve(run_paths.size());
  for (const std::string& path : run_paths) {
    MANIMAL_ASSIGN_OR_RETURN(std::unique_ptr<RunReader> r,
                             RunReader::Open(path));
    runs.push_back(std::move(r));
  }
  return std::unique_ptr<SortedStream>(
      new MergeStream(std::move(runs), std::move(owned_memory_runs),
                      std::move(borrowed_memory_runs)));
}

}  // namespace

// ---------------- SpillBuffer ----------------

void SpillBuffer::Add(std::string_view key, std::string_view payload) {
  MemoryRun::Entry e;
  e.key_offset = static_cast<uint32_t>(arena_.size());
  e.key_len = static_cast<uint32_t>(key.size());
  arena_.append(key);
  e.payload_offset = static_cast<uint32_t>(arena_.size());
  e.payload_len = static_cast<uint32_t>(payload.size());
  arena_.append(payload);
  entries_.push_back(e);
}

void SpillBuffer::SortEntries() {
  std::sort(entries_.begin(), entries_.end(),
            [this](const MemoryRun::Entry& a, const MemoryRun::Entry& b) {
              std::string_view ka(arena_.data() + a.key_offset, a.key_len);
              std::string_view kb(arena_.data() + b.key_offset, b.key_len);
              return ka < kb;
            });
}

Result<uint64_t> SpillBuffer::SpillToFile(const std::string& path) {
  SortEntries();
  // Write-temp-then-rename commit: the run becomes visible at `path`
  // only as a complete file. A crash (or injected fault) at any point
  // before the rename leaves at most an orphaned .tmp that the next
  // attempt overwrites.
  const std::string tmp_path = path + ".tmp";
  auto write_run = [&]() -> Result<uint64_t> {
    MANIMAL_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> f,
                             WritableFile::Create(tmp_path));
    // Batch the encoded entries into block-sized writes.
    constexpr size_t kWriteBlockBytes = 256u << 10;
    std::string buf;
    buf.reserve(std::min<size_t>(kWriteBlockBytes + 1024,
                                 arena_.size() + 10 * entries_.size()));
    for (const MemoryRun::Entry& e : entries_) {
      PutVarint32(&buf, e.key_len);
      buf.append(arena_.data() + e.key_offset, e.key_len);
      PutVarint32(&buf, e.payload_len);
      buf.append(arena_.data() + e.payload_offset, e.payload_len);
      if (buf.size() >= kWriteBlockBytes) {
        MANIMAL_RETURN_IF_ERROR(f->Append(buf));
        buf.clear();
      }
    }
    if (!buf.empty()) MANIMAL_RETURN_IF_ERROR(f->Append(buf));
    const uint64_t run_bytes = f->bytes_written();
    MANIMAL_RETURN_IF_ERROR(f->Close());
    MANIMAL_RETURN_IF_ERROR(RenameFile(tmp_path, path));
    return run_bytes;
  };
  Result<uint64_t> run_bytes = write_run();
  if (!run_bytes.ok()) {
    (void)RemoveFileIfExists(tmp_path);
    return run_bytes;
  }
  entries_.clear();
  arena_.clear();
  return run_bytes;
}

MemoryRun SpillBuffer::TakeSortedRun() {
  SortEntries();
  MemoryRun run;
  run.arena = std::move(arena_);
  run.entries = std::move(entries_);
  arena_.clear();
  entries_.clear();
  return run;
}

// ---------------- merge ----------------

Result<std::unique_ptr<SortedStream>> MergeSortedRuns(
    const std::vector<std::string>& run_paths,
    std::vector<MemoryRun> memory_runs) {
  return OpenMergeStream(run_paths, std::move(memory_runs), {});
}

Result<std::unique_ptr<SortedStream>> MergeSortedRunsBorrowed(
    const std::vector<std::string>& run_paths,
    std::vector<const MemoryRun*> memory_runs) {
  return OpenMergeStream(run_paths, {}, std::move(memory_runs));
}

// ---------------- ExternalSorter ----------------

ExternalSorter::ExternalSorter(Options options)
    : options_(std::move(options)) {
  MANIMAL_CHECK(!options_.temp_dir.empty());
}

ExternalSorter::~ExternalSorter() {
  for (const std::string& path : run_paths_) {
    (void)RemoveFileIfExists(path);
  }
}

Status ExternalSorter::Add(std::string_view key, std::string_view payload) {
  MANIMAL_CHECK(!finished_);
  buffer_.Add(key, payload);
  ++stats_.entries;
  if (buffer_.buffered_bytes() >= options_.memory_budget_bytes ||
      buffer_.buffered_bytes() > (3u << 30)) {
    MANIMAL_RETURN_IF_ERROR(SpillToRun());
  }
  return Status::OK();
}

Status ExternalSorter::SpillToRun() {
  if (buffer_.empty()) return Status::OK();
  std::string path = options_.temp_dir + "/" +
                     StrPrintf("run-%04d.sort",
                               static_cast<int>(run_paths_.size()));
  MANIMAL_ASSIGN_OR_RETURN(const uint64_t run_bytes,
                           buffer_.SpillToFile(path));
  stats_.spilled_bytes += run_bytes;
  run_paths_.push_back(std::move(path));
  ++stats_.spilled_runs;
  auto& metrics = obs::MetricsRegistry::Get();
  metrics.GetCounter(options_.metric_label + ".spilled_runs")
      ->Increment();
  metrics.GetCounter(options_.metric_label + ".spilled_bytes")
      ->Add(static_cast<int64_t>(run_bytes));
  obs::TraceInstant((options_.metric_label + ".spill").c_str(), "exec",
                    {{"bytes", std::to_string(run_bytes)}});
  return Status::OK();
}

Result<std::unique_ptr<SortedStream>> ExternalSorter::Finish() {
  MANIMAL_CHECK(!finished_);
  finished_ = true;
  std::vector<MemoryRun> memory_runs;
  if (!buffer_.empty()) {
    memory_runs.push_back(buffer_.TakeSortedRun());
  }
  return MergeSortedRuns(run_paths_, std::move(memory_runs));
}

}  // namespace manimal::index
