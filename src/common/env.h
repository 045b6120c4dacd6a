// Filesystem access layer: buffered sequential writers/readers, whole
// file helpers, and directory utilities. All disk traffic in the
// execution fabric, the B+Tree, and the columnar codecs flows through
// these classes so that byte counters stay accurate.

#ifndef MANIMAL_COMMON_ENV_H_
#define MANIMAL_COMMON_ENV_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace manimal {

// Append-only buffered file writer.
class WritableFile {
 public:
  static Result<std::unique_ptr<WritableFile>> Create(
      const std::string& path);

  ~WritableFile();
  WritableFile(const WritableFile&) = delete;
  WritableFile& operator=(const WritableFile&) = delete;

  Status Append(std::string_view data);
  Status Flush();
  Status Close();

  uint64_t bytes_written() const { return bytes_written_; }
  const std::string& path() const { return path_; }

 private:
  WritableFile(std::string path, std::FILE* f)
      : path_(std::move(path)), file_(f) {}

  std::string path_;
  std::FILE* file_;
  uint64_t bytes_written_ = 0;
};

// Buffered sequential reader.
class SequentialFile {
 public:
  static Result<std::unique_ptr<SequentialFile>> Open(
      const std::string& path);

  ~SequentialFile();
  SequentialFile(const SequentialFile&) = delete;
  SequentialFile& operator=(const SequentialFile&) = delete;

  // Reads up to n bytes into *out (resized to the amount read; empty at
  // EOF).
  Status Read(size_t n, std::string* out);

  Status Skip(uint64_t n);

  uint64_t bytes_read() const { return bytes_read_; }

 private:
  SequentialFile(std::string path, std::FILE* f)
      : path_(std::move(path)), file_(f) {}

  std::string path_;
  std::FILE* file_;
  uint64_t bytes_read_ = 0;
};

// Positioned reads (used by the B+Tree and block-footer lookups).
class RandomAccessFile {
 public:
  static Result<std::unique_ptr<RandomAccessFile>> Open(
      const std::string& path);

  ~RandomAccessFile();
  RandomAccessFile(const RandomAccessFile&) = delete;
  RandomAccessFile& operator=(const RandomAccessFile&) = delete;

  // Reads exactly n bytes at `offset`; Corruption on short read.
  Status ReadAt(uint64_t offset, size_t n, std::string* out) const;

  uint64_t size() const { return size_; }
  uint64_t bytes_read() const { return bytes_read_; }

 private:
  RandomAccessFile(std::string path, std::FILE* f, uint64_t size)
      : path_(std::move(path)), file_(f), size_(size) {}

  std::string path_;
  std::FILE* file_;
  uint64_t size_;
  mutable uint64_t bytes_read_ = 0;
};

// ---------- convenience helpers ----------

Status WriteStringToFile(const std::string& path, std::string_view data);
Result<std::string> ReadFileToString(const std::string& path);
Result<uint64_t> GetFileSize(const std::string& path);
// Last-modification time in nanoseconds since the epoch.
Result<int64_t> GetFileMtimeNanos(const std::string& path);
bool FileExists(const std::string& path);
Status RemoveFileIfExists(const std::string& path);
// Atomically replaces `to` with `from` (same filesystem). The commit
// step of every write-temp-then-rename protocol: a reader can only
// ever observe the complete file at `to`, never a torn prefix.
Status RenameFile(const std::string& from, const std::string& to);
Status CreateDirIfMissing(const std::string& path);
// Removes a directory tree. Refuses paths that do not contain
// "manimal" as a safety rail for tests.
Status RemoveDirRecursively(const std::string& path);
Result<std::vector<std::string>> ListDir(const std::string& path);

// Creates (and returns) a fresh unique directory under the system temp
// dir, e.g. /tmp/manimal-<pid>-<counter>.
std::string MakeTempDir(const std::string& tag);

// Reads an environment variable as int64 with a default.
int64_t EnvInt64(const char* name, int64_t default_value);

// Reads an environment variable as double with a default.
double EnvDouble(const char* name, double default_value);

}  // namespace manimal

#endif  // MANIMAL_COMMON_ENV_H_
