#include "common/env.h"

#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "common/faulty_env.h"

namespace fs = std::filesystem;

namespace manimal {

namespace {

Status ErrnoStatus(const char* op, const std::string& path) {
  std::string msg = std::string(op) + " " + path + ": " +
                    std::strerror(errno);
  if (errno == ENOENT) return Status::NotFound(msg);
  return Status::IOError(msg);
}

// Fault-injection gate: no-op (one relaxed load + a thread-local
// check) unless a FaultyEnv schedule is enabled and this thread is
// armed. See common/faulty_env.h.
inline Status MaybeFault(FaultOp op, const std::string& path) {
  if (!FaultyEnv::Active()) return Status::OK();
  return FaultyEnv::Get().MaybeInject(op, path);
}

}  // namespace

// ---------- WritableFile ----------

Result<std::unique_ptr<WritableFile>> WritableFile::Create(
    const std::string& path) {
  MANIMAL_RETURN_IF_ERROR(MaybeFault(FaultOp::kOpenWrite, path));
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return ErrnoStatus("open for write", path);
  return std::unique_ptr<WritableFile>(new WritableFile(path, f));
}

WritableFile::~WritableFile() {
  if (file_ != nullptr) std::fclose(file_);
}

Status WritableFile::Append(std::string_view data) {
  if (file_ == nullptr) return Status::IOError("file closed: " + path_);
  if (data.empty()) return Status::OK();
  if (FaultyEnv::Active()) {
    size_t persist_prefix = 0;
    Status fault = FaultyEnv::Get().MaybeInjectWrite(
        path_, data.size(), &persist_prefix);
    if (!fault.ok()) {
      // Short write: persist a torn prefix before failing, exactly as
      // if the process died mid-write.
      if (persist_prefix > 0) {
        size_t n = std::fwrite(data.data(), 1, persist_prefix, file_);
        bytes_written_ += n;
        std::fflush(file_);
      }
      return fault;
    }
  }
  size_t n = std::fwrite(data.data(), 1, data.size(), file_);
  if (n != data.size()) return ErrnoStatus("write", path_);
  bytes_written_ += n;
  return Status::OK();
}

Status WritableFile::Flush() {
  if (file_ == nullptr) return Status::IOError("file closed: " + path_);
  MANIMAL_RETURN_IF_ERROR(MaybeFault(FaultOp::kFlush, path_));
  if (std::fflush(file_) != 0) return ErrnoStatus("flush", path_);
  return Status::OK();
}

Status WritableFile::Close() {
  if (file_ == nullptr) return Status::OK();
  // An injected close failure still releases the handle (the kernel
  // may or may not have persisted buffered data — callers must treat
  // the file as torn).
  Status fault = MaybeFault(FaultOp::kClose, path_);
  int rc = std::fclose(file_);
  file_ = nullptr;
  MANIMAL_RETURN_IF_ERROR(fault);
  if (rc != 0) return ErrnoStatus("close", path_);
  return Status::OK();
}

// ---------- SequentialFile ----------

Result<std::unique_ptr<SequentialFile>> SequentialFile::Open(
    const std::string& path) {
  MANIMAL_RETURN_IF_ERROR(MaybeFault(FaultOp::kOpenRead, path));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return ErrnoStatus("open for read", path);
  return std::unique_ptr<SequentialFile>(new SequentialFile(path, f));
}

SequentialFile::~SequentialFile() {
  if (file_ != nullptr) std::fclose(file_);
}

Status SequentialFile::Read(size_t n, std::string* out) {
  MANIMAL_RETURN_IF_ERROR(MaybeFault(FaultOp::kRead, path_));
  out->resize(n);
  size_t got = std::fread(out->data(), 1, n, file_);
  out->resize(got);
  bytes_read_ += got;
  if (got < n && std::ferror(file_)) return ErrnoStatus("read", path_);
  return Status::OK();
}

Status SequentialFile::Skip(uint64_t n) {
  if (std::fseek(file_, static_cast<long>(n), SEEK_CUR) != 0) {
    return ErrnoStatus("seek", path_);
  }
  return Status::OK();
}

// ---------- RandomAccessFile ----------

Result<std::unique_ptr<RandomAccessFile>> RandomAccessFile::Open(
    const std::string& path) {
  MANIMAL_RETURN_IF_ERROR(MaybeFault(FaultOp::kOpenRead, path));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return ErrnoStatus("open for read", path);
  if (std::fseek(f, 0, SEEK_END) != 0) {
    std::fclose(f);
    return ErrnoStatus("seek end", path);
  }
  long size = std::ftell(f);
  if (size < 0) {
    std::fclose(f);
    return ErrnoStatus("tell", path);
  }
  return std::unique_ptr<RandomAccessFile>(
      new RandomAccessFile(path, f, static_cast<uint64_t>(size)));
}

RandomAccessFile::~RandomAccessFile() {
  if (file_ != nullptr) std::fclose(file_);
}

Status RandomAccessFile::ReadAt(uint64_t offset, size_t n,
                                std::string* out) const {
  MANIMAL_RETURN_IF_ERROR(MaybeFault(FaultOp::kRead, path_));
  if (n > size_ || offset > size_ - n) {
    return Status::Corruption("ReadAt past EOF in " + path_);
  }
  if (std::fseek(file_, static_cast<long>(offset), SEEK_SET) != 0) {
    return ErrnoStatus("seek", path_);
  }
  out->resize(n);
  size_t got = std::fread(out->data(), 1, n, file_);
  bytes_read_ += got;
  if (got != n) return Status::Corruption("short read in " + path_);
  return Status::OK();
}

// ---------- helpers ----------

Status WriteStringToFile(const std::string& path, std::string_view data) {
  MANIMAL_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> f,
                           WritableFile::Create(path));
  MANIMAL_RETURN_IF_ERROR(f->Append(data));
  return f->Close();
}

Result<std::string> ReadFileToString(const std::string& path) {
  MANIMAL_ASSIGN_OR_RETURN(std::unique_ptr<SequentialFile> f,
                           SequentialFile::Open(path));
  std::string out;
  std::string chunk;
  for (;;) {
    MANIMAL_RETURN_IF_ERROR(f->Read(1 << 20, &chunk));
    if (chunk.empty()) break;
    out += chunk;
  }
  return out;
}

Result<uint64_t> GetFileSize(const std::string& path) {
  std::error_code ec;
  uint64_t size = fs::file_size(path, ec);
  if (ec) return Status::IOError("file_size " + path + ": " + ec.message());
  return size;
}

Result<int64_t> GetFileMtimeNanos(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return ErrnoStatus("stat", path);
  return static_cast<int64_t>(st.st_mtim.tv_sec) * 1000000000 +
         st.st_mtim.tv_nsec;
}

bool FileExists(const std::string& path) {
  std::error_code ec;
  return fs::exists(path, ec);
}

Status RemoveFileIfExists(const std::string& path) {
  std::error_code ec;
  fs::remove(path, ec);
  if (ec) return Status::IOError("remove " + path + ": " + ec.message());
  return Status::OK();
}

Status RenameFile(const std::string& from, const std::string& to) {
  MANIMAL_RETURN_IF_ERROR(MaybeFault(FaultOp::kRename, from));
  std::error_code ec;
  fs::rename(from, to, ec);
  if (ec) {
    return Status::IOError("rename " + from + " -> " + to + ": " +
                           ec.message());
  }
  return Status::OK();
}

Status CreateDirIfMissing(const std::string& path) {
  std::error_code ec;
  fs::create_directories(path, ec);
  if (ec) {
    return Status::IOError("create_directories " + path + ": " +
                           ec.message());
  }
  return Status::OK();
}

Status RemoveDirRecursively(const std::string& path) {
  if (path.find("manimal") == std::string::npos) {
    return Status::InvalidArgument(
        "refusing to recursively remove non-manimal path: " + path);
  }
  std::error_code ec;
  fs::remove_all(path, ec);
  if (ec) return Status::IOError("remove_all " + path + ": " + ec.message());
  return Status::OK();
}

Result<std::vector<std::string>> ListDir(const std::string& path) {
  std::vector<std::string> names;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(path, ec)) {
    names.push_back(entry.path().filename().string());
  }
  if (ec) return Status::IOError("list " + path + ": " + ec.message());
  return names;
}

std::string MakeTempDir(const std::string& tag) {
  static std::atomic<uint64_t> counter{0};
  std::string base = fs::temp_directory_path().string();
  std::string dir = base + "/manimal-" + tag + "-" +
                    std::to_string(::getpid()) + "-" +
                    std::to_string(counter.fetch_add(1));
  std::error_code ec;
  fs::create_directories(dir, ec);
  return dir;
}

int64_t EnvInt64(const char* name, int64_t default_value) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return default_value;
  return std::strtoll(v, nullptr, 10);
}

double EnvDouble(const char* name, double default_value) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return default_value;
  return std::strtod(v, nullptr);
}

}  // namespace manimal
