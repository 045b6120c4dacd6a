#include "common/faulty_env.h"

#include <cstdlib>

#include "common/env.h"
#include "common/strings.h"
#include "obs/journal.h"

namespace manimal {

namespace {

// Stateless mix (splitmix64 finalizer) so the injection decision for a
// site depends only on (seed, op, path, ordinal).
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

thread_local bool tls_armed = false;

}  // namespace

const char* FaultOpName(FaultOp op) {
  switch (op) {
    case FaultOp::kOpenWrite:
      return "open-write";
    case FaultOp::kOpenRead:
      return "open-read";
    case FaultOp::kRead:
      return "read";
    case FaultOp::kWrite:
      return "write";
    case FaultOp::kFlush:
      return "flush";
    case FaultOp::kClose:
      return "close";
    case FaultOp::kRename:
      return "rename";
  }
  return "unknown";
}

FaultyEnv& FaultyEnv::Get() {
  static FaultyEnv* instance = new FaultyEnv();
  return *instance;
}

void FaultyEnv::Enable(const Config& config) {
  std::lock_guard<std::mutex> lock(mu_);
  config_ = config;
  stats_ = Stats{};
  path_ops_.clear();
  enabled_.store(true, std::memory_order_relaxed);
}

void FaultyEnv::Disable() {
  std::lock_guard<std::mutex> lock(mu_);
  enabled_.store(false, std::memory_order_relaxed);
  path_ops_.clear();
}

FaultyEnv::Config FaultyEnv::ConfigFromEnv(const Config& defaults) {
  Config config = defaults;
  config.seed = static_cast<uint64_t>(
      EnvInt64("MANIMAL_FAULT_SEED",
               static_cast<int64_t>(defaults.seed)));
  config.rate = EnvDouble("MANIMAL_FAULT_RATE", defaults.rate);
  int64_t max = EnvInt64("MANIMAL_FAULT_MAX", -1);
  if (max >= 0) config.max_failures = static_cast<uint64_t>(max);
  return config;
}

FaultyEnv::Stats FaultyEnv::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

FaultyEnv::Config FaultyEnv::config() const {
  std::lock_guard<std::mutex> lock(mu_);
  return config_;
}

bool FaultyEnv::Active() {
  return tls_armed &&
         Get().enabled_.load(std::memory_order_relaxed);
}

Status FaultyEnv::Evaluate(FaultOp op, const std::string& path,
                           uint64_t* decision) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!enabled_.load(std::memory_order_relaxed)) return Status::OK();
  ++stats_.evaluated;
  if (stats_.injected >= config_.max_failures) return Status::OK();

  bool fire = false;
  if (config_.fail_nth > 0) {
    fire = stats_.evaluated == config_.fail_nth;
  } else if (config_.rate > 0) {
    const uint64_t ordinal = path_ops_[path]++;
    const uint64_t h =
        Mix64(config_.seed ^ Mix64(Fnv1a(path)) ^
              Mix64((static_cast<uint64_t>(op) << 32) | ordinal));
    fire = static_cast<double>(h >> 11) * 0x1.0p-53 < config_.rate;
  }
  if (!fire) return Status::OK();
  ++stats_.injected;
  *decision = Mix64(config_.seed ^ stats_.evaluated);
  obs::Journal::Get()
      .Event("fault_injected")
      .Str("op", FaultOpName(op))
      .Str("path", path)
      .Uint("site_ordinal", stats_.evaluated)
      .Uint("injected_so_far", stats_.injected)
      .Emit();
  return Status::IOError("injected fault: " +
                         std::string(FaultOpName(op)) + " " + path);
}

Status FaultyEnv::MaybeInject(FaultOp op, const std::string& path) {
  uint64_t decision = 0;
  return Evaluate(op, path, &decision);
}

Status FaultyEnv::MaybeInjectWrite(const std::string& path, size_t len,
                                   size_t* persist_prefix) {
  uint64_t decision = 0;
  Status st = Evaluate(FaultOp::kWrite, path, &decision);
  if (st.ok()) return st;
  bool short_write;
  {
    std::lock_guard<std::mutex> lock(mu_);
    short_write = config_.short_writes;
  }
  if (short_write && len > 1) {
    // Persist a seeded strict prefix: the file ends up torn, exactly
    // as if the process died mid-write.
    *persist_prefix = static_cast<size_t>(decision % len);
  }
  return st;
}

ScopedFaultArming::ScopedFaultArming(bool armed) : was_armed_(tls_armed) {
  tls_armed = armed;
}

bool ScopedFaultArming::ThreadArmed() { return tls_armed; }

ScopedFaultArming::~ScopedFaultArming() { tls_armed = was_armed_; }

}  // namespace manimal
