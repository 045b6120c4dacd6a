// FaultyEnv: a deterministic fault-injection wrapper over the
// common/Env filesystem layer.
//
// All disk traffic already flows through env.h's file classes; each of
// their fallible operations consults this injector before touching the
// real filesystem. When enabled AND the calling thread is armed (see
// ScopedFaultArming), an operation may be failed from a seeded
// schedule instead of executed: open/read/write/flush/close/rename
// errors and short writes (a prefix of the data is persisted and the
// write then fails, modeling a torn write / lost fsync).
//
// The schedule decides per (seed, op, path, per-path op ordinal). The
// ordinal counts the armed operations on one path in the order they
// arrive, so while one thread at a time touches a path, a given seed
// injects the same faults for the same file-access pattern. When
// several threads read one path (map tasks over splits of one input,
// index-build workers over its blocks), which of their reads takes
// which ordinal, and so which one fails, follows the thread
// interleaving. The ordinal stays because a retried operation needs a
// fresh decision. A separate `fail_nth` mode fails exactly the Nth
// armed operation in arrival order, which crash-recovery tests use to
// sweep every injection site.
//
// Arming is thread-local: the execution fabric arms fault injection
// only inside retryable task attempts, so a fault is only ever
// injected where the engine's retry machinery can observe and recover
// from it. Tests arm explicitly around the code under test. Helper
// threads working for an armed caller arm themselves too (see
// ScopedFaultArming::ThreadArmed).
//
// Env vars (see docs/testing.md): MANIMAL_FAULT_SEED,
// MANIMAL_FAULT_RATE, MANIMAL_FAULT_MAX.

#ifndef MANIMAL_COMMON_FAULTY_ENV_H_
#define MANIMAL_COMMON_FAULTY_ENV_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "common/status.h"

namespace manimal {

// The filesystem operations eligible for injection.
enum class FaultOp {
  kOpenWrite = 0,
  kOpenRead,
  kRead,
  kWrite,
  kFlush,
  kClose,
  kRename,
};

const char* FaultOpName(FaultOp op);

class FaultyEnv {
 public:
  struct Config {
    uint64_t seed = 1;
    // Per-operation injection probability in [0, 1).
    double rate = 0.0;
    // When > 0, ignore `rate` and fail exactly the Nth armed
    // operation (1-based), then stop injecting. Crash-recovery tests
    // sweep n over [1, evaluated] to hit every site once.
    uint64_t fail_nth = 0;
    // Stop injecting after this many faults (budget).
    uint64_t max_failures = UINT64_MAX;
    // Allow short-write faults: persist a seeded prefix of the data,
    // then fail the Append. Exercises the temp-file+rename commit
    // protocol (a torn file must never be read as valid).
    bool short_writes = true;
  };

  struct Stats {
    uint64_t evaluated = 0;  // armed operations that consulted the schedule
    uint64_t injected = 0;   // operations actually failed
  };

  static FaultyEnv& Get();

  void Enable(const Config& config);
  void Disable();
  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  // Builds a Config from MANIMAL_FAULT_SEED / MANIMAL_FAULT_RATE /
  // MANIMAL_FAULT_MAX, falling back to `defaults` for unset vars.
  static Config ConfigFromEnv(const Config& defaults);

  Stats stats() const;
  Config config() const;

  // True when injection is enabled AND this thread is armed — the
  // fast-path gate the env hooks check before taking any lock.
  static bool Active();

  // Consults the schedule for one operation. OK means "proceed".
  Status MaybeInject(FaultOp op, const std::string& path);

  // Write-specific: on a short-write injection, *persist_prefix is set
  // to the number of leading bytes the caller must still write before
  // returning the error (strictly less than `len`); otherwise it is
  // left untouched.
  Status MaybeInjectWrite(const std::string& path, size_t len,
                          size_t* persist_prefix);

 private:
  friend class ScopedFaultArming;
  FaultyEnv() = default;

  // Returns non-OK iff the schedule fires for this (op, path) site.
  Status Evaluate(FaultOp op, const std::string& path, uint64_t* decision);

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  Config config_;
  Stats stats_;
  // Per-path armed-op ordinals, in arrival order: independent of
  // interleaving across files, not among threads sharing one path.
  std::map<std::string, uint64_t> path_ops_;
};

// Arms fault injection for the current thread (or, with `armed`
// false, disarms it) for the scope's lifetime, then restores the
// previous state. Nestable.
class ScopedFaultArming {
 public:
  explicit ScopedFaultArming(bool armed = true);
  ~ScopedFaultArming();

  // Whether the current thread is armed. A thread started to do part
  // of an armed caller's work passes this to its own scope, so its
  // file operations are eligible exactly when the caller's are.
  static bool ThreadArmed();

  ScopedFaultArming(const ScopedFaultArming&) = delete;
  ScopedFaultArming& operator=(const ScopedFaultArming&) = delete;

 private:
  bool was_armed_;
};

// RAII enable/disable for tests: enables with `config` on
// construction, disables (and forgets all schedule state) on
// destruction.
class ScopedFaultInjection {
 public:
  explicit ScopedFaultInjection(const FaultyEnv::Config& config) {
    FaultyEnv::Get().Enable(config);
  }
  ~ScopedFaultInjection() { FaultyEnv::Get().Disable(); }

  ScopedFaultInjection(const ScopedFaultInjection&) = delete;
  ScopedFaultInjection& operator=(const ScopedFaultInjection&) = delete;
};

}  // namespace manimal

#endif  // MANIMAL_COMMON_FAULTY_ENV_H_
