#ifndef GMR_COMMON_FAULT_INJECTION_H_
#define GMR_COMMON_FAULT_INJECTION_H_

#include <cstddef>
#include <string>

/// Seeded, env-gated fault injection for exercising the containment layer.
///
/// Production code hosts named injection points (`FaultInjected(point)`)
/// that are dormant unless armed — either through the `GMR_FAULT`
/// environment variable or programmatically from tests via `SetFaultSpec`.
/// The spec grammar is a comma-separated list of `point:mode` entries:
///
///   GMR_FAULT=batch_compile:always
///   GMR_FAULT=derivative_nan:first:4,pool_task:prob:0.25:42
///
/// Points: `derivative_nan` (DerivativeRunner::Derivatives returns NaN),
/// `pool_task` (a ThreadPool task throws std::runtime_error),
/// `batch_compile` (BatchJitSession::CompileBatch reports a failed
/// generation TU; every affected equation degrades to the VM program),
/// `ckpt_write` (snapshot temp-file open/write fails),
/// `ckpt_fsync` (snapshot fsync fails; the write is treated as not
/// durable and retried/skipped),
/// `ckpt_corrupt` (a successfully written snapshot is bit-rotted on
/// disk after the fact; the loader must fall back to the previous one),
/// `resume_torn` (a snapshot read is truncated mid-record, simulating a
/// torn write surviving a crash),
/// `tape_alloc` (building a reverse-mode gradient tape fails as if
/// allocation were exhausted; gradient consumers degrade to
/// derivative-free paths),
/// `adjoint_nan` (the discrete-adjoint reverse sweep produces a NaN
/// cotangent; gradients come back flagged invalid, never silently wrong).
///
/// Modes (per-point invocation counter `c`, starting at 0):
///   always        fire on every call
///   never         armed but inert (useful to override an env spec)
///   once          fire on the first call only
///   first:N       fire on calls c < N
///   after:N       fire on calls c >= N
///   prob:P[:SEED] fire when splitmix64(SEED, c) maps below P — seeded and
///                 a pure function of the call count, so a given total call
///                 count fires a deterministic subset regardless of thread
///                 interleaving.
///
/// All queries are thread-safe; arming/clearing must not race with
/// in-flight queries (arm before starting workers).
namespace gmr {

enum class FaultPoint : int {
  kDerivativeNan = 0,
  kPoolTask,
  kBatchCompile,
  kCkptWrite,
  kCkptFsync,
  kCkptCorrupt,
  kResumeTorn,
  kTapeAlloc,
  kAdjointNan,
};

inline constexpr std::size_t kNumFaultPoints = 9;

const char* FaultPointName(FaultPoint point);

/// True when the fault armed for `point` fires on this invocation. Each
/// call advances the point's invocation counter. Cheap when nothing is
/// armed (one relaxed atomic load).
bool FaultInjected(FaultPoint point);

/// Arms faults from a spec string (see the grammar above), replacing any
/// previously armed faults and resetting all counters. Returns false and
/// fills *error on a malformed spec (leaving all faults cleared).
bool SetFaultSpec(const std::string& spec, std::string* error = nullptr);

/// Disarms every fault point and suppresses re-reading GMR_FAULT.
void ClearFaults();

/// True when at least one point is armed with a mode other than `never`.
bool AnyFaultArmed();

}  // namespace gmr

#endif  // GMR_COMMON_FAULT_INJECTION_H_
