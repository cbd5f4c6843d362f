#ifndef GMR_EXPR_JIT_H_
#define GMR_EXPR_JIT_H_

#include <atomic>
#include <string>

#include "expr/ast.h"

namespace gmr::expr {

/// Shared machinery of runtime compilation — the paper's actual mechanism:
/// "a program encoded in the tree is converted into the corresponding
/// source code, compiled at runtime, and dynamically loaded" (Section
/// III-D), relying on "the G++ compiler suite" (Extensibility section).
/// The generation batch JIT (batch_jit.h) is the one client: it renders
/// candidate equations as C with the same protected operator semantics as
/// eval.h, compiles them with the probed system compiler in the scratch
/// directory below, and guards the compiler with a JitCircuitBreaker.

/// True when a working C compiler was found on this system (checked once).
bool JitAvailable();

/// The probed compiler command ("cc", "gcc", or "clang"); empty when none
/// works.
const std::string& JitCompilerCommand();

/// One mkdtemp()-created scratch directory per process, shared by every
/// JIT compilation: sources and shared objects are unlinked eagerly (the
/// .so right after dlopen), and the directory itself is removed by RAII at
/// process exit — so circuit-breaker trips and aborted runs no longer
/// strand gmr_jit_* temp files in TMPDIR.
/// The directory name embeds the owning PID (gmr_jit_p<pid>_XXXXXX);
/// creation first sweeps siblings whose owner is dead, so a SIGKILLed run
/// (which never reaches the RAII teardown) is cleaned up by the next
/// process to JIT — typically its own resume.
/// Returns the directory path; empty when no scratch dir could be created
/// (callers fall back to bare TMPDIR stems).
const std::string& JitScratchDir();

/// A fresh unique file stem inside JitScratchDir() (or TMPDIR when the
/// scratch dir is unavailable).
std::string JitScratchStem();

/// Circuit breaker guarding JIT compilation: after `threshold` consecutive
/// compile failures the breaker opens and JIT stays disabled for the rest
/// of the run (evaluation degrades to the VM programs, which are
/// bit-compatible). Opening is logged to stderr exactly once.
///
/// Thread-safe: evaluator lanes share one breaker per run. A success
/// resets the consecutive-failure count, so sporadic failures (a full
/// TMPDIR clearing up, a transient fork failure) never open the breaker.
class JitCircuitBreaker {
 public:
  static constexpr int kDefaultThreshold = 3;

  explicit JitCircuitBreaker(int threshold = kDefaultThreshold)
      : threshold_(threshold > 0 ? threshold : 1) {}

  /// True while JIT compilation should still be attempted.
  bool allowed() const { return !open_.load(std::memory_order_acquire); }

  /// True once the breaker tripped (JIT disabled for the rest of the run).
  bool open() const { return open_.load(std::memory_order_acquire); }

  void RecordSuccess() {
    consecutive_failures_.store(0, std::memory_order_relaxed);
  }

  /// Records one compile failure; trips the breaker at the threshold.
  /// `reason` is included in the single disable log line.
  void RecordFailure(const std::string& reason);

  int consecutive_failures() const {
    return consecutive_failures_.load(std::memory_order_relaxed);
  }

  /// Number of disable log lines emitted (0 or 1; exposed for tests).
  int disable_log_count() const {
    return disable_logs_.load(std::memory_order_relaxed);
  }

  /// Re-closes the breaker (tests only; a run never resets itself).
  void Reset() {
    open_.store(false, std::memory_order_release);
    consecutive_failures_.store(0, std::memory_order_relaxed);
    disable_logs_.store(0, std::memory_order_relaxed);
  }

  /// Process-wide default breaker, shared by runs that do not supply
  /// their own.
  static JitCircuitBreaker* Default();

 private:
  const int threshold_;
  std::atomic<bool> open_{false};
  std::atomic<int> consecutive_failures_{0};
  std::atomic<int> disable_logs_{0};
};

/// The shared protected-operator kernel preamble (one copy per translation
/// unit; the generation batch JIT prepends it to its multi-symbol TUs).
const char* JitKernelPreamble();

/// Renders `root` as a C expression over `v`/`p`: variable slot s reads
/// `v[s]`, parameter slot s reads `p[s]` (the generation batch JIT returns
/// it from one symbol per root).
std::string RenderCExpression(const Expr& root);

}  // namespace gmr::expr

#endif  // GMR_EXPR_JIT_H_
