#ifndef GMR_EXPR_BATCH_JIT_H_
#define GMR_EXPR_BATCH_JIT_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/striped_map.h"
#include "expr/ast.h"
#include "expr/jit.h"

namespace gmr::expr {

/// Generation-batched runtime compilation.
///
/// The paper's extensibility mechanism (Section III-D) compiles each
/// candidate ODE into its own shared object — hundreds of compiler
/// invocations per GP generation. BatchJitSession amortizes that: one
/// CompileBatch call emits a single translation unit with one exported
/// symbol per *unique* expression (structure-hash keyed, so duplicate
/// individuals after TAG3P crossover share a symbol), invokes the compiler
/// once, and dlopen()s once. Compiled symbols persist in a striped
/// structure-hash cache for the lifetime of the session, so individuals
/// recurring across generations never recompile at all.
///
/// Each emitted symbol evaluates its equation for one parameter vector,
/// `double fn(const double* v, const double* p)` with leaves read at
/// `v[slot]` / `p[slot]` — the layout of EvalContext — so a rollout calls it
/// once per derivative evaluation. The TU is compiled with
/// -ffp-contract=off, so no multiply-add is fused that the VM programs
/// would round twice.
class BatchJitSession {
 public:
  /// f(v, p) over one variable and one parameter vector.
  using BatchFn = double (*)(const double* v, const double* p);

  /// `breaker` guards the per-TU compiler invocations; null uses
  /// JitCircuitBreaker::Default(). The session does not own it.
  explicit BatchJitSession(JitCircuitBreaker* breaker = nullptr);
  ~BatchJitSession();

  BatchJitSession(const BatchJitSession&) = delete;
  BatchJitSession& operator=(const BatchJitSession&) = delete;

  /// Compiles every root not already cached into ONE translation unit and
  /// returns the per-root entry points in input order. A null entry means
  /// that root must run on the VM program instead (compile failure, open
  /// circuit breaker, no compiler, or `batch_compile` fault injection) —
  /// the degradation is per root, so a failed root never poisons the
  /// others. Coordinator-only: call from the batch barrier, not from
  /// worker lanes (Lookup is the lane-safe accessor).
  std::vector<BatchFn> CompileBatch(const std::vector<const Expr*>& roots);

  /// Thread-safe cache probe by Expr::StructuralHash(); null on miss.
  BatchFn Lookup(std::uint64_t structure_hash) const;

  /// Compile-cache counters (all totals since construction). "Requests"
  /// are CompileBatch inputs; hits are requests satisfied by the cache
  /// without entering the new TU.
  struct Stats {
    std::uint64_t requests = 0;
    std::uint64_t hits = 0;
    std::uint64_t unique_misses = 0;
    std::uint64_t tu_compiles = 0;       ///< Compiler invocations.
    std::uint64_t symbols_compiled = 0;  ///< Exported symbols built.
    std::uint64_t compile_failures = 0;  ///< Failed TU compiles.

    double HitRate() const {
      return requests == 0
                 ? 0.0
                 : static_cast<double>(hits) / static_cast<double>(requests);
    }
  };
  Stats stats() const;

  /// Entries currently cached.
  std::size_t cache_size() const { return cache_.size(); }

  /// The last generated TU source (for inspection/testing; empty before
  /// the first non-trivial CompileBatch).
  const std::string& last_source() const { return last_source_; }

  /// Process-wide session shared by runs that do not supply their own.
  static BatchJitSession* Default();

 private:
  JitCircuitBreaker* breaker_;
  StripedMap<std::uint64_t, BatchFn> cache_;
  /// Serializes TU generation/compilation (CompileBatch is documented
  /// coordinator-only, but the default session is shared process-wide).
  std::mutex compile_mu_;
  /// dlopen handles, closed in order at destruction.
  std::vector<void*> handles_;
  std::string last_source_;

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> unique_misses_{0};
  std::atomic<std::uint64_t> tu_compiles_{0};
  std::atomic<std::uint64_t> symbols_compiled_{0};
  std::atomic<std::uint64_t> compile_failures_{0};
};

/// Symbol name of a structure hash inside generated TUs (exposed for
/// tests): "gmr_b_<16 hex digits>".
std::string BatchSymbolName(std::uint64_t structure_hash);

/// Generates the multi-symbol TU source for the given (hash, root) pairs
/// without compiling (exposed for tests).
std::string GenerateBatchCSource(
    const std::vector<std::pair<std::uint64_t, const Expr*>>& entries);

}  // namespace gmr::expr

#endif  // GMR_EXPR_BATCH_JIT_H_
