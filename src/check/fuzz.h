#ifndef GMR_CHECK_FUZZ_H_
#define GMR_CHECK_FUZZ_H_

#include <cstdint>
#include <string>
#include <vector>

#include "check/corpus.h"
#include "check/gen.h"
#include "check/oracles.h"

namespace gmr::check {

/// One fuzz run: `iterations` generated cases, each checked against every
/// enabled property; failures are greedily shrunk and (when `corpus_dir`
/// is set) persisted as replayable reproducers.
struct FuzzOptions {
  std::uint64_t seed = 1;
  std::uint64_t iterations = 2000;

  /// Substring filter on property names ("vm", "roundtrip", ...); empty
  /// runs everything.
  std::string filter;

  /// When non-empty, shrunk counterexamples are written here as .gmr files.
  std::string corpus_dir;

  int contexts_per_case = 8;

  /// The compiler-invoking oracle (batch_jit) forks the system C compiler
  /// (~100 ms per case), so it runs on every jit_every-th case only; the
  /// cheap oracles run on all.
  int jit_every = 256;

  /// The population oracles (derivation, derivation_bytes,
  /// ckpt_generation) generate whole populations, so they run on every
  /// derivation_every-th case, once per river grammar (plankton and
  /// five-species transport).
  int derivation_every = 64;

  int max_shrink_attempts = 200;

  /// Fans the per-case work out; the derivation oracle also uses it for
  /// its pooled-vs-inline comparison. Null runs everything inline.
  ThreadPool* pool = nullptr;
};

/// Per-property tally of one run.
struct PropertyReport {
  std::string name;
  std::uint64_t cases = 0;
  std::uint64_t failures = 0;
  /// Detail of the lowest-index failure, after shrinking.
  std::string first_failure;
  /// Reproducer files written to the corpus.
  std::vector<std::string> written;
};

struct FuzzReport {
  std::vector<PropertyReport> properties;
  std::uint64_t total_cases = 0;
  std::uint64_t total_failures = 0;
  bool ok() const { return total_failures == 0; }
};

/// Runs the fuzz loop over the river GenConfig. Deterministic for a given
/// (options.seed, iterations, filter) regardless of thread count.
FuzzReport RunFuzz(const FuzzOptions& options);

/// Same, over an explicit generator configuration.
FuzzReport RunFuzz(const FuzzOptions& options, const GenConfig& config);

}  // namespace gmr::check

#endif  // GMR_CHECK_FUZZ_H_
