#ifndef GMR_COMMON_CLI_H_
#define GMR_COMMON_CLI_H_

#include <cstdint>
#include <limits>

#include "common/parse.h"

/// Command-line helpers of the executables: a bad flag or environment value
/// names itself and exits 2 instead of falling back to a default.
namespace gmr {

/// Prints "<tool>: bad value '<text>' for <name> (expected an integer in
/// [min, max])" to stderr and exits with status 2. A null `text` is a flag
/// given no value.
[[noreturn]] void ExitOnBadValue(const char* tool, const char* name,
                                 const char* text, std::uint64_t min,
                                 std::uint64_t max);

/// Command-line form: parses the value `text` of flag or environment
/// variable `name` into [min, max], or exits through ExitOnBadValue.
template <class Int = int>
Int ParseUnsignedOrExit(const char* tool, const char* name, const char* text,
                        Int min = 0,
                        Int max = std::numeric_limits<Int>::max()) {
  const auto lo = static_cast<std::uint64_t>(min);
  const auto hi = static_cast<std::uint64_t>(max);
  std::uint64_t parsed = 0;
  if (text == nullptr || !ParseUnsigned(text, hi, &parsed) || parsed < lo) {
    ExitOnBadValue(tool, name, text, lo, hi);
  }
  return static_cast<Int>(parsed);
}

/// The most worker threads any tool starts. Each tool builds a pool of the
/// parsed size, so a larger count is refused before any thread exists.
inline constexpr int kMaxThreads = 1024;

/// A thread count (a `--threads` flag or GMR_BENCH_THREADS) in
/// [min, kMaxThreads], or exits 2 naming `name`.
inline int ParseThreadsOrExit(const char* tool, const char* name,
                              const char* text, int min) {
  return ParseUnsignedOrExit(tool, name, text, min, kMaxThreads);
}

}  // namespace gmr

#endif  // GMR_COMMON_CLI_H_
