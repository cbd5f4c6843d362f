#include "common/cli.h"

#include <cstdio>
#include <cstdlib>

namespace gmr {

void ExitOnBadValue(const char* tool, const char* name, const char* text,
                    std::uint64_t min, std::uint64_t max) {
  if (text == nullptr) {
    std::fprintf(stderr, "%s: %s needs a value\n", tool, name);
  } else {
    std::fprintf(stderr,
                 "%s: bad value '%s' for %s (expected an integer in "
                 "[%llu, %llu])\n",
                 tool, text, name, static_cast<unsigned long long>(min),
                 static_cast<unsigned long long>(max));
  }
  std::exit(2);
}

}  // namespace gmr
