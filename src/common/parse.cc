#include "common/parse.h"

#include <charconv>

namespace gmr {

bool ParseUnsigned(std::string_view text, std::uint64_t max,
                   std::uint64_t* value) {
  // from_chars into an unsigned type takes digits only: no whitespace, no
  // '+', no '-'; the checks below reject empty text, trailing characters
  // and overflow.
  std::uint64_t parsed = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, parsed);
  if (ec != std::errc() || ptr != end || parsed > max) return false;
  *value = parsed;
  return true;
}

bool ParseDouble(std::string_view text, double* value) {
  // from_chars takes no whitespace and no '+', and reports a literal that
  // overflows (or underflows to zero) as result_out_of_range.
  double parsed = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, parsed);
  if (ec != std::errc() || ptr != end) return false;
  *value = parsed;
  return true;
}

}  // namespace gmr
