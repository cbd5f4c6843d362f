#ifndef GMR_COMMON_PARSE_H_
#define GMR_COMMON_PARSE_H_

#include <cstdint>
#include <limits>
#include <string_view>

namespace gmr {

/// The strict base-10 parser of every count, seed and slot read at an input
/// boundary (command-line flags, environment variables, checkpoint lines,
/// fault specs): `text` must be one or more ASCII digits and nothing else.
/// Rejects empty text, a sign, whitespace, trailing characters and values
/// above `max`, so a typo never becomes a default, a prefix or a wrapped
/// value.
bool ParseUnsigned(std::string_view text, std::uint64_t max,
                   std::uint64_t* value);

/// ParseUnsigned bounded by the largest value of `Int`.
template <class Int>
bool ParseUnsigned(std::string_view text, Int* value) {
  std::uint64_t parsed = 0;
  if (!ParseUnsigned(
          text, static_cast<std::uint64_t>(std::numeric_limits<Int>::max()),
          &parsed)) {
    return false;
  }
  *value = static_cast<Int>(parsed);
  return true;
}

/// The strict parser of every real number read from a model or grammar
/// file: `text` must be one decimal literal, `inf`, `-inf` or `nan`, and
/// nothing else — everything the writers print at precision 17. Rejects
/// empty text, whitespace, a '+' sign, trailing characters and a literal
/// outside the double range, so `0.05abc` or `banana` never loads as a
/// prefix or as 0.
bool ParseDouble(std::string_view text, double* value);

}  // namespace gmr

#endif  // GMR_COMMON_PARSE_H_
