//===- support/NumericArg.h - Strict numeric flag values --------*- C++ -*-===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one reader for numeric command-line values in the tools.  A value is
/// plain decimal digits and nothing else — no sign, space, suffix or hex
/// prefix — and must lie in the flag's range, so "64k", "-1", "abc" and a
/// value that would wrap in the destination type are usage errors instead
/// of silently becoming some other number.
///
//===----------------------------------------------------------------------===//

#ifndef MGC_SUPPORT_NUMERICARG_H
#define MGC_SUPPORT_NUMERICARG_H

#include <cstdint>
#include <limits>
#include <type_traits>

namespace mgc {
namespace support {

/// Parses \p Text as one or more decimal digits whose value lies in
/// [\p Min, \p Max].  Returns false, leaving \p Out unchanged, otherwise.
bool parseDecimal(const char *Text, uint64_t Min, uint64_t Max,
                  uint64_t &Out);

/// Prints "<Tool>: <Flag>: expected a decimal number in Min..Max, got
/// '<Text>'" to stderr.
void reportBadNumericArg(const char *Tool, const char *Flag,
                         const char *Text, uint64_t Min, uint64_t Max);

/// Reads the value \p Text of numeric flag \p Flag into \p Out.  On a
/// malformed or out-of-range value, reports it and returns false; the
/// tool then exits with status 2, as for any other usage error.
template <typename T>
bool parseNumericArg(const char *Tool, const char *Flag, const char *Text,
                     T &Out, uint64_t Min = 0,
                     uint64_t Max = std::numeric_limits<T>::max()) {
  static_assert(std::is_unsigned_v<T>, "numeric flags are unsigned");
  uint64_t V = 0;
  if (!parseDecimal(Text, Min, Max, V)) {
    reportBadNumericArg(Tool, Flag, Text, Min, Max);
    return false;
  }
  Out = static_cast<T>(V);
  return true;
}

} // namespace support
} // namespace mgc

#endif // MGC_SUPPORT_NUMERICARG_H
