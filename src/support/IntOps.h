//===- support/IntOps.h - MG integer arithmetic -----------------*- C++ -*-===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// MG's one integer semantics, shared by the lexer, parser const-eval, the
/// constant folder and both VM tiers.  INTEGER is 64-bit two's complement:
/// a literal above INT64_MAX is an error, and + - * and negation wrap
/// around.  DIV and MOD truncate toward zero (the C++ / and %), and fail
/// on a zero divisor and on the smallest INTEGER by -1, the one quotient
/// that does not fit (and which x86 turns into SIGFPE).  Wrapping goes
/// through uint64_t, so no path is C++ undefined behaviour.
///
//===----------------------------------------------------------------------===//

#ifndef MGC_SUPPORT_INTOPS_H
#define MGC_SUPPORT_INTOPS_H

#include <cstdint>
#include <limits>

namespace mgc {
namespace support {

inline int64_t wrapAdd(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) +
                              static_cast<uint64_t>(B));
}
inline int64_t wrapSub(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) -
                              static_cast<uint64_t>(B));
}
inline int64_t wrapMul(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) *
                              static_cast<uint64_t>(B));
}
inline int64_t wrapNeg(int64_t A) {
  return static_cast<int64_t>(0 - static_cast<uint64_t>(A));
}

/// Appends decimal digit \p Digit to the literal value \p V; false, with
/// \p V unchanged, when the value would exceed INT64_MAX.
inline bool appendDecimalDigit(int64_t &V, int Digit) {
  if (V > (std::numeric_limits<int64_t>::max() - Digit) / 10)
    return false;
  V = V * 10 + Digit;
  return true;
}

/// Whether A DIV B and A MOD B overflow: the smallest INTEGER by -1.
inline bool divOverflows(int64_t A, int64_t B) {
  return A == std::numeric_limits<int64_t>::min() && B == -1;
}

/// The runtime error both VM tiers report when divOverflows holds.
constexpr const char *DivOverflowMessage =
    "integer overflow: smallest INTEGER DIV or MOD -1";

} // namespace support
} // namespace mgc

#endif // MGC_SUPPORT_INTOPS_H
