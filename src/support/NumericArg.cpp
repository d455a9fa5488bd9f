//===- support/NumericArg.cpp ---------------------------------------------===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/NumericArg.h"

#include <cstdio>

using namespace mgc;

bool support::parseDecimal(const char *Text, uint64_t Min, uint64_t Max,
                           uint64_t &Out) {
  if (!Text || !*Text)
    return false;
  uint64_t V = 0;
  for (const char *P = Text; *P; ++P) {
    if (*P < '0' || *P > '9')
      return false;
    uint64_t D = static_cast<uint64_t>(*P - '0');
    if (D > Max || V > (Max - D) / 10)
      return false;
    V = V * 10 + D;
  }
  if (V < Min)
    return false;
  Out = V;
  return true;
}

void support::reportBadNumericArg(const char *Tool, const char *Flag,
                                  const char *Text, uint64_t Min,
                                  uint64_t Max) {
  std::fprintf(stderr,
               "%s: %s: expected a decimal number in %llu..%llu, got '%s'\n",
               Tool, Flag, static_cast<unsigned long long>(Min),
               static_cast<unsigned long long>(Max), Text);
}
