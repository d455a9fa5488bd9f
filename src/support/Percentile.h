//===- support/Percentile.h - Nearest-rank percentiles ----------*- C++ -*-===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one percentile behind the tracer's pause and request summaries,
/// mgc-report, the server harness and bench/pause.
///
//===----------------------------------------------------------------------===//

#ifndef MGC_SUPPORT_PERCENTILE_H
#define MGC_SUPPORT_PERCENTILE_H

#include <algorithm>
#include <cstdint>
#include <vector>

namespace mgc {
namespace support {

/// Nearest-rank percentile \p P (0..1) of the ascending \p Sorted: the
/// element at index P * (n - 1) + 0.5 rounded down, clamped to the last;
/// 0 when empty.  P = 1 is the maximum.
inline uint64_t nearestRank(const std::vector<uint64_t> &Sorted, double P) {
  if (Sorted.empty())
    return 0;
  size_t I =
      static_cast<size_t>(P * static_cast<double>(Sorted.size() - 1) + 0.5);
  return Sorted[std::min(I, Sorted.size() - 1)];
}

/// nearestRank over a sorted copy of \p V.
inline uint64_t percentile(std::vector<uint64_t> V, double P) {
  std::sort(V.begin(), V.end());
  return nearestRank(V, P);
}

struct Percentiles {
  uint64_t P50 = 0, P95 = 0, P99 = 0, Max = 0;
  uint64_t Count = 0, Sum = 0;
};

/// The usual percentiles of \p V (sorted once), its size and its sum.
inline Percentiles percentiles(std::vector<uint64_t> V) {
  std::sort(V.begin(), V.end());
  uint64_t Sum = 0;
  for (uint64_t X : V)
    Sum += X;
  return {nearestRank(V, 0.50), nearestRank(V, 0.95), nearestRank(V, 0.99),
          nearestRank(V, 1.0),  V.size(),             Sum};
}

} // namespace support
} // namespace mgc

#endif // MGC_SUPPORT_PERCENTILE_H
