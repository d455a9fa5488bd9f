//===- fuzz/Rng.h - Deterministic fuzzer RNG --------------------*- C++ -*-===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small splitmix64-based generator.  The fuzzer must be byte-for-byte
/// deterministic across runs and platforms, so we avoid <random> (whose
/// distributions are implementation-defined) and derive everything from
/// integer arithmetic on a 64-bit state.
///
//===----------------------------------------------------------------------===//

#ifndef MGC_FUZZ_RNG_H
#define MGC_FUZZ_RNG_H

#include <cassert>
#include <cstdint>

namespace mgc {
namespace fuzz {

class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed + 0x9E3779B97F4A7C15ull) {}

  /// Next raw 64-bit value (splitmix64).
  uint64_t next() {
    uint64_t Z = (State += 0x9E3779B97F4A7C15ull);
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
    return Z ^ (Z >> 31);
  }

  /// Uniform value in [Lo, Hi] inclusive.
  int64_t range(int64_t Lo, int64_t Hi) {
    assert(Lo <= Hi);
    uint64_t Span = static_cast<uint64_t>(Hi - Lo) + 1;
    return Lo + static_cast<int64_t>(next() % Span);
  }

  /// True with probability Percent/100.
  bool pct(unsigned Percent) { return next() % 100 < Percent; }

private:
  uint64_t State;
};

} // namespace fuzz
} // namespace mgc

#endif // MGC_FUZZ_RNG_H
