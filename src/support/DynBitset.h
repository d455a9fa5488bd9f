//===- support/DynBitset.h - Dynamic bitset ---------------------*- C++ -*-===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small fixed-capacity bitset used by the dataflow analyses (live vreg
/// sets, loop block sets, dominator sets).  Sets of up to InlineWords * 64
/// bits keep their words inside the object, so building, copying and
/// assigning them allocates nothing; larger sets spill to the heap, and
/// assigning between sets of one size reuses the destination's buffer.
///
//===----------------------------------------------------------------------===//

#ifndef MGC_SUPPORT_DYNBITSET_H
#define MGC_SUPPORT_DYNBITSET_H

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>

namespace mgc {

class DynBitset {
public:
  /// Words stored inline.  256 bits hold the vregs of nearly every
  /// optimized function (and the blocks of all of them).
  static constexpr size_t InlineWords = 4;

  DynBitset() = default;
  explicit DynBitset(size_t Size) : NumBits(Size) {
    reserveWords((Size + 63) / 64);
    std::fill_n(Data, NumWords, uint64_t(0));
  }
  DynBitset(const DynBitset &O) : NumBits(O.NumBits) {
    reserveWords(O.NumWords);
    std::copy_n(O.Data, NumWords, Data);
  }
  DynBitset(DynBitset &&O) noexcept { take(O); }
  DynBitset &operator=(const DynBitset &O) {
    if (this != &O) {
      reserveWords(O.NumWords);
      NumBits = O.NumBits;
      std::copy_n(O.Data, NumWords, Data);
    }
    return *this;
  }
  DynBitset &operator=(DynBitset &&O) noexcept {
    if (this == &O)
      return *this;
    if (O.onHeap()) {
      release();
      take(O);
    } else {
      // Inline words always fit, whichever storage this set has.
      NumBits = O.NumBits;
      NumWords = O.NumWords;
      std::copy_n(O.Data, NumWords, Data);
    }
    return *this;
  }
  ~DynBitset() { release(); }

  size_t size() const { return NumBits; }
  /// Whether the words live on the heap (more than InlineWords of them).
  bool onHeap() const { return Data != Inline; }

  bool test(size_t I) const {
    assert(I < NumBits);
    return (Data[I >> 6] >> (I & 63)) & 1;
  }

  void set(size_t I) {
    assert(I < NumBits);
    Data[I >> 6] |= uint64_t(1) << (I & 63);
  }

  void reset(size_t I) {
    assert(I < NumBits);
    Data[I >> 6] &= ~(uint64_t(1) << (I & 63));
  }

  void clear() { std::fill_n(Data, NumWords, uint64_t(0)); }

  /// Set union; returns true if this set changed.
  bool unionWith(const DynBitset &O) {
    assert(NumBits == O.NumBits);
    bool Changed = false;
    for (size_t I = 0; I != NumWords; ++I) {
      uint64_t Before = Data[I];
      Data[I] |= O.Data[I];
      Changed |= Data[I] != Before;
    }
    return Changed;
  }

  /// Adds A − B to this set; returns true if this set changed.
  bool unionWithDifference(const DynBitset &A, const DynBitset &B) {
    assert(NumBits == A.NumBits && NumBits == B.NumBits);
    bool Changed = false;
    for (size_t I = 0; I != NumWords; ++I) {
      uint64_t Before = Data[I];
      Data[I] |= A.Data[I] & ~B.Data[I];
      Changed |= Data[I] != Before;
    }
    return Changed;
  }

  bool operator==(const DynBitset &O) const {
    return NumBits == O.NumBits && std::equal(Data, Data + NumWords, O.Data);
  }

  /// Iterates set bits in ascending order.
  template <typename Fn> void forEach(Fn &&F) const {
    for (size_t WI = 0; WI != NumWords; ++WI) {
      uint64_t W = Data[WI];
      while (W) {
        unsigned Bit = static_cast<unsigned>(__builtin_ctzll(W));
        F(WI * 64 + Bit);
        W &= W - 1;
      }
    }
  }

  size_t count() const {
    size_t N = 0;
    for (size_t WI = 0; WI != NumWords; ++WI)
      N += static_cast<size_t>(__builtin_popcountll(Data[WI]));
    return N;
  }

private:
  /// Makes room for \p Words words, keeping a heap buffer that is large
  /// enough; the words' contents are left to the caller.
  void reserveWords(size_t Words) {
    if (Words > Capacity) {
      release();
      Data = new uint64_t[Words];
      Capacity = Words;
    }
    NumWords = Words;
  }
  void release() {
    if (onHeap())
      delete[] Data;
    Data = Inline;
    Capacity = InlineWords;
  }
  /// Moves \p O's contents into this set, which holds no heap buffer.
  void take(DynBitset &O) {
    NumBits = O.NumBits;
    NumWords = O.NumWords;
    if (O.onHeap()) {
      Data = O.Data;
      Capacity = O.Capacity;
      O.Data = O.Inline;
      O.Capacity = InlineWords;
    } else {
      std::copy_n(O.Inline, NumWords, Inline);
    }
    O.NumBits = O.NumWords = 0;
  }

  size_t NumBits = 0;
  size_t NumWords = 0;
  size_t Capacity = InlineWords;
  uint64_t *Data = Inline;
  uint64_t Inline[InlineWords] = {};
};

} // namespace mgc

#endif // MGC_SUPPORT_DYNBITSET_H
