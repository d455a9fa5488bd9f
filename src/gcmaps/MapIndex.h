//===- gcmaps/MapIndex.h - Load-time gc-map acceleration -------*- C++ -*-===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The decode acceleration layer on top of the operational δ-main blobs.
///
/// The reference decoder (`decodeGcPoint`) re-walks a function's whole blob
/// from byte 0 for every query: it re-expands the ground table and replays
/// every predecessor record to resolve identical-to-previous chains — the
/// §6.3 decode cost, paid per *frame* during stack tracing.  Real runtimes
/// amortize exactly this with side tables built once at load time; this
/// file provides two such layers:
///
///  - `FuncMapIndex`: built once per function at program-install time.  It
///    holds the pre-expanded ground table (run-lengths unrolled, locations
///    decoded) and, per gc-point, the resolved blob offset of each table
///    kind's payload with same-as-previous chains collapsed, so decoding
///    ordinal N reads at most one delta bitmap, one register word, and one
///    derivations record — O(frame tables), independent of N.
///
///  - `DecodedPointCache`: a small direct-mapped cache of fully decoded
///    gc-points keyed by (function, ordinal).  Collections hit the same
///    handful of gc-points over and over (destroy's hot loop especially),
///    so steady-state lookups return a `const GcPointInfo &` with zero
///    decoding and zero allocation.
///
/// The blobs themselves are unchanged: the reference decoder remains the
/// measured §6.3 artifact.  `PointDecoder` is the one place that chooses
/// between the paths, and its cross-check asserts the accelerated decode
/// agrees with the reference bit for bit; every stack walk decodes through
/// one (vm/FrameWalk.h).
///
//===----------------------------------------------------------------------===//

#ifndef MGC_GCMAPS_MAPINDEX_H
#define MGC_GCMAPS_MAPINDEX_H

#include "gcmaps/GcTables.h"

#include <cassert>
#include <cstdint>
#include <vector>

namespace mgc {
namespace gcmaps {

/// Sentinel payload offset: the table is empty at this gc-point.
constexpr uint32_t EmptyPayload = 0xFFFFFFFFu;

/// Resolved payload offsets for one gc-point.  Same-as-previous chains are
/// collapsed at build time: each field points directly at the record that
/// actually carries the bytes (which may belong to an earlier ordinal).
struct PointIndexEntry {
  uint32_t DescOff = 0;            ///< Offset of this point's descriptor byte.
  uint32_t DeltaOff = EmptyPayload; ///< Liveness bitmap bytes.
  uint32_t RegOff = EmptyPayload;   ///< Packed register mask.
  uint32_t DerivOff = EmptyPayload; ///< Packed derivations record.
};

/// Per-function side index, built once at program-install time.
struct FuncMapIndex {
  /// Ground table with run-length groups unrolled and entries decoded.
  std::vector<vm::Location> Ground;
  std::vector<PointIndexEntry> Points;
  /// Bytes per delta bitmap: ceil(Ground.size() / 8).
  uint32_t DeltaBytes = 0;
  /// Offset of the first gc-point record (end of the encoded ground table).
  uint32_t FirstPointOff = 0;
};

/// Builds the side index for \p Maps.  One forward walk of the blob.
FuncMapIndex buildFuncMapIndex(const EncodedFuncMaps &Maps);

/// Decodes gc-point \p Ordinal through the index, filling \p Out.  The
/// output vectors are cleared but keep their capacity, so repeated decodes
/// into the same GcPointInfo stop allocating once warm.  When \p
/// BytesSkipped is non-null it is incremented by the number of blob bytes
/// the reference decoder would have traversed but this decode did not.
void decodeGcPointIndexed(const EncodedFuncMaps &Maps,
                          const FuncMapIndex &Index, unsigned Ordinal,
                          GcPointInfo &Out,
                          uint64_t *BytesSkipped = nullptr);

/// The alternative of \p Rec selected by \p PathValue, or null.  Alts are
/// encoded sorted by PathValue, so this is a binary search.
const DerivationAlt *findDerivationAlt(const DerivationRecord &Rec,
                                       int32_t PathValue);

//===----------------------------------------------------------------------===//
// Decoded-point cache
//===----------------------------------------------------------------------===//

/// Direct-mapped cache of decoded gc-points keyed by (function, ordinal).
class DecodedPointCache {
public:
  /// \p SizePow2 must be a power of two (number of cache lines).
  explicit DecodedPointCache(unsigned SizePow2 = 64)
      : Lines(SizePow2), Mask(SizePow2 - 1) {}

  /// The cached decode of (\p Func, \p Ordinal), or null on a miss.
  const GcPointInfo *lookup(uint32_t Func, uint32_t Ordinal) {
    Line &L = Lines[slot(Func, Ordinal)];
    if (L.Func == Func && L.Ordinal == Ordinal) {
      ++Hits;
      return &L.Info;
    }
    ++Misses;
    return nullptr;
  }

  /// Claims the cache line for (\p Func, \p Ordinal) and returns its info
  /// slot for the caller to fill (evicting whatever was there; the slot's
  /// vectors keep their capacity across evictions).
  GcPointInfo &insert(uint32_t Func, uint32_t Ordinal) {
    Line &L = Lines[slot(Func, Ordinal)];
    L.Func = Func;
    L.Ordinal = Ordinal;
    return L.Info;
  }

  uint64_t hits() const { return Hits; }
  uint64_t misses() const { return Misses; }

private:
  struct Line {
    uint32_t Func = 0xFFFFFFFFu;
    uint32_t Ordinal = 0xFFFFFFFFu;
    GcPointInfo Info;
  };

  size_t slot(uint32_t Func, uint32_t Ordinal) const {
    // Cheap mix; functions have few gc-points so spread mostly by ordinal.
    return (Func * 0x9E3779B9u + Ordinal) & Mask;
  }

  std::vector<Line> Lines;
  uint32_t Mask;
  uint64_t Hits = 0;
  uint64_t Misses = 0;
};

//===----------------------------------------------------------------------===//
// The decode path
//===----------------------------------------------------------------------===//

/// Decodes gc-points for one stack-walk user (the collector, snapshot
/// capture, the profiler), each with its own instance, cache and counters.
/// The path is chosen once, at construction: the load-time index plus a
/// decoded-point cache, or the reference walk-from-start decoder
/// (`--no-map-index`).  With cross-checking on (`--gc-crosscheck`), every
/// indexed decode, cached or not, is compared with the reference decoder,
/// and a disagreement aborts the process.
class PointDecoder {
public:
  /// \p CacheLines (a power of two) sizes the cache of the indexed path.
  PointDecoder(bool UseIndex, bool CrossCheck, unsigned CacheLines = 64)
      : UseIndex(UseIndex), CrossCheck(CrossCheck),
        Cache(UseIndex ? CacheLines : 1) {}

  /// The decoded tables of gc-point \p Ordinal of function \p Func, whose
  /// tables are \p Maps[Func] and load-time index \p Indexes[Func] (read
  /// only by the indexed path).  Valid until the next decode.
  const GcPointInfo &decode(const std::vector<EncodedFuncMaps> &Maps,
                            const std::vector<FuncMapIndex> &Indexes,
                            unsigned Func, unsigned Ordinal) {
    if (!UseIndex) {
      Ref = decodeGcPoint(Maps[Func], Ordinal);
      return Ref;
    }
    const GcPointInfo *Info = Cache.lookup(Func, Ordinal);
    if (!Info) {
      assert(Func < Indexes.size() && "program installed without indexes");
      GcPointInfo &Slot = Cache.insert(Func, Ordinal);
      decodeGcPointIndexed(Maps[Func], Indexes[Func], Ordinal, Slot,
                           &BytesSkipped);
      Info = &Slot;
    }
    if (CrossCheck)
      crossCheck(*Info, Maps[Func], Func, Ordinal);
    return *Info;
  }

  /// Cache hits and misses; zero on the reference path.
  uint64_t hits() const { return Cache.hits(); }
  uint64_t misses() const { return Cache.misses(); }
  /// Blob bytes the reference decoder would have read and the index did
  /// not.
  uint64_t bytesSkipped() const { return BytesSkipped; }

private:
  /// Aborts unless \p Info equals the reference decode.
  static void crossCheck(const GcPointInfo &Info,
                         const EncodedFuncMaps &Maps, unsigned Func,
                         unsigned Ordinal);

  bool UseIndex;
  bool CrossCheck;
  DecodedPointCache Cache;
  GcPointInfo Ref; ///< The reference path's result.
  uint64_t BytesSkipped = 0;
};

//===----------------------------------------------------------------------===//
// Cross-checking
//===----------------------------------------------------------------------===//

bool operator==(const BaseRef &A, const BaseRef &B);
bool operator==(const DerivationAlt &A, const DerivationAlt &B);
bool operator==(const DerivationRecord &A, const DerivationRecord &B);
bool operator==(const GcPointInfo &A, const GcPointInfo &B);

} // namespace gcmaps
} // namespace mgc

#endif // MGC_GCMAPS_MAPINDEX_H
