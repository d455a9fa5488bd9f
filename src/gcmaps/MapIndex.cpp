//===- gcmaps/MapIndex.cpp ------------------------------------------------===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//

#include "gcmaps/MapIndex.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

using namespace mgc;
using namespace mgc::gcmaps;
using namespace mgc::vm;

//===----------------------------------------------------------------------===//
// Index construction
//===----------------------------------------------------------------------===//

FuncMapIndex gcmaps::buildFuncMapIndex(const EncodedFuncMaps &Maps) {
  FuncMapIndex Index;
  if (Maps.Blob.empty())
    return Index; // No tables (compiled without gc maps).

  PackedReader R(Maps.Blob);

  // Ground table: unroll run-length groups and decode each entry once.
  int32_t GroupCount = R.readPackedWord();
  Index.Ground.reserve(Maps.GroundCount);
  for (int32_t G = 0; G != GroupCount; ++G) {
    int32_t Entry = R.readPackedWord();
    int32_t Start = Entry >> 1;
    int32_t Count = (Entry & 1) ? R.readPackedWord() : 1;
    for (int32_t K = 0; K != Count; ++K)
      Index.Ground.push_back(decodeLocation(Start + 4 * K));
  }
  Index.DeltaBytes = static_cast<uint32_t>((Index.Ground.size() + 7) / 8);
  Index.FirstPointOff = static_cast<uint32_t>(R.position());

  // One forward walk over the gc-point records, collapsing same-as-previous
  // chains: a Same flag copies the *resolved* offset of the previous point,
  // so every entry lands directly on a payload (or EmptyPayload).
  Index.Points.reserve(Maps.RetPCs.size());
  const PointIndexEntry *Prev = nullptr;
  for (size_t P = 0; P != Maps.RetPCs.size(); ++P) {
    PointIndexEntry E;
    E.DescOff = static_cast<uint32_t>(R.position());
    uint8_t Desc = R.readByte();

    if (Desc & DeltaEmpty) {
      E.DeltaOff = EmptyPayload;
    } else if (Desc & DeltaSame) {
      assert(Prev && "same-as-previous at the first gc-point");
      E.DeltaOff = Prev->DeltaOff;
    } else {
      E.DeltaOff = static_cast<uint32_t>(R.position());
      R.seek(R.position() + Index.DeltaBytes);
    }

    if (Desc & RegEmpty) {
      E.RegOff = EmptyPayload;
    } else if (Desc & RegSame) {
      assert(Prev && "same-as-previous at the first gc-point");
      E.RegOff = Prev->RegOff;
    } else {
      E.RegOff = static_cast<uint32_t>(R.position());
      (void)R.readPackedWord();
    }

    if (Desc & DerivEmpty) {
      E.DerivOff = EmptyPayload;
    } else if (Desc & DerivSame) {
      assert(Prev && "same-as-previous at the first gc-point");
      E.DerivOff = Prev->DerivOff;
    } else {
      E.DerivOff = static_cast<uint32_t>(R.position());
      skipDerivationRecords(R);
    }

    Index.Points.push_back(E);
    Prev = &Index.Points.back();
  }
  return Index;
}

//===----------------------------------------------------------------------===//
// Indexed decoding
//===----------------------------------------------------------------------===//

void gcmaps::decodeGcPointIndexed(const EncodedFuncMaps &Maps,
                                  const FuncMapIndex &Index, unsigned Ordinal,
                                  GcPointInfo &Out, uint64_t *BytesSkipped) {
  assert(Ordinal < Index.Points.size() && "gc-point ordinal out of range");
  const PointIndexEntry &E = Index.Points[Ordinal];
  Out.LiveSlots.clear();
  Out.RegMask = 0;
  Out.Derivs.clear();

  uint64_t BytesRead = 0;
  if (E.DeltaOff != EmptyPayload) {
    const uint8_t *Bits = Maps.Blob.data() + E.DeltaOff;
    for (size_t I = 0, N = Index.Ground.size(); I != N; ++I)
      if (Bits[I / 8] & (1u << (I % 8)))
        Out.LiveSlots.push_back(Index.Ground[I]);
    BytesRead += Index.DeltaBytes;
  }
  if (E.RegOff != EmptyPayload) {
    PackedReader R(Maps.Blob);
    R.seek(E.RegOff);
    Out.RegMask = static_cast<uint16_t>(R.readPackedWord());
    BytesRead += R.position() - E.RegOff;
  }
  if (E.DerivOff != EmptyPayload) {
    PackedReader R(Maps.Blob);
    R.seek(E.DerivOff);
    Out.Derivs = readDerivationRecords(R);
    BytesRead += R.position() - E.DerivOff;
  }

  if (BytesSkipped) {
    // The reference decoder traverses the blob from byte 0 through the end
    // of this ordinal's record; the indexed decode read only the payloads.
    uint64_t RefBytes = Ordinal + 1 < Index.Points.size()
                            ? Index.Points[Ordinal + 1].DescOff
                            : Maps.Blob.size();
    *BytesSkipped += RefBytes - BytesRead;
  }
}

const DerivationAlt *gcmaps::findDerivationAlt(const DerivationRecord &Rec,
                                               int32_t PathValue) {
  auto It = std::lower_bound(
      Rec.Alts.begin(), Rec.Alts.end(), PathValue,
      [](const DerivationAlt &A, int32_t V) { return A.PathValue < V; });
  if (It == Rec.Alts.end() || It->PathValue != PathValue)
    return nullptr;
  return &*It;
}

//===----------------------------------------------------------------------===//
// The decode path
//===----------------------------------------------------------------------===//

void PointDecoder::crossCheck(const GcPointInfo &Info,
                              const EncodedFuncMaps &Maps, unsigned Func,
                              unsigned Ordinal) {
  if (Info == decodeGcPoint(Maps, Ordinal))
    return;
  std::fprintf(stderr,
               "gc cross-check: accelerated decode of func %u point %u "
               "disagrees with the reference decoder\n",
               Func, Ordinal);
  std::abort();
}

//===----------------------------------------------------------------------===//
// Cross-checking
//===----------------------------------------------------------------------===//

bool gcmaps::operator==(const BaseRef &A, const BaseRef &B) {
  return A.Loc == B.Loc && A.Coeff == B.Coeff;
}

bool gcmaps::operator==(const DerivationAlt &A, const DerivationAlt &B) {
  return A.PathValue == B.PathValue && A.Bases == B.Bases;
}

bool gcmaps::operator==(const DerivationRecord &A, const DerivationRecord &B) {
  return A.Target == B.Target && A.Ambiguous == B.Ambiguous &&
         A.Bases == B.Bases && A.PathVar == B.PathVar && A.Alts == B.Alts;
}

bool gcmaps::operator==(const GcPointInfo &A, const GcPointInfo &B) {
  return A.LiveSlots == B.LiveSlots && A.RegMask == B.RegMask &&
         A.Derivs == B.Derivs;
}
