//===- tests/GcMapsTest.cpp - Table encoding and decoding ------------------===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//

#include "gcmaps/GcTables.h"
#include "gcmaps/MapIndex.h"

#include <gtest/gtest.h>

using namespace mgc;
using namespace mgc::gcmaps;
using namespace mgc::vm;

namespace {

/// True when the indexed decode of \p Ordinal equals the reference
/// `decodeGcPoint` result.
bool crossCheckPoint(const EncodedFuncMaps &Maps, const FuncMapIndex &Index,
                     unsigned Ordinal) {
  GcPointInfo Fast;
  decodeGcPointIndexed(Maps, Index, Ordinal, Fast);
  return Fast == decodeGcPoint(Maps, Ordinal);
}

//===----------------------------------------------------------------------===//
// Figure 4: location encoding
//===----------------------------------------------------------------------===//

TEST(GcMaps, LocationEncodingFig4) {
  // Low two bits select the base register; the rest is the word offset.
  EXPECT_EQ(encodeLocation(Location::fpSlot(5)), (5 << 2) | 0);
  EXPECT_EQ(encodeLocation(Location::apSlot(2)), (2 << 2) | 2);
  EXPECT_EQ(encodeLocation(Location::reg(7)), (7 << 2) | 3);

  for (int Off : {0, 1, 7, 31, 100}) {
    EXPECT_EQ(decodeLocation(encodeLocation(Location::fpSlot(Off))),
              Location::fpSlot(Off));
    EXPECT_EQ(decodeLocation(encodeLocation(Location::apSlot(Off))),
              Location::apSlot(Off));
  }
  for (int R = 0; R != 16; ++R)
    EXPECT_EQ(decodeLocation(encodeLocation(Location::reg(R))),
              Location::reg(R));
}

TEST(GcMaps, SmallGroundEntriesFitOneByte) {
  // Fig. 4's point: most entries pack into a single byte (offset < 16
  // words leaves the encoded value under 64).
  EXPECT_EQ(packedSize(encodeLocation(Location::fpSlot(10))), 1u);
  EXPECT_EQ(packedSize(encodeLocation(Location::apSlot(3))), 1u);
  EXPECT_EQ(packedSize(encodeLocation(Location::fpSlot(100))), 2u);
}

//===----------------------------------------------------------------------===//
// Encode / decode round trips
//===----------------------------------------------------------------------===//

FuncTableData makeSampleData() {
  FuncTableData Data;
  GcPointData P0;
  P0.RetPC = 10;
  P0.LiveSlots = {Location::fpSlot(3), Location::apSlot(0)};
  P0.RegMask = 0b101;
  DerivationRecord R;
  R.Target = Location::reg(2);
  R.Bases = {{Location::fpSlot(3), 1}, {Location::apSlot(0), -1}};
  P0.Derivs.push_back(R);
  Data.Points.push_back(P0);

  GcPointData P1 = P0; // Identical: exercises "same as previous".
  P1.RetPC = 14;
  Data.Points.push_back(P1);

  GcPointData P2;
  P2.RetPC = 20; // Everything empty.
  Data.Points.push_back(P2);

  GcPointData P3;
  P3.RetPC = 33;
  P3.LiveSlots = {Location::fpSlot(3)};
  Data.Points.push_back(P3);
  return Data;
}

TEST(GcMaps, RoundTripAllPoints) {
  SchemeSizes Sizes;
  TableStats Stats;
  FuncTableData Data = makeSampleData();
  EncodedFuncMaps Maps = encodeFunction(Data, Sizes, Stats);

  ASSERT_EQ(Maps.RetPCs.size(), 4u);
  EXPECT_EQ(findGcPoint(Maps, 10), 0);
  EXPECT_EQ(findGcPoint(Maps, 14), 1);
  EXPECT_EQ(findGcPoint(Maps, 20), 2);
  EXPECT_EQ(findGcPoint(Maps, 33), 3);
  EXPECT_EQ(findGcPoint(Maps, 11), -1);

  for (unsigned P = 0; P != 4; ++P) {
    GcPointInfo Info = decodeGcPoint(Maps, P);
    const GcPointData &Want = Data.Points[P];
    // Live slot sets agree (order may differ; ours preserves ground
    // order).
    std::vector<Location> Got = Info.LiveSlots;
    std::vector<Location> Expect = Want.LiveSlots;
    std::sort(Got.begin(), Got.end());
    std::sort(Expect.begin(), Expect.end());
    EXPECT_EQ(Got, Expect) << "point " << P;
    EXPECT_EQ(Info.RegMask, Want.RegMask) << "point " << P;
    ASSERT_EQ(Info.Derivs.size(), Want.Derivs.size()) << "point " << P;
    for (size_t K = 0; K != Info.Derivs.size(); ++K) {
      EXPECT_EQ(Info.Derivs[K].Target, Want.Derivs[K].Target);
      ASSERT_EQ(Info.Derivs[K].Bases.size(), Want.Derivs[K].Bases.size());
      for (size_t B = 0; B != Info.Derivs[K].Bases.size(); ++B) {
        EXPECT_EQ(Info.Derivs[K].Bases[B].Loc, Want.Derivs[K].Bases[B].Loc);
        EXPECT_EQ(Info.Derivs[K].Bases[B].Coeff,
                  Want.Derivs[K].Bases[B].Coeff);
      }
    }
  }
}

TEST(GcMaps, AmbiguousRecordRoundTrip) {
  FuncTableData Data;
  GcPointData P;
  P.RetPC = 5;
  DerivationRecord R;
  R.Target = Location::fpSlot(7);
  R.Ambiguous = true;
  R.PathVar = Location::fpSlot(9);
  R.Alts = {{0, {{Location::apSlot(0), 1}}},
            {1, {{Location::apSlot(1), 1}}},
            {7, {{Location::apSlot(0), 1}, {Location::apSlot(1), -1}}}};
  P.Derivs.push_back(R);
  Data.Points.push_back(P);

  SchemeSizes Sizes;
  TableStats Stats;
  EncodedFuncMaps Maps = encodeFunction(Data, Sizes, Stats);
  GcPointInfo Info = decodeGcPoint(Maps, 0);
  ASSERT_EQ(Info.Derivs.size(), 1u);
  const DerivationRecord &Got = Info.Derivs[0];
  EXPECT_TRUE(Got.Ambiguous);
  EXPECT_EQ(Got.PathVar, Location::fpSlot(9));
  ASSERT_EQ(Got.Alts.size(), 3u);
  EXPECT_EQ(Got.Alts[0].PathValue, 0);
  EXPECT_EQ(Got.Alts[2].PathValue, 7);
  ASSERT_EQ(Got.Alts[2].Bases.size(), 2u);
  EXPECT_EQ(Got.Alts[2].Bases[1].Coeff, -1);
}

TEST(GcMaps, CoefficientMagnitudeEncodedByRepetition) {
  FuncTableData Data;
  GcPointData P;
  P.RetPC = 1;
  DerivationRecord R;
  R.Target = Location::reg(0);
  R.Bases = {{Location::fpSlot(1), 2}}; // +2 * base
  P.Derivs.push_back(R);
  Data.Points.push_back(P);
  SchemeSizes Sizes;
  TableStats Stats;
  EncodedFuncMaps Maps = encodeFunction(Data, Sizes, Stats);
  GcPointInfo Info = decodeGcPoint(Maps, 0);
  ASSERT_EQ(Info.Derivs.size(), 1u);
  int Total = 0;
  for (const BaseRef &B : Info.Derivs[0].Bases) {
    EXPECT_EQ(B.Loc, Location::fpSlot(1));
    Total += B.Coeff;
  }
  EXPECT_EQ(Total, 2);
}

//===----------------------------------------------------------------------===//
// Compression behavior (the Table 2 machinery)
//===----------------------------------------------------------------------===//

TEST(GcMaps, PreviousCompressionShrinksIdenticalRuns) {
  // Many identical gc-points: with Previous, all but the first cost one
  // descriptor byte each.
  FuncTableData Data;
  for (unsigned I = 0; I != 20; ++I) {
    GcPointData P;
    P.RetPC = I * 3 + 1;
    P.LiveSlots = {Location::fpSlot(2), Location::fpSlot(4),
                   Location::fpSlot(6)};
    P.RegMask = 0b11;
    Data.Points.push_back(P);
  }
  SchemeSizes Sizes;
  TableStats Stats;
  EncodedFuncMaps Maps = encodeFunction(Data, Sizes, Stats);

  EXPECT_LT(Sizes.DeltaPP, Sizes.DeltaPack)
      << "previous-compression must help on identical runs";
  EXPECT_LT(Sizes.DeltaPack, Sizes.DeltaPlain);
  EXPECT_LT(Sizes.FullPack, Sizes.FullPlain);
  // Only the first point emits tables.
  EXPECT_EQ(Stats.NDEL, 1u);
  EXPECT_EQ(Stats.NREG, 1u);
  EXPECT_EQ(Stats.NGC, 20u);
  // All 20 points decode to the same content.
  for (unsigned P = 0; P != 20; ++P) {
    GcPointInfo Info = decodeGcPoint(Maps, P);
    EXPECT_EQ(Info.LiveSlots.size(), 3u);
    EXPECT_EQ(Info.RegMask, 0b11);
  }
}

TEST(GcMaps, EmptyTablesCostOnlyDescriptor) {
  FuncTableData Data;
  for (unsigned I = 0; I != 10; ++I) {
    GcPointData P;
    P.RetPC = I + 1;
    Data.Points.push_back(P);
  }
  SchemeSizes Sizes;
  TableStats Stats;
  EncodedFuncMaps Maps = encodeFunction(Data, Sizes, Stats);
  // Blob: 1 byte ground count + 10 descriptor bytes.
  EXPECT_EQ(Maps.Blob.size(), 11u);
  EXPECT_EQ(Stats.NGC, 0u);
  EXPECT_EQ(Stats.NPTRS, 0u);
}

TEST(GcMaps, StatsCountPointerHomes) {
  FuncTableData Data = makeSampleData();
  SchemeSizes Sizes;
  TableStats Stats;
  encodeFunction(Data, Sizes, Stats);
  // Ground entries: FP+3, AP+0 -> 2; register union 0b101 -> 2 regs.
  EXPECT_EQ(Stats.NPTRS, 4u);
  // P0, P1, P3 have non-empty tables; P2 is entirely empty.
  EXPECT_EQ(Stats.NGC, 3u);
}

TEST(GcMaps, GroundTableRunLengthCompression) {
  // §5.2's array-pattern design: a frame array of pointers becomes one
  // (start, count) group instead of N entries.
  FuncTableData Wide, Narrow;
  GcPointData P;
  P.RetPC = 1;
  for (int K = 0; K != 24; ++K)
    P.LiveSlots.push_back(Location::fpSlot(4 + K)); // Consecutive.
  Wide.Points.push_back(P);
  GcPointData Q;
  Q.RetPC = 1;
  for (int K = 0; K != 24; ++K)
    Q.LiveSlots.push_back(Location::fpSlot(4 + 2 * K)); // Gaps: no runs.
  Narrow.Points.push_back(Q);

  SchemeSizes SW, SN;
  TableStats TW, TN;
  EncodedFuncMaps MW = encodeFunction(Wide, SW, TW);
  EncodedFuncMaps MN = encodeFunction(Narrow, SN, TN);
  EXPECT_LT(MW.Blob.size(), MN.Blob.size())
      << "24 consecutive slots must encode as one run";
  EXPECT_EQ(TW.NPTRS, 24u);
  EXPECT_EQ(TN.NPTRS, 24u);

  // Both decode back to their full entry lists.
  GcPointInfo IW = decodeGcPoint(MW, 0);
  EXPECT_EQ(IW.LiveSlots.size(), 24u);
  for (int K = 0; K != 24; ++K)
    EXPECT_EQ(IW.LiveSlots[static_cast<size_t>(K)], Location::fpSlot(4 + K));
  GcPointInfo IN = decodeGcPoint(MN, 0);
  EXPECT_EQ(IN.LiveSlots.size(), 24u);
}

TEST(GcMaps, MixedRunsAndSinglesRoundTrip) {
  FuncTableData Data;
  GcPointData P;
  P.RetPC = 9;
  // A register escape, two singles, and a 3-run, deliberately unsorted.
  P.LiveSlots = {Location::fpSlot(9), Location::apSlot(1),
                 Location::fpSlot(3), Location::fpSlot(4),
                 Location::fpSlot(5), Location::fpSlot(20)};
  Data.Points.push_back(P);
  SchemeSizes S;
  TableStats T;
  EncodedFuncMaps M = encodeFunction(Data, S, T);
  GcPointInfo I = decodeGcPoint(M, 0);
  std::vector<Location> Got = I.LiveSlots;
  std::vector<Location> Want = P.LiveSlots;
  std::sort(Got.begin(), Got.end());
  std::sort(Want.begin(), Want.end());
  EXPECT_EQ(Got, Want);
}

TEST(GcMaps, PcMapAccountsTwoBytesPerPoint) {
  FuncTableData Data = makeSampleData();
  SchemeSizes Sizes;
  TableStats Stats;
  encodeFunction(Data, Sizes, Stats);
  EXPECT_EQ(Sizes.PcMapBytes, 4u + 2u * 4u);
}

//===----------------------------------------------------------------------===//
// Load-time index + decoded-point cache (the acceleration layer)
//===----------------------------------------------------------------------===//

TEST(MapIndex, IndexedDecodeMatchesReference) {
  SchemeSizes Sizes;
  TableStats Stats;
  FuncTableData Data = makeSampleData();
  EncodedFuncMaps Maps = encodeFunction(Data, Sizes, Stats);
  FuncMapIndex Index = buildFuncMapIndex(Maps);

  ASSERT_EQ(Index.Points.size(), 4u);
  EXPECT_EQ(Index.Ground.size(), Maps.GroundCount);
  for (unsigned P = 0; P != 4; ++P)
    EXPECT_TRUE(crossCheckPoint(Maps, Index, P)) << "point " << P;
}

TEST(MapIndex, SameAsPreviousChainsCollapseToOneHop) {
  // 20 identical points: the reference decoder replays the whole chain;
  // the index resolves every ordinal to point 0's payload offsets.
  FuncTableData Data;
  for (unsigned I = 0; I != 20; ++I) {
    GcPointData P;
    P.RetPC = I * 3 + 1;
    P.LiveSlots = {Location::fpSlot(2), Location::fpSlot(4)};
    P.RegMask = 0b11;
    DerivationRecord R;
    R.Target = Location::reg(2);
    R.Bases = {{Location::fpSlot(2), 1}};
    P.Derivs.push_back(R);
    Data.Points.push_back(P);
  }
  SchemeSizes Sizes;
  TableStats Stats;
  EncodedFuncMaps Maps = encodeFunction(Data, Sizes, Stats);
  FuncMapIndex Index = buildFuncMapIndex(Maps);

  ASSERT_EQ(Index.Points.size(), 20u);
  for (unsigned P = 1; P != 20; ++P) {
    EXPECT_EQ(Index.Points[P].DeltaOff, Index.Points[0].DeltaOff);
    EXPECT_EQ(Index.Points[P].RegOff, Index.Points[0].RegOff);
    EXPECT_EQ(Index.Points[P].DerivOff, Index.Points[0].DerivOff);
    EXPECT_TRUE(crossCheckPoint(Maps, Index, P));
  }
}

TEST(MapIndex, EmptyTablesIndexAsEmptyPayloads) {
  FuncTableData Data;
  for (unsigned I = 0; I != 5; ++I) {
    GcPointData P;
    P.RetPC = I + 1;
    Data.Points.push_back(P);
  }
  SchemeSizes Sizes;
  TableStats Stats;
  EncodedFuncMaps Maps = encodeFunction(Data, Sizes, Stats);
  FuncMapIndex Index = buildFuncMapIndex(Maps);
  for (const PointIndexEntry &E : Index.Points) {
    EXPECT_EQ(E.DeltaOff, EmptyPayload);
    EXPECT_EQ(E.RegOff, EmptyPayload);
    EXPECT_EQ(E.DerivOff, EmptyPayload);
  }
  for (unsigned P = 0; P != 5; ++P)
    EXPECT_TRUE(crossCheckPoint(Maps, Index, P));

  // A function compiled without tables has no blob at all.
  EncodedFuncMaps NoTables;
  FuncMapIndex EmptyIndex = buildFuncMapIndex(NoTables);
  EXPECT_TRUE(EmptyIndex.Points.empty());
  EXPECT_TRUE(EmptyIndex.Ground.empty());
}

TEST(MapIndex, IndexedDecodeSkipsChainBytes) {
  FuncTableData Data = makeSampleData();
  SchemeSizes Sizes;
  TableStats Stats;
  EncodedFuncMaps Maps = encodeFunction(Data, Sizes, Stats);
  FuncMapIndex Index = buildFuncMapIndex(Maps);

  // The last ordinal: the reference decoder walks the whole blob; the
  // indexed decode reads only this point's payloads.
  GcPointInfo Info;
  uint64_t Skipped = 0;
  decodeGcPointIndexed(Maps, Index, 3, Info, &Skipped);
  EXPECT_GT(Skipped, 0u);
  EXPECT_LT(Skipped, Maps.Blob.size());
}

TEST(MapIndex, DecodedPointCacheHitsAndEvicts) {
  SchemeSizes Sizes;
  TableStats Stats;
  FuncTableData Data = makeSampleData();
  EncodedFuncMaps Maps = encodeFunction(Data, Sizes, Stats);
  FuncMapIndex Index = buildFuncMapIndex(Maps);

  DecodedPointCache Cache(4);
  EXPECT_EQ(Cache.lookup(0, 0), nullptr); // Cold miss.
  decodeGcPointIndexed(Maps, Index, 0, Cache.insert(0, 0));
  const GcPointInfo *Hit = Cache.lookup(0, 0);
  ASSERT_NE(Hit, nullptr);
  EXPECT_TRUE(*Hit == decodeGcPoint(Maps, 0));
  EXPECT_EQ(Cache.hits(), 1u);
  EXPECT_EQ(Cache.misses(), 1u);

  // Direct-mapped: a colliding (func, ordinal) evicts, and a re-inserted
  // entry is correct again.
  decodeGcPointIndexed(Maps, Index, 1, Cache.insert(0, 1));
  decodeGcPointIndexed(Maps, Index, 0, Cache.insert(0, 0));
  const GcPointInfo *Again = Cache.lookup(0, 0);
  ASSERT_NE(Again, nullptr);
  EXPECT_TRUE(*Again == decodeGcPoint(Maps, 0));
}

//===----------------------------------------------------------------------===//
// Ambiguous-derivation selection (alts sorted at encode, binary search)
//===----------------------------------------------------------------------===//

TEST(MapIndex, AltsEncodedSortedAndSelectedByBinarySearch) {
  // >2 alternatives, deliberately emitted out of order: the encoder must
  // sort by path value and findDerivationAlt must select each one.
  FuncTableData Data;
  GcPointData P;
  P.RetPC = 5;
  DerivationRecord R;
  R.Target = Location::fpSlot(7);
  R.Ambiguous = true;
  R.PathVar = Location::fpSlot(9);
  R.Alts = {{7, {{Location::apSlot(3), 1}}},
            {0, {{Location::apSlot(0), 1}}},
            {3, {{Location::apSlot(2), 1}, {Location::apSlot(0), -1}}},
            {1, {{Location::apSlot(1), 1}}}};
  P.Derivs.push_back(R);
  Data.Points.push_back(P);

  SchemeSizes Sizes;
  TableStats Stats;
  EncodedFuncMaps Maps = encodeFunction(Data, Sizes, Stats);
  GcPointInfo Info = decodeGcPoint(Maps, 0);
  ASSERT_EQ(Info.Derivs.size(), 1u);
  const DerivationRecord &Got = Info.Derivs[0];
  ASSERT_EQ(Got.Alts.size(), 4u);
  for (size_t K = 1; K != Got.Alts.size(); ++K)
    EXPECT_LT(Got.Alts[K - 1].PathValue, Got.Alts[K].PathValue)
        << "alts must decode sorted by path value";

  // Every original alternative is found and maps to its own bases.
  for (const DerivationAlt &Want : R.Alts) {
    const DerivationAlt *Found = findDerivationAlt(Got, Want.PathValue);
    ASSERT_NE(Found, nullptr) << "path value " << Want.PathValue;
    EXPECT_EQ(Found->PathValue, Want.PathValue);
    ASSERT_EQ(Found->Bases.size(), Want.Bases.size());
    for (size_t B = 0; B != Want.Bases.size(); ++B) {
      EXPECT_EQ(Found->Bases[B].Loc, Want.Bases[B].Loc);
      EXPECT_EQ(Found->Bases[B].Coeff, Want.Bases[B].Coeff);
    }
  }
  // Path values between/outside the encoded ones select nothing.
  EXPECT_EQ(findDerivationAlt(Got, 2), nullptr);
  EXPECT_EQ(findDerivationAlt(Got, 5), nullptr);
  EXPECT_EQ(findDerivationAlt(Got, -1), nullptr);
  EXPECT_EQ(findDerivationAlt(Got, 100), nullptr);

  // The indexed decode agrees on the ambiguous record too.
  FuncMapIndex Index = buildFuncMapIndex(Maps);
  EXPECT_TRUE(crossCheckPoint(Maps, Index, 0));
}

} // namespace
