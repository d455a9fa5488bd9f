//===- tests/EndToEndTest.cpp - Benchmark programs, full matrix ------------===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "Programs.h"

using namespace mgc;
using namespace mgc::test;

namespace {

struct Config {
  int Program;   ///< Index into programs::All.
  int OptLevel;  ///< 0 or 2.
  bool Stress;
  bool CiscFold;
  bool Split;    ///< Path splitting instead of path variables.
};

std::string configName(const ::testing::TestParamInfo<Config> &Info) {
  const Config &C = Info.param;
  std::string S = programs::All[C.Program].Name;
  S += C.OptLevel ? "_opt" : "_noopt";
  if (C.Stress)
    S += "_stress";
  if (C.CiscFold)
    S += "_cisc";
  if (C.Split)
    S += "_split";
  return S;
}

class BenchmarkMatrix : public ::testing::TestWithParam<Config> {};

TEST_P(BenchmarkMatrix, ProducesExpectedOutput) {
  const Config &C = GetParam();
  const auto &P = programs::All[C.Program];

  driver::CompilerOptions CO;
  CO.OptLevel = C.OptLevel;
  CO.CiscFold = C.CiscFold;
  CO.Mode = C.Split ? driver::Disambiguation::PathSplitting
                    : driver::Disambiguation::PathVariables;

  vm::VMOptions VO;
  VO.GcStress = C.Stress;
  VO.HeapBytes = C.Stress ? (1u << 20) : (48u << 10);
  VO.StackWords = 1u << 20;

  RunResult R = compileAndRun(P.Source, CO, VO);
  ASSERT_TRUE(R.Ok) << P.Name << ": " << R.Error;
  EXPECT_EQ(R.Out, P.Expected) << P.Name;
  // takl allocates only three small lists and legitimately never fills
  // the heap; the other three programs must collect for real.
  if (!C.Stress && std::string(P.Name) != "takl") {
    EXPECT_GT(R.Stats.Collections, 0u)
        << P.Name << ": the heap is sized to force real collections";
  }
}

std::vector<Config> allConfigs() {
  std::vector<Config> Out;
  for (int P = 0; P != 4; ++P)
    for (int Opt : {0, 2})
      for (bool Stress : {false, true})
        for (bool Cisc : {false, true})
          Out.push_back({P, Opt, Stress, Cisc, false});
  // The split mode only differs when ambiguity machinery runs; cover it at
  // -O2 without stress for each program.
  for (int P = 0; P != 4; ++P)
    Out.push_back({P, 2, false, false, true});
  return Out;
}

INSTANTIATE_TEST_SUITE_P(All, BenchmarkMatrix,
                         ::testing::ValuesIn(allConfigs()), configName);

//===----------------------------------------------------------------------===//
// Table sanity on the real programs
//===----------------------------------------------------------------------===//

TEST(EndToEnd, TableStatisticsAreNonTrivial) {
  for (const auto &P : programs::All) {
    driver::CompilerOptions CO;
    CO.OptLevel = 2;
    auto C = driver::compile(P.Source, CO);
    ASSERT_TRUE(C.Prog != nullptr) << P.Name;
    const auto &S = C.Prog->Stats;
    EXPECT_GT(S.NGC, 0u) << P.Name;
    EXPECT_GT(S.NPTRS, 0u) << P.Name;
    EXPECT_GT(S.NDEL + S.NREG + S.NDER, 0u) << P.Name;
    const auto &Z = C.Prog->Sizes;
    EXPECT_GT(Z.DeltaPP, 0u) << P.Name;
    // The compression chain must be monotone.
    EXPECT_LE(Z.DeltaPP, Z.DeltaPack) << P.Name;
    EXPECT_LE(Z.DeltaPack, Z.DeltaPlain) << P.Name;
    EXPECT_LE(Z.DeltaPrev, Z.DeltaPlain) << P.Name;
    EXPECT_LE(Z.DeltaPP, Z.DeltaPrev) << P.Name;
    EXPECT_LE(Z.FullPack, Z.FullPlain) << P.Name;
  }
}

TEST(EndToEnd, PackedTablesAreModestFractionOfCode) {
  // The paper's headline result: packing plus previous-compression brings
  // δ-main tables to a modest fraction of optimized code size (~16% for
  // them; we only require the same order of magnitude and that the
  // uncompressed form is several times larger).
  for (const auto &P : programs::All) {
    driver::CompilerOptions CO;
    CO.OptLevel = 2;
    auto C = driver::compile(P.Source, CO);
    ASSERT_TRUE(C.Prog != nullptr) << P.Name;
    double Code = static_cast<double>(C.Prog->codeSizeBytes());
    double PP = static_cast<double>(C.Prog->Sizes.DeltaPP);
    double Plain = static_cast<double>(C.Prog->Sizes.DeltaPlain);
    EXPECT_LT(PP / Code, 0.60) << P.Name << " PP% = " << 100 * PP / Code;
    EXPECT_GT(Plain / PP, 2.0)
        << P.Name << ": compression should win a factor of a few";
  }
}

TEST(EndToEnd, EveryCallSiteIsAKnownGcPoint) {
  // Decoding must succeed for every recorded gc-point of every function.
  for (const auto &P : programs::All) {
    driver::CompilerOptions CO;
    CO.OptLevel = 2;
    auto C = driver::compile(P.Source, CO);
    ASSERT_TRUE(C.Prog != nullptr);
    for (const auto &Maps : C.Prog->Maps)
      for (unsigned K = 0; K != Maps.RetPCs.size(); ++K) {
        gcmaps::GcPointInfo Info = gcmaps::decodeGcPoint(Maps, K);
        // Locations must decode to something resolvable.
        for (const auto &L : Info.LiveSlots)
          EXPECT_NE(L.K, vm::Location::Kind::None);
        for (const auto &D : Info.Derivs) {
          EXPECT_NE(D.Target.K, vm::Location::Kind::None);
          if (!D.Ambiguous) {
            EXPECT_FALSE(D.Bases.empty());
          }
        }
      }
  }
}

TEST(EndToEnd, OutputsIdenticalAcrossHeapSizes) {
  // Collection timing must never affect results: run destroy with heaps
  // from tight to roomy.
  for (size_t Heap : {48u << 10, 64u << 10, 256u << 10, 4u << 20}) {
    driver::CompilerOptions CO;
    CO.OptLevel = 2;
    vm::VMOptions VO;
    VO.HeapBytes = Heap;
    VO.StackWords = 1u << 20;
    RunResult R = compileAndRun(programs::DestroySource, CO, VO);
    ASSERT_TRUE(R.Ok) << "heap=" << Heap << ": " << R.Error;
    EXPECT_EQ(R.Out, programs::DestroyExpected) << "heap=" << Heap;
  }
}

} // namespace
