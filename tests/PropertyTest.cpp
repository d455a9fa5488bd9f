//===- tests/PropertyTest.cpp - Parameterized invariant sweeps -------------===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Property-style sweeps: generated tree/list workloads run across many
/// (shape × heap size × optimization) combinations; the invariant is that
/// the checksum never depends on when or how often the collector ran.
///
//===----------------------------------------------------------------------===//

#include "CheckedInPrograms.h"
#include "ReferenceSolvers.h"
#include "TestUtil.h"

#include "analysis/Liveness.h"
#include "gcmaps/MapIndex.h"
#include "opt/Passes.h"

using namespace mgc;
using namespace mgc::test;

namespace {

std::string treeProgram(int Branch, int Depth, int Iters) {
  std::string S = R"(
MODULE Sweep;
CONST Branch = )" + std::to_string(Branch) +
                  "; Depth = " + std::to_string(Depth) +
                  "; Iters = " + std::to_string(Iters) + R"(;
TYPE Node = REF NodeRec;
     Kids = REF ARRAY OF Node;
     NodeRec = RECORD value: INTEGER; kids: Kids END;
VAR seed: INTEGER; root: Node;

PROCEDURE Rand(m: INTEGER): INTEGER;
BEGIN
  seed := (seed * 1103515245 + 12345) MOD 2147483648;
  RETURN seed MOD m
END Rand;

PROCEDURE MakeTree(d: INTEGER): Node;
VAR n: Node; i: INTEGER;
BEGIN
  n := NEW(Node);
  n^.value := d + 1;
  IF d > 0 THEN
    n^.kids := NEW(Kids, Branch);
    FOR i := 0 TO Branch - 1 DO
      n^.kids[i] := MakeTree(d - 1)
    END
  END;
  RETURN n
END MakeTree;

PROCEDURE Checksum(n: Node): INTEGER;
VAR i, s: INTEGER;
BEGIN
  IF n = NIL THEN RETURN 7 END;
  s := n^.value;
  IF n^.kids # NIL THEN
    FOR i := 0 TO NUMBER(n^.kids) - 1 DO
      s := s * 31 + Checksum(n^.kids[i])
    END
  END;
  RETURN s MOD 1000000007
END Checksum;

BEGIN
  seed := 42;
  root := MakeTree(Depth);
  FOR i := 1 TO Iters DO
    IF Depth > 1 THEN
      root^.kids[Rand(Branch)] := MakeTree(Depth - 1)
    END
  END;
  PutInt(Checksum(root)); PutLn();
END Sweep.
)";
  return S;
}

struct Shape {
  int Branch, Depth, Iters;
};

class TreeSweep : public ::testing::TestWithParam<Shape> {};

TEST_P(TreeSweep, ChecksumIndependentOfCollector) {
  Shape S = GetParam();
  std::string Src = treeProgram(S.Branch, S.Depth, S.Iters);

  // Reference: roomy heap, no stress, -O0.
  driver::CompilerOptions Ref;
  Ref.OptLevel = 0;
  vm::VMOptions RefVO;
  RefVO.HeapBytes = 8u << 20;
  RefVO.StackWords = 1u << 20;
  RunResult Reference = compileAndRun(Src, Ref, RefVO);
  ASSERT_TRUE(Reference.Ok) << Reference.Error;
  ASSERT_FALSE(Reference.Out.empty());

  for (int Opt : {0, 2}) {
    for (size_t Heap : {128u << 10, 512u << 10}) {
      driver::CompilerOptions CO;
      CO.OptLevel = Opt;
      vm::VMOptions VO;
      VO.HeapBytes = Heap;
      VO.StackWords = 1u << 20;
      RunResult R = compileAndRun(Src, CO, VO);
      ASSERT_TRUE(R.Ok) << "opt=" << Opt << " heap=" << Heap << ": "
                        << R.Error;
      EXPECT_EQ(R.Out, Reference.Out) << "opt=" << Opt << " heap=" << Heap;
    }
    // Stress mode: a collection before every allocation.
    driver::CompilerOptions CO;
    CO.OptLevel = Opt;
    vm::VMOptions VO;
    VO.GcStress = true;
    VO.HeapBytes = 1u << 20;
    VO.StackWords = 1u << 20;
    RunResult R = compileAndRun(Src, CO, VO);
    ASSERT_TRUE(R.Ok) << "stress opt=" << Opt << ": " << R.Error;
    EXPECT_EQ(R.Out, Reference.Out) << "stress opt=" << Opt;
    EXPECT_GT(R.Stats.Collections, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TreeSweep,
    ::testing::Values(Shape{2, 2, 4}, Shape{2, 5, 12}, Shape{3, 4, 8},
                      Shape{4, 3, 10}, Shape{2, 8, 6}, Shape{5, 2, 20},
                      Shape{1, 10, 5}, Shape{3, 6, 3}),
    [](const ::testing::TestParamInfo<Shape> &Info) {
      return "b" + std::to_string(Info.param.Branch) + "d" +
             std::to_string(Info.param.Depth) + "i" +
             std::to_string(Info.param.Iters);
    });

//===----------------------------------------------------------------------===//
// List churn with interior pointers
//===----------------------------------------------------------------------===//

class ChurnSweep : public ::testing::TestWithParam<int> {};

TEST_P(ChurnSweep, InteriorPointersSurviveChurn) {
  int N = GetParam();
  std::string Src = R"(
MODULE Churn;
CONST N = )" + std::to_string(N) + R"(;
TYPE Cell = REF RECORD a, b: INTEGER END;
     Arr = REF ARRAY [1..10] OF INTEGER;
VAR junk: Cell; total: INTEGER;

PROCEDURE Work(v: Arr): INTEGER;
VAR s, i: INTEGER;
BEGIN
  s := 0;
  FOR i := 1 TO 10 DO
    junk := NEW(Cell);      (* churn at every step *)
    WITH e = v[i] DO
      junk := NEW(Cell);
      e := e + i
    END;
    s := s + v[i]
  END;
  RETURN s
END Work;

VAR v: Arr; k: INTEGER;
BEGIN
  v := NEW(Arr);
  FOR i := 1 TO 10 DO v[i] := 0 END;
  total := 0;
  FOR k := 1 TO N DO
    total := total + Work(v)
  END;
  PutInt(total); PutLn();
END Churn.
)";
  // Closed form: after k rounds v[i] = k*i, so Work returns 55*k and the
  // total is 55 * N(N+1)/2.
  long long Expect = 55LL * N * (N + 1) / 2;
  driver::CompilerOptions CO;
  CO.OptLevel = 2;
  vm::VMOptions VO;
  VO.GcStress = true; // Collect at every allocation.
  VO.HeapBytes = 1u << 20;
  RunResult R = compileAndRun(Src, CO, VO);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Out, std::to_string(Expect) + "\n");
  EXPECT_GT(R.Stats.Collections, 0u);
  EXPECT_GT(R.Stats.DerivedAdjusted, 0u);
}

INSTANTIATE_TEST_SUITE_P(Rounds, ChurnSweep,
                         ::testing::Values(1, 2, 5, 10, 25, 50));

//===----------------------------------------------------------------------===//
// Decode equivalence: reference decoder == indexed/cached decode
//===----------------------------------------------------------------------===//

/// Every gc-point of every function of all four benchmark programs, at
/// both optimization levels, must decode identically through the reference
/// walk-from-start decoder, the load-time index, and the decoded-point
/// cache — including same-as-previous chains and all-empty descriptors.
/// Shared sweep body: every gc-point of every function must decode
/// identically through the reference walk-from-start decoder, the
/// load-time index, and the decoded-point cache.
void checkDecodeEquivalence(const std::string &Name,
                            const std::string &Source,
                            driver::CompilerOptions CO) {
  auto C = driver::compile(Source, CO);
  ASSERT_TRUE(C.Prog) << Name << " failed to compile:\n" << C.Diags.str();
  vm::Program &Prog = *C.Prog;
  ASSERT_EQ(Prog.MapIndexes.size(), Prog.Maps.size());

  // A deliberately tiny cache so eviction and re-fill are exercised too.
  gcmaps::DecodedPointCache Cache(4);
  unsigned PointsChecked = 0, SamePoints = 0, EmptyPoints = 0;
  for (unsigned F = 0; F != Prog.Maps.size(); ++F) {
    const gcmaps::EncodedFuncMaps &Maps = Prog.Maps[F];
    const gcmaps::FuncMapIndex &Index = Prog.MapIndexes[F];
    ASSERT_EQ(Index.Points.size(), Maps.RetPCs.size()) << "func " << F;

    for (unsigned K = 0; K != Maps.RetPCs.size(); ++K) {
      gcmaps::GcPointInfo Ref = gcmaps::decodeGcPoint(Maps, K);

      gcmaps::GcPointInfo Indexed;
      gcmaps::decodeGcPointIndexed(Maps, Index, K, Indexed);
      EXPECT_TRUE(Indexed == Ref) << Name << " func " << F << " point "
                                  << K << ": indexed decode diverged";

      const gcmaps::GcPointInfo *Cached = Cache.lookup(F, K);
      if (!Cached) {
        gcmaps::decodeGcPointIndexed(Maps, Index, K, Cache.insert(F, K));
        Cached = Cache.lookup(F, K);
      }
      ASSERT_NE(Cached, nullptr);
      EXPECT_TRUE(*Cached == Ref) << Name << " func " << F << " point "
                                  << K << ": cached decode diverged";

      ++PointsChecked;
      const gcmaps::PointIndexEntry &E = Index.Points[K];
      if (K > 0 && (E.DeltaOff == Index.Points[K - 1].DeltaOff ||
                    E.DerivOff == Index.Points[K - 1].DerivOff))
        ++SamePoints;
      if (E.DeltaOff == gcmaps::EmptyPayload &&
          E.RegOff == gcmaps::EmptyPayload &&
          E.DerivOff == gcmaps::EmptyPayload)
        ++EmptyPoints;
    }
  }
  // The sweep must actually cover the interesting encodings.
  EXPECT_GT(PointsChecked, 0u) << Name;
  EXPECT_GT(SamePoints + EmptyPoints, 0u)
      << Name << ": expected same-as-previous or empty descriptors";
}

class DecodeEquivalence
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(DecodeEquivalence, ReferenceEqualsIndexedAndCached) {
  const programs::NamedProgram &P = programs::All[std::get<0>(GetParam())];
  driver::CompilerOptions CO;
  CO.OptLevel = std::get<1>(GetParam());
  checkDecodeEquivalence(P.Name, P.Source, CO);
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, DecodeEquivalence,
    ::testing::Combine(::testing::Range(0, 4), ::testing::Values(0, 2)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>> &Info) {
      return std::string(programs::All[std::get<0>(Info.param)].Name) +
             "_O" + std::to_string(std::get<1>(Info.param));
    });

/// The same sweep over the checked-in fuzz corpus: bigger programs with
/// WITH-bound derived pointers, ambiguous diamonds, threads, and loop
/// polls stress encodings the four benchmarks never emit.  Honors
/// MGC_TEST_GEN_GC=1 (write barriers change the gc-point population).
class CorpusDecodeEquivalence
    : public ::testing::TestWithParam<std::string> {};

TEST_P(CorpusDecodeEquivalence, ReferenceEqualsIndexedAndCached) {
  const CorpusProgram &P = corpusProgram(GetParam());
  for (int Opt : {0, 2}) {
    driver::CompilerOptions CO;
    CO.OptLevel = Opt;
    CO.ThreadedPolls = P.HasSpin;
    if (std::getenv("MGC_TEST_GEN_GC"))
      CO.WriteBarriers = true;
    checkDecodeEquivalence(P.Name + "_O" + std::to_string(Opt), P.Source,
                           CO);
  }
}

INSTANTIATE_TEST_SUITE_P(FuzzCorpus, CorpusDecodeEquivalence,
                         ::testing::ValuesIn(corpusNames()),
                         [](const ::testing::TestParamInfo<std::string> &I) {
                           return I.param;
                         });

//===----------------------------------------------------------------------===//
// The interned and block-summary solvers equal the map-based reference
//===----------------------------------------------------------------------===//

/// Compares the derivation and liveness solvers on \p F with the reference
/// solvers: every block's entry states (absent and Unknown entries alike),
/// every instruction's dead-base extra uses, and live-in/live-out with and
/// without those extra uses.
void expectSolversMatchReference(const ir::Function &F,
                                 const std::string &Where) {
  analysis::DerivationAnalysis DA(F);
  std::vector<DerivMap> RefIn = ref::derivationIn(F);
  for (const auto &BB : F.Blocks)
    EXPECT_TRUE(blockIn(DA, BB->Id) == RefIn[BB->Id])
        << Where << " bb" << BB->Id << ": entry states differ";

  analysis::ExtraUses Extra = DA.computeExtraUses();
  ref::ExtraUseMap RefExtra = ref::extraUses(F, RefIn);
  for (const auto &BB : F.Blocks)
    for (unsigned I = 0; I != BB->Instrs.size(); ++I) {
      std::span<const ir::VReg> Got = Extra.at(BB->Id, I);
      auto It = RefExtra.find({BB->Id, I});
      EXPECT_EQ(std::vector<ir::VReg>(Got.begin(), Got.end()),
                It == RefExtra.end() ? std::vector<ir::VReg>() : It->second)
          << Where << " bb" << BB->Id << " instr " << I;
    }

  for (bool WithExtra : {false, true}) {
    analysis::Liveness LV(F, WithExtra ? &Extra : nullptr);
    ref::Liveness Ref(F, WithExtra ? &RefExtra : nullptr);
    for (const auto &BB : F.Blocks) {
      EXPECT_TRUE(LV.liveIn(BB->Id) == Ref.LiveIn[BB->Id])
          << Where << " bb" << BB->Id << " extra=" << WithExtra;
      EXPECT_TRUE(LV.liveOut(BB->Id) == Ref.LiveOut[BB->Id])
          << Where << " bb" << BB->Id << " extra=" << WithExtra;
    }
  }
}

TEST(SolverReference, EveryFunctionAtO0AndO2) {
  unsigned DceChanged = 0;
  for (const NamedSource &P : checkedInPrograms())
    for (int Opt : {0, 2}) {
      driver::CompilerOptions CO;
      CO.OptLevel = Opt;
      driver::CompileResult C = driver::compile(P.Source, CO);
      ASSERT_TRUE(C.IR) << P.Name << ":\n" << C.Diags.str();
      for (auto &F : C.IR->Functions) {
        std::string Where = P.Name + " -O" + std::to_string(Opt) + " " +
                            F->Name;
        expectSolversMatchReference(*F, Where);
        // One call reaches DCE's fixpoint.
        DceChanged += opt::eliminateDeadCode(*F);
        EXPECT_FALSE(opt::eliminateDeadCode(*F)) << Where;
        expectSolversMatchReference(*F, Where + " after DCE");
      }
    }
  EXPECT_GT(DceChanged, 0u) << "no function had dead code to delete";
}

} // namespace
