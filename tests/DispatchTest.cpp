//===- tests/DispatchTest.cpp - Cross-tier execution equivalence ----------===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The threaded dispatch tier must be *bit-identical* to the reference
/// switch interpreter on everything the VM can observe: program output,
/// exit status, and every non-timing VMStats field — including the
/// table-driven collection counts, which only match if gc-point ordinals,
/// SuspendPCs, and the per-collection Stats.Instrs snapshots agree.  The
/// suite sweeps the §6 benchmarks and the frozen fuzz corpus across
/// -O0/-O2 × two-space/gen-gc, and directs a stressed, cross-checked
/// collection storm through the threaded executor so every root/derived
/// decode happens at a PC the threaded tier published mid-quantum.
///
//===----------------------------------------------------------------------===//

#include "Corpus.h"
#include "Programs.h"
#include "TestUtil.h"
#include "support/IntOps.h"

#include <gtest/gtest.h>

using namespace mgc;
using namespace mgc::test;

namespace {

struct TierOutcome {
  bool Ok = false;
  std::string Out;
  std::string Error;
  vm::VMStats S;
};

/// Runs an already-compiled program under one dispatch tier.
TierOutcome runTier(const vm::Program &Prog, vm::DispatchTier Tier,
                    vm::VMOptions VO, bool SpawnSpin = false) {
  VO.Dispatch = Tier;
  vm::VM M(Prog, VO);
  gc::installPreciseCollector(M);
  if (SpawnSpin) {
    int Idx = -1;
    for (unsigned F = 0; F != Prog.Funcs.size(); ++F)
      if (Prog.Funcs[F].Name == "Spin")
        Idx = static_cast<int>(F);
    if (Idx >= 0)
      M.spawnThread(static_cast<unsigned>(Idx));
  }
  TierOutcome O;
  O.Ok = M.run();
  O.Out = M.Out;
  O.Error = M.Error;
  O.S = M.Stats;
  return O;
}

/// Asserts the two tiers agree on every non-timing observable.  Timing
/// fields (GcNanos etc.) necessarily differ; everything else must not.
void expectIdentical(const TierOutcome &Sw, const TierOutcome &Th,
                     const std::string &Ctx) {
  EXPECT_EQ(Sw.Ok, Th.Ok) << Ctx;
  EXPECT_EQ(Sw.Out, Th.Out) << Ctx;
  EXPECT_EQ(Sw.Error, Th.Error) << Ctx;
#define CMP(F) EXPECT_EQ(Sw.S.F, Th.S.F) << Ctx << " (" #F ")"
  CMP(Instrs);
  CMP(Collections);
  CMP(MinorCollections);
  CMP(FramesTraced);
  CMP(BytesCopied);
  CMP(ObjectsCopied);
  CMP(WriteBarriersRun);
  CMP(RemSetRecords);
  CMP(RemSetPeak);
  CMP(DerivedAdjusted);
  CMP(RootsTraced);
  CMP(DecodeCacheHits);
  CMP(DecodeCacheMisses);
  CMP(DecodeBytesSkipped);
  CMP(StackTraceStartInstrs);
  CMP(RendezvousSteps);
#undef CMP
}

/// Compiles \p Source and runs it under both tiers with identical options,
/// asserting bit-identical outcomes.  Returns the threaded outcome for
/// extra expectations.
TierOutcome compareTiers(const std::string &Source,
                         driver::CompilerOptions CO, vm::VMOptions VO,
                         const std::string &Ctx, bool SpawnSpin = false) {
  auto C = driver::compile(Source, CO);
  if (!C.Prog) {
    ADD_FAILURE() << Ctx << " compilation failed:\n" << C.Diags.str();
    return {};
  }
  TierOutcome Sw =
      runTier(*C.Prog, vm::DispatchTier::Switch, VO, SpawnSpin);
  TierOutcome Th =
      runTier(*C.Prog, vm::DispatchTier::Threaded, VO, SpawnSpin);
  expectIdentical(Sw, Th, Ctx);
  return Th;
}

//===----------------------------------------------------------------------===//
// Integer semantics: the one failing quotient
//===----------------------------------------------------------------------===//

TEST(DispatchEquivalence, MinDivMinusOneFailsIdenticallyEverywhere) {
  // The smallest INTEGER DIV or MOD -1 used to raise SIGFPE in the host;
  // every tier, opt level and collector must report it instead.  Products
  // and negations that overflow wrap around.
  for (const char *Op : {"DIV", "MOD"}) {
    std::string Src = std::string(R"(
MODULE M;
VAR b, c: INTEGER;
BEGIN
  b := 0 - 9223372036854775807 - 1; c := 0 - 1;
  PutInt(b * c); PutChar(32); PutInt(-b); PutChar(32);
  PutInt(3037000500 * 3037000500); PutLn();
  PutInt(b )") + Op + R"( c); PutLn();
END M.)";
    for (int Opt : {0, 2}) {
      for (bool GenGc : {false, true}) {
        driver::CompilerOptions CO;
        CO.OptLevel = Opt;
        CO.WriteBarriers = GenGc;
        vm::VMOptions VO;
        VO.GenGc = GenGc;
        std::string Ctx = std::string(Op) + " -O" + std::to_string(Opt) +
                          (GenGc ? " gen-gc" : " two-space");
        TierOutcome Th = compareTiers(Src, CO, VO, Ctx);
        EXPECT_FALSE(Th.Ok) << Ctx;
        EXPECT_EQ(Th.Error, support::DivOverflowMessage) << Ctx;
        EXPECT_EQ(Th.Out, "-9223372036854775808 -9223372036854775808 "
                          "-9223372036709301616\n")
            << Ctx;
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// §6 benchmarks: -O0/-O2 × two-space/gen-gc
//===----------------------------------------------------------------------===//

TEST(DispatchEquivalence, Sec6Benchmarks) {
  uint64_t TotalCollections = 0;
  for (const programs::NamedProgram &P : programs::All) {
    for (int Opt : {0, 2}) {
      for (bool GenGc : {false, true}) {
        driver::CompilerOptions CO;
        CO.OptLevel = Opt;
        CO.WriteBarriers = GenGc;
        vm::VMOptions VO;
        VO.GenGc = GenGc;
        // Small enough that the allocation-heavy benchmarks collect
        // repeatedly (48 KiB is the e2e sweep's non-stress pressure size).
        VO.HeapBytes = 48u << 10;
        VO.CrossCheck = true;
        std::string Ctx = std::string(P.Name) + " -O" +
                          std::to_string(Opt) +
                          (GenGc ? " gen-gc" : " two-space");
        TierOutcome Th = compareTiers(P.Source, CO, VO, Ctx);
        EXPECT_TRUE(Th.Ok) << Ctx << ": " << Th.Error;
        EXPECT_EQ(Th.Out, P.Expected) << Ctx;
        TotalCollections += Th.S.Collections;
      }
    }
  }
  // The sweep as a whole must exercise cross-tier collections, even if an
  // individual benchmark fits the pressure heap without collecting.
  EXPECT_GT(TotalCollections, 0u);
}

//===----------------------------------------------------------------------===//
// Frozen fuzz corpus, stressed and under heap pressure
//===----------------------------------------------------------------------===//

class DispatchCorpus : public ::testing::TestWithParam<std::string> {};

TEST_P(DispatchCorpus, TiersBitIdentical) {
  const CorpusProgram &P = corpusProgram(GetParam());
  for (int Opt : {0, 2}) {
    for (bool GenGc : {false, true}) {
      driver::CompilerOptions CO;
      CO.OptLevel = Opt;
      CO.WriteBarriers = GenGc;
      CO.ThreadedPolls = P.HasSpin;
      vm::VMOptions VO;
      VO.GenGc = GenGc;
      VO.HeapBytes = 1u << 20;
      VO.GcStress = true;
      VO.InstrBudget = 50'000'000;
      VO.CrossCheck = true;
      std::string Ctx = P.Name + " -O" + std::to_string(Opt) +
                        (GenGc ? " gen-gc" : " two-space") + " stress";
      // Spin programs also spawn their thread: the §5.3 rendezvous (and
      // its RendezvousSteps ordinal) must agree across tiers too.
      compareTiers(P.Source, CO, VO, Ctx, P.HasSpin);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Corpus, DispatchCorpus,
                         ::testing::ValuesIn(corpusNames()),
                         [](const ::testing::TestParamInfo<std::string> &I) {
                           return I.param;
                         });

//===----------------------------------------------------------------------===//
// Directed: collections triggered mid-threaded-execution
//===----------------------------------------------------------------------===//

TEST(DispatchDirected, MidExecutionCollectionCrosscheck) {
  // Allocation inside a call chain inside a loop: every collection is
  // triggered from deep inside a threaded quantum, so the gc-point PC the
  // executor publishes (and the frames the tables describe there) is
  // exercised at many distinct call depths.  --gc-crosscheck makes the
  // collector verify every accelerated root/derived decode against the
  // reference decoder, aborting on mismatch.
  const char *Source = R"(
MODULE M;
TYPE Node = REF RECORD next: Node; val: INTEGER END;

PROCEDURE Build(n: INTEGER): Node;
VAR head, p: Node; i: INTEGER;
BEGIN
  head := NIL;
  FOR i := 0 TO n - 1 DO
    p := NEW(Node);
    p^.next := head;
    p^.val := i;
    head := p
  END;
  RETURN head
END Build;

PROCEDURE Sum(l: Node): INTEGER;
VAR s: INTEGER;
BEGIN
  s := 0;
  WHILE l # NIL DO s := s + l^.val; l := l^.next END;
  RETURN s
END Sum;

VAR r, k: INTEGER;
BEGIN
  r := 0;
  FOR k := 1 TO 40 DO
    r := r + Sum(Build(50))
  END;
  PutInt(r); PutLn();
END M.)";
  for (bool GenGc : {false, true}) {
    driver::CompilerOptions CO;
    CO.WriteBarriers = GenGc;
    vm::VMOptions VO;
    VO.GenGc = GenGc;
    VO.HeapBytes = 256u << 10;
    VO.GcStress = true;
    VO.CrossCheck = true;
    auto C = driver::compile(Source, CO);
    ASSERT_TRUE(C.Prog) << C.Diags.str();
    TierOutcome Th = runTier(*C.Prog, vm::DispatchTier::Threaded, VO);
    ASSERT_TRUE(Th.Ok) << Th.Error;
    EXPECT_EQ(Th.Out, "49000\n");
    EXPECT_GT(Th.S.Collections, 100u)
        << "stress mode must collect at every allocation";
    // And the tiers agree on the storm, collection for collection.
    TierOutcome Sw = runTier(*C.Prog, vm::DispatchTier::Switch, VO);
    expectIdentical(Sw, Th, GenGc ? "directed gen-gc" : "directed two-space");
  }
}

//===----------------------------------------------------------------------===//
// Tier selection plumbing
//===----------------------------------------------------------------------===//

TEST(DispatchTier, NamesAndActiveSelection) {
  EXPECT_STREQ(vm::dispatchTierName(vm::DispatchTier::Threaded), "threaded");
  EXPECT_STREQ(vm::dispatchTierName(vm::DispatchTier::Switch), "switch");
}

} // namespace
