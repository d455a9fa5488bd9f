//===- tests/PauseTest.cpp - Pause-event accounting and the rendezvous -----===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pause-event invariants and the §5.3 rendezvous:
///
///  - every committed GcEvent's phase nanos partition its TotalNanos, its
///    RendezvousSteps are the per-collection delta of the VM counter, and
///    committed events correspond 1:1 with VMStats::Collections — over
///    the §6 programs and the frozen corpus;
///  - on the §6 programs, the decode cross-check and the switch tier
///    reproduce every deterministic observable of the default run;
///  - the §5.3 per-thread handshake's budget-exhaustion diagnostic is
///    deterministic and identical across both dispatch tiers, and failed
///    runs still flush a parseable trace in both tiers;
///  - mgc-report's renderer handles a zero-collection trace.
///
/// These suites carry the `gc` ctest label (see tests/CMakeLists.txt).
///
//===----------------------------------------------------------------------===//

#include "Corpus.h"
#include "Programs.h"
#include "TestUtil.h"

#include "obs/Report.h"
#include "obs/Trace.h"

#include <sstream>

using namespace mgc;
using namespace mgc::test;

namespace {

//===----------------------------------------------------------------------===//
// Traced-run helper
//===----------------------------------------------------------------------===//

struct PauseRun {
  bool Ok = false;
  std::string Out;
  std::string Error;
  vm::VMStats Stats;
  std::vector<obs::GcEvent> Events; ///< Committed events, oldest first.
  uint64_t EventCount = 0;
  std::string Trace; ///< Full JSONL text.
};

/// Compiles and runs \p Source with a tracer attached.  Honours
/// MGC_TEST_GEN_GC like test::compileAndRun, so the tier-1 generational
/// sweep also checks the event invariants over minor collections.
PauseRun runPause(const std::string &Source, size_t HeapBytes,
                  vm::DispatchTier Tier = vm::DispatchTier::Threaded,
                  uint64_t RendezvousBudget = 0, unsigned SpawnSpin = 0,
                  bool CrossCheck = false) {
  PauseRun R;
  driver::CompilerOptions CO;
  CO.OptLevel = 2;
  CO.ThreadedPolls = SpawnSpin != 0 && RendezvousBudget == 0;
  vm::VMOptions VO;
  VO.HeapBytes = HeapBytes;
  VO.Dispatch = Tier;
  if (RendezvousBudget)
    VO.RendezvousBudget = RendezvousBudget;
  VO.CrossCheck = CrossCheck;
  if (std::getenv("MGC_TEST_GEN_GC")) {
    CO.WriteBarriers = true;
    VO.GenGc = true;
    VO.NurseryBytes = 4u << 10;
    VO.CrossCheck = true;
  }
  auto C = driver::compile(Source, CO);
  if (!C.Prog) {
    ADD_FAILURE() << "compilation failed:\n" << C.Diags.str();
    return R;
  }
  vm::VM M(*C.Prog, VO);
  gc::installPreciseCollector(M);
  if (SpawnSpin) {
    unsigned SpinIdx = 0;
    for (unsigned I = 0; I != C.Prog->Funcs.size(); ++I)
      if (C.Prog->Funcs[I].Name == "Spin")
        SpinIdx = I;
    for (unsigned I = 0; I != SpawnSpin; ++I)
      M.spawnThread(SpinIdx);
  }

  obs::TracerConfig TC;
  TC.ProgramName = "pause-test";
  obs::Tracer Tracer(std::move(TC));
  std::ostringstream OS;
  Tracer.enable(&OS);
  M.Tracer = &Tracer;

  R.Ok = M.run();
  Tracer.finish(R.Ok, M.Error);
  R.Out = M.Out;
  R.Error = M.Error;
  R.Stats = M.Stats;
  R.Events = Tracer.retainedEvents();
  R.EventCount = Tracer.eventCount();
  R.Trace = OS.str();
  return R;
}

/// The deterministic observables two runs of one program must share.
void expectCoreEqual(const PauseRun &A, const PauseRun &B) {
  EXPECT_EQ(A.Out, B.Out);
  EXPECT_EQ(A.Stats.Instrs, B.Stats.Instrs);
  EXPECT_EQ(A.Stats.Collections, B.Stats.Collections);
  EXPECT_EQ(A.Stats.RootsTraced, B.Stats.RootsTraced);
  EXPECT_EQ(A.Stats.FramesTraced, B.Stats.FramesTraced);
  EXPECT_EQ(A.Stats.ObjectsCopied, B.Stats.ObjectsCopied);
  EXPECT_EQ(A.Stats.BytesCopied, B.Stats.BytesCopied);
  EXPECT_EQ(A.Stats.DerivedAdjusted, B.Stats.DerivedAdjusted);
  EXPECT_EQ(A.Stats.RendezvousSteps, B.Stats.RendezvousSteps);
}

//===----------------------------------------------------------------------===//
// Pause-event invariants
//===----------------------------------------------------------------------===//

void checkEventInvariants(const PauseRun &R) {
  // Committed events correspond 1:1 with collections: beginEvent fires
  // only after a successful rendezvous, commitEvent before control
  // returns to the mutator.
  EXPECT_EQ(R.EventCount, R.Stats.Collections);
  uint64_t StepSum = 0, HitSum = 0, MissSum = 0;
  for (const obs::GcEvent &Ev : R.Events) {
    // The six phase timers partition the pause: they are carved out of
    // the same two clock readings that produce TotalNanos, with no gap
    // and no overlap.
    uint64_t PhaseSum = Ev.Phases.Rendezvous + Ev.Phases.StackTrace +
                        Ev.Phases.Underive + Ev.Phases.Copy +
                        Ev.Phases.RemsetRebuild + Ev.Phases.Rederive;
    EXPECT_EQ(PhaseSum, Ev.TotalNanos) << "event " << Ev.Seq;
    StepSum += Ev.RendezvousSteps;
    HitSum += Ev.CacheHits;
    MissSum += Ev.CacheMisses;
  }
  if (R.EventCount == R.Events.size()) {
    // Per-event counters are deltas of the VM counters; with no events
    // dropped from the ring they must sum back to the totals.
    EXPECT_EQ(StepSum, R.Stats.RendezvousSteps);
    EXPECT_EQ(HitSum, R.Stats.DecodeCacheHits);
    EXPECT_EQ(MissSum, R.Stats.DecodeCacheMisses);
  }
  // Every traced frame is exactly one cache probe.
  EXPECT_EQ(R.Stats.DecodeCacheHits + R.Stats.DecodeCacheMisses,
            R.Stats.FramesTraced);
}

TEST(PauseInvariants, Section6Programs) {
  for (const programs::NamedProgram &P : programs::All) {
    SCOPED_TRACE(P.Name);
    PauseRun R = runPause(P.Source, /*HeapBytes=*/64u << 10);
    ASSERT_TRUE(R.Ok) << R.Error;
    EXPECT_EQ(R.Out, P.Expected);
    checkEventInvariants(R);
    // The §3 decode cross-check audits every trace without perturbing it,
    // and the switch tier shares the collector and the handshake engine:
    // both reproduce every observable, decode-cache counters included.
    PauseRun XC = runPause(P.Source, /*HeapBytes=*/64u << 10,
                           vm::DispatchTier::Threaded, /*RendezvousBudget=*/0,
                           /*SpawnSpin=*/0, /*CrossCheck=*/true);
    PauseRun Sw = runPause(P.Source, /*HeapBytes=*/64u << 10,
                           vm::DispatchTier::Switch);
    for (const PauseRun *Other : {&XC, &Sw}) {
      ASSERT_TRUE(Other->Ok) << Other->Error;
      expectCoreEqual(R, *Other);
      EXPECT_EQ(R.Stats.DecodeCacheHits, Other->Stats.DecodeCacheHits);
      EXPECT_EQ(R.Stats.DecodeCacheMisses, Other->Stats.DecodeCacheMisses);
      checkEventInvariants(*Other);
    }
  }
}

TEST(PauseInvariants, FrozenCorpus) {
  ASSERT_FALSE(corpus().empty());
  for (const CorpusProgram &P : corpus()) {
    SCOPED_TRACE(P.Name);
    PauseRun R = runPause(P.Source, /*HeapBytes=*/64u << 10);
    ASSERT_TRUE(R.Ok) << R.Error;
    checkEventInvariants(R);
  }
}

//===----------------------------------------------------------------------===//
// Rendezvous-budget diagnostic (§5.3 per-thread handshakes)
//===----------------------------------------------------------------------===//

/// Main allocates; Spin loops without ever reaching a gc-point when
/// compiled without loop polls.
const char *NoPollSpinSource = R"(
MODULE M;
TYPE R = REF RECORD v: INTEGER; n: R END;
VAR done: BOOLEAN; head: R;

PROCEDURE Spin();
VAR i: INTEGER;
BEGIN
  i := 0;
  WHILE NOT done DO INC(i) END
END Spin;

BEGIN
  done := FALSE;
  FOR k := 1 TO 400 DO
    head := NEW(R);
    head^.v := k
  END;
  done := TRUE;
  PutInt(head^.v); PutLn();
END M.)";

TEST(PauseRendezvous, BudgetExhaustionDiagnosticIsDeterministic) {
  auto Run = [&](vm::DispatchTier Tier) {
    return runPause(NoPollSpinSource, /*HeapBytes=*/8u << 10, Tier,
                    /*RendezvousBudget=*/1000, /*SpawnSpin=*/1);
  };
  PauseRun A = Run(vm::DispatchTier::Threaded);
  ASSERT_FALSE(A.Ok);
  EXPECT_NE(A.Error.find("rendezvous budget exhausted"), std::string::npos)
      << A.Error;
  EXPECT_NE(A.Error.find("thread 1"), std::string::npos) << A.Error;
  EXPECT_NE(A.Error.find("loop polls"), std::string::npos) << A.Error;

  // Deterministic: the same run produces the same diagnostic (same
  // offending thread, same pc), and both dispatch tiers agree — the
  // handshake engine is shared.
  PauseRun B = Run(vm::DispatchTier::Threaded);
  EXPECT_EQ(A.Error, B.Error);
  PauseRun C = Run(vm::DispatchTier::Switch);
  EXPECT_EQ(A.Error, C.Error);
  expectCoreEqual(A, C);

  // The failed partial run still flushes coherent stats and a parseable
  // trace: the budget fails the rendezvous *before* the collection is
  // counted, so events == Collections holds and the mutator's progress
  // up to the failing gc-point is preserved.
  for (const PauseRun *R : {&A, &C}) {
    EXPECT_EQ(R->EventCount, R->Stats.Collections);
    std::istringstream In(R->Trace);
    obs::TraceReport Report;
    std::string Err;
    ASSERT_TRUE(obs::readTrace(In, Report, Err)) << Err;
    ASSERT_TRUE(Report.HasRun);
    EXPECT_FALSE(Report.Run.Ok);
    EXPECT_NE(
        Report.Run.Error.value_or("").find("rendezvous budget exhausted"),
        std::string::npos);
  }
}

//===----------------------------------------------------------------------===//
// Threaded-tier error-path flush
//===----------------------------------------------------------------------===//

TEST(PauseThreadedFlush, FailedRunFlushesTraceInBothTiers) {
  // Unbounded list growth: dies with "heap exhausted" after several
  // successful collections.  Both tiers must leave a complete trace.
  const char *Leak = R"(MODULE Leak;
TYPE Node = REF RECORD next: Node; pad: INTEGER END;
VAR head: Node; n: Node;
BEGIN
  WHILE TRUE DO
    n := NEW(Node);
    n.next := head;
    head := n
  END;
END Leak.
)";
  for (vm::DispatchTier Tier :
       {vm::DispatchTier::Threaded, vm::DispatchTier::Switch}) {
    SCOPED_TRACE(vm::dispatchTierName(Tier));
    PauseRun R = runPause(Leak, /*HeapBytes=*/8u << 10, Tier);
    ASSERT_FALSE(R.Ok);
    EXPECT_NE(R.Error.find("heap exhausted"), std::string::npos) << R.Error;
    EXPECT_GT(R.Stats.Collections, 0u);
    checkEventInvariants(R);
    std::istringstream In(R.Trace);
    obs::TraceReport Report;
    std::string Err;
    ASSERT_TRUE(obs::readTrace(In, Report, Err)) << Err;
    ASSERT_TRUE(Report.HasRun);
    EXPECT_FALSE(Report.Run.Ok);
    EXPECT_EQ(Report.Events.size(), R.Stats.Collections);
    std::string Rendered = obs::renderReport(Report, /*TopN=*/5);
    EXPECT_NE(Rendered.find("FAILED"), std::string::npos);
  }
}

//===----------------------------------------------------------------------===//
// Zero-collection report
//===----------------------------------------------------------------------===//

TEST(PauseReport, ZeroCollectionTraceRendersCleanly) {
  const char *Tiny = R"(MODULE Tiny;
VAR x: INTEGER;
BEGIN
  x := 41;
  PutInt(x + 1); PutLn();
END Tiny.
)";
  // 4 MiB default heap: no collection ever triggers.
  PauseRun R = runPause(Tiny, /*HeapBytes=*/4u << 20);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Out, "42\n");
  EXPECT_EQ(R.Stats.Collections, 0u);
  std::istringstream In(R.Trace);
  obs::TraceReport Report;
  std::string Err;
  ASSERT_TRUE(obs::readTrace(In, Report, Err)) << Err;
  EXPECT_TRUE(Report.Events.empty());
  std::string Rendered = obs::renderReport(Report, /*TopN=*/5);
  EXPECT_NE(Rendered.find("no collections recorded"), std::string::npos)
      << Rendered;
}

} // namespace
