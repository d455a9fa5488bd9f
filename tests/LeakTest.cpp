//===- tests/LeakTest.cpp - Leak-triage subsystem tests --------------------===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the leak-triage pipeline: the online growth detector
/// (obs/Trace.h LeakConfig) — injected-leak flagging at the correct site
/// within its K = Window bound, zero flags on the leak-free §6 suite,
/// full-collection-only sampling under gen-gc, and byte-identical flags
/// across dispatch tiers — plus the flat JSONL leak
/// records round-tripping through obs::readTrace into renderLeaks /
/// renderReportJson, snapshot streams captured under gen-gc minors and
/// --heap-growth feeding watchSnapshots, and strict rejection of
/// malformed snapshot files.
///
/// Every suite name starts with "Leak" — tests/CMakeLists.txt gives them
/// the `leak` ctest label.
///
//===----------------------------------------------------------------------===//

#include "Programs.h"
#include "TestUtil.h"

#include "gc/Snapshot.h"
#include "obs/HeapSnapshot.h"
#include "obs/Report.h"
#include "obs/Trace.h"

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>

using namespace mgc;
using namespace mgc::test;

namespace {

/// The injected-leak program: Grow() prepends one cell to a global chain
/// that is never trimmed, Churn() allocates transient garbage so the run
/// collects frequently.  Grow's NEW is the one site a correct detector
/// flags; Churn's must stay clean (its live set is one cell).  The
/// periodic GcCollect() forces full collections: under gen-gc the
/// transients die in the nursery and the promoted chain alone never
/// fills the old space, so without it a leaking run sees only minor
/// collections — exactly the situation the full-collection-only sampler
/// needs a periodic full to observe (mgc --leak-detect documents the
/// same requirement).
const char *LeakSource = R"(MODULE LeakCase;
TYPE
  Cell = REF RECORD v: INTEGER; next: Cell END;
VAR leak: Cell; i, s: INTEGER;

PROCEDURE Grow(l: Cell; n: INTEGER): Cell;
VAR c: Cell;
BEGIN
  c := NEW(Cell);
  c^.v := n;
  c^.next := l;
  RETURN c
END Grow;

PROCEDURE Churn(n: INTEGER): INTEGER;
VAR t: Cell; j, s: INTEGER;
BEGIN
  s := 0;
  FOR j := 1 TO n DO
    t := NEW(Cell);
    t^.v := j;
    s := (s + t^.v) MOD 1000000007
  END;
  RETURN s
END Churn;

BEGIN
  s := 0;
  FOR i := 1 TO 400 DO
    leak := Grow(leak, i);
    s := (s + Churn(40)) MOD 1000000007;
    IF i MOD 25 = 0 THEN GcCollect() END
  END;
  PutInt(s);
  PutLn()
END LeakCase.
)";

struct LeakRun {
  bool Ok = false;
  std::string Out;
  std::string Error;
  vm::VMStats Stats;
  gcmaps::SiteTable SiteTab;
  std::vector<std::string> FuncNames;
  std::vector<obs::Tracer::LeakFlag> Flags;
  uint64_t Scans = 0;
  uint64_t Samples = 0;
  std::string Trace; ///< JSONL text (only when \p WithStream).
};

/// Compiles \p Source and runs it with a leak-enabled tracer.
LeakRun runLeak(const std::string &Source, bool Gen, size_t HeapBytes,
                uint32_t Window, uint64_t MinBytes,
                vm::DispatchTier Tier = vm::DispatchTier::Threaded,
                bool WithStream = false) {
  LeakRun R;
  driver::CompilerOptions CO;
  CO.OptLevel = 2;
  CO.WriteBarriers = Gen;
  auto C = driver::compile(Source, CO);
  if (!C.Prog) {
    ADD_FAILURE() << "compilation failed:\n" << C.Diags.str();
    return R;
  }
  R.SiteTab = C.Prog->SiteTab;
  for (const auto &F : C.Prog->Funcs)
    R.FuncNames.push_back(F.Name);

  vm::VMOptions VO;
  VO.HeapBytes = HeapBytes;
  VO.GenGc = Gen;
  VO.NurseryBytes = Gen ? 4u << 10 : 0;
  VO.Dispatch = Tier;
  VO.CrossCheck = true;
  vm::VM M(*C.Prog, VO);
  gc::installPreciseCollector(M);

  obs::TracerConfig TC;
  TC.Sites = &C.Prog->SiteTab;
  for (const auto &F : C.Prog->Funcs)
    TC.FuncNames.push_back(F.Name);
  TC.ProgramName = "leaktest";
  TC.GenGc = Gen;
  TC.Leak.Enabled = true;
  TC.Leak.Window = Window;
  TC.Leak.MinBytes = MinBytes;
  obs::Tracer Tracer(std::move(TC));
  std::ostringstream OS;
  Tracer.enable(WithStream ? &OS : nullptr);
  M.Tracer = &Tracer;

  R.Ok = M.run();
  Tracer.finish(R.Ok, M.Error);
  R.Out = M.Out;
  R.Error = M.Error;
  R.Stats = M.Stats;
  R.Flags = Tracer.leakFlags();
  R.Scans = Tracer.leakScans();
  R.Samples = Tracer.leakSamples();
  R.Trace = OS.str();
  return R;
}

/// The function name owning site \p Id.
std::string siteFunc(const LeakRun &R, uint32_t Id) {
  if (Id >= R.SiteTab.Sites.size())
    return "<bad site>";
  uint32_t F = R.SiteTab.Sites[Id].Func;
  return F < R.FuncNames.size() ? R.FuncNames[F] : "<bad func>";
}

std::string serializeFlags(const std::vector<obs::Tracer::LeakFlag> &Flags) {
  std::string S;
  for (const obs::Tracer::LeakFlag &F : Flags) {
    S += std::to_string(F.Site) + ":" + std::to_string(F.SlopeBytes) + ":" +
         std::to_string(F.LiveBytes) + ":" + std::to_string(F.FirstFlagged) +
         ";";
  }
  return S;
}

//===----------------------------------------------------------------------===//
// Online growth detector
//===----------------------------------------------------------------------===//

TEST(LeakDetector, FlagsInjectedLeakAtCorrectSiteWithinWindow) {
  // Two-space: every collection is full (one detector sample each), and
  // the chain is past MinBytes by the first sample, so the earliest
  // possible flag — and the bound "within K = Window collections" — is
  // exactly the Window-th collection.
  constexpr uint32_t Window = 4;
  LeakRun R = runLeak(LeakSource, /*Gen=*/false, /*HeapBytes=*/32u << 10,
                      Window, /*MinBytes=*/64);
  ASSERT_TRUE(R.Ok) << R.Error;
  ASSERT_GE(R.Stats.Collections, Window);
  EXPECT_EQ(R.Samples, R.Stats.Collections); // all full in two-space
  ASSERT_EQ(R.Flags.size(), 1u) << serializeFlags(R.Flags);
  EXPECT_EQ(siteFunc(R, R.Flags[0].Site), "Grow");
  EXPECT_GT(R.Flags[0].SlopeBytes, 0);
  EXPECT_GE(R.Flags[0].LiveBytes, 64u);
  EXPECT_LE(R.Flags[0].FirstFlagged, Window);
  EXPECT_GE(R.Flags[0].FirstFlagged, 1u);
}

TEST(LeakDetector, GenGcFlagsLeakAndSamplesFullCollectionsOnly) {
  constexpr uint32_t Window = 4;
  LeakRun R = runLeak(LeakSource, /*Gen=*/true, /*HeapBytes=*/32u << 10,
                      Window, /*MinBytes=*/64);
  ASSERT_TRUE(R.Ok) << R.Error;
  // Every pause is scanned; only full collections contribute samples.
  EXPECT_EQ(R.Scans, R.Stats.Collections);
  EXPECT_EQ(R.Samples, R.Stats.Collections - R.Stats.MinorCollections);
  EXPECT_GT(R.Stats.MinorCollections, 0u);
  ASSERT_EQ(R.Flags.size(), 1u) << serializeFlags(R.Flags);
  EXPECT_EQ(siteFunc(R, R.Flags[0].Site), "Grow");
}

TEST(LeakDetector, ZeroFlagsOnLeakFreeSuite) {
  for (const programs::NamedProgram &P : programs::All) {
    SCOPED_TRACE(P.Name);
    size_t Heap = std::string(P.Name) == "destroy" ? 48u << 10 : 64u << 10;
    for (bool Gen : {false, true}) {
      SCOPED_TRACE(Gen ? "gen" : "two-space");
      LeakRun R = runLeak(P.Source, Gen, Heap, /*Window=*/8,
                          /*MinBytes=*/4096);
      ASSERT_TRUE(R.Ok) << R.Error;
      EXPECT_EQ(R.Out, P.Expected);
      EXPECT_TRUE(R.Flags.empty()) << serializeFlags(R.Flags);
    }
  }
}

TEST(LeakDetector, FlagsByteIdenticalAcrossThreadsAndTiers) {
  // The detector's inputs are per-site sums accumulated by the copy loop,
  // so within one collector mode (fixed collection schedule) the flag list
  // is a pure function of the program.
  for (bool Gen : {false, true}) {
    SCOPED_TRACE(Gen ? "gen" : "two-space");
    std::string Ref;
    bool HaveRef = false;
    for (vm::DispatchTier Tier :
         {vm::DispatchTier::Threaded, vm::DispatchTier::Switch}) {
      SCOPED_TRACE(vm::dispatchTierName(Tier));
      LeakRun R = runLeak(LeakSource, Gen, /*HeapBytes=*/32u << 10,
                          /*Window=*/4, /*MinBytes=*/64, Tier);
      ASSERT_TRUE(R.Ok) << R.Error;
      ASSERT_FALSE(R.Flags.empty());
      std::string S = serializeFlags(R.Flags);
      if (!HaveRef) {
        Ref = S;
        HaveRef = true;
      } else {
        EXPECT_EQ(S, Ref);
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Flat leak records through the report layer
//===----------------------------------------------------------------------===//

TEST(LeakReport, FlatRecordsRoundTripAndRender) {
  LeakRun R = runLeak(LeakSource, /*Gen=*/false, /*HeapBytes=*/32u << 10,
                      /*Window=*/4, /*MinBytes=*/64,
                      vm::DispatchTier::Threaded, /*WithStream=*/true);
  ASSERT_TRUE(R.Ok) << R.Error;
  ASSERT_EQ(R.Flags.size(), 1u);

  std::istringstream In(R.Trace);
  obs::TraceReport Report;
  std::string Err;
  ASSERT_TRUE(obs::readTrace(In, Report, Err)) << Err;
  ASSERT_EQ(Report.Leaks.size(), 1u);
  EXPECT_EQ(Report.Leaks[0].Flag.Site, R.Flags[0].Site);
  EXPECT_EQ(Report.Leaks[0].Flag.SlopeBytes, R.Flags[0].SlopeBytes);
  EXPECT_EQ(Report.Leaks[0].Flag.LiveBytes, R.Flags[0].LiveBytes);
  EXPECT_EQ(Report.Leaks[0].Flag.FirstFlagged, R.Flags[0].FirstFlagged);
  EXPECT_EQ(Report.Leaks[0].Window, 4u);

  // renderLeaks names the flagged site; the full report embeds the table.
  std::string Leaks = obs::renderLeaks(Report);
  EXPECT_NE(Leaks.find("suspected leak sites"), std::string::npos) << Leaks;
  EXPECT_NE(Leaks.find("Grow"), std::string::npos) << Leaks;
  std::string Full = obs::renderReport(Report);
  EXPECT_NE(Full.find("suspected leak sites"), std::string::npos);

  // The JSON mirror carries the same flag.
  std::string Json = obs::renderReportJson(Report);
  EXPECT_NE(Json.find("\"leaks\":["), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"slope_bytes\":" +
                      std::to_string(R.Flags[0].SlopeBytes)),
            std::string::npos)
      << Json;
  EXPECT_EQ(Json.back(), '\n');
  EXPECT_EQ(Json[Json.size() - 2], '}');
}

TEST(LeakReport, CleanTraceRendersNoLeakTable) {
  LeakRun R = runLeak(programs::DestroySource, /*Gen=*/false,
                      /*HeapBytes=*/48u << 10, /*Window=*/8,
                      /*MinBytes=*/4096, vm::DispatchTier::Threaded,
                      /*WithStream=*/true);
  ASSERT_TRUE(R.Ok) << R.Error;
  std::istringstream In(R.Trace);
  obs::TraceReport Report;
  std::string Err;
  ASSERT_TRUE(obs::readTrace(In, Report, Err)) << Err;
  EXPECT_TRUE(Report.Leaks.empty());
  EXPECT_NE(obs::renderLeaks(Report).find("no suspected leak sites"),
            std::string::npos);
  EXPECT_EQ(obs::renderReport(Report).find("suspected leak sites"),
            std::string::npos);
}

//===----------------------------------------------------------------------===//
// Snapshot streams + watch mode
//===----------------------------------------------------------------------===//

/// Runs the injected-leak program under gen-gc with heap growth enabled,
/// capturing a snapshot every \p Every collections (what `mgc
/// --heap-snapshot F --snapshot-every N` does).
std::vector<obs::HeapSnapshot> captureStream(unsigned Every, bool &Ok,
                                             std::string &Error) {
  std::vector<obs::HeapSnapshot> Stream;
  driver::CompilerOptions CO;
  CO.OptLevel = 2;
  CO.WriteBarriers = true;
  auto C = driver::compile(LeakSource, CO);
  if (!C.Prog) {
    ADD_FAILURE() << "compilation failed:\n" << C.Diags.str();
    Ok = false;
    return Stream;
  }
  vm::VMOptions VO;
  VO.HeapBytes = 24u << 10;
  VO.GenGc = true;
  VO.NurseryBytes = 2u << 10;
  VO.HeapGrowthPct = 70;
  VO.CrossCheck = true;
  vm::VM M(*C.Prog, VO);
  gc::installPreciseCollector(M);

  obs::TracerConfig TC;
  TC.Sites = &C.Prog->SiteTab;
  for (const auto &F : C.Prog->Funcs)
    TC.FuncNames.push_back(F.Name);
  TC.ProgramName = "leaktest";
  TC.GenGc = true;
  obs::Tracer Tracer(std::move(TC));
  Tracer.enable(nullptr);
  M.Tracer = &Tracer;

  M.PostGcHook = [&](vm::VM &V) {
    if (V.Stats.Collections % Every != 0)
      return;
    obs::HeapSnapshot Snap;
    std::string Err;
    if (!gc::captureHeapSnapshot(V, Snap, /*WalkStacks=*/true, Err))
      ADD_FAILURE() << "capture failed: " << Err;
    else
      Stream.push_back(std::move(Snap));
  };
  Ok = M.run();
  Error = M.Error;
  return Stream;
}

TEST(LeakWatch, StreamUnderGenGcMinorsAndHeapGrowth) {
  bool Ok = false;
  std::string Error;
  std::vector<obs::HeapSnapshot> Stream = captureStream(/*Every=*/8, Ok,
                                                        Error);
  ASSERT_TRUE(Ok) << Error;
  ASSERT_GE(Stream.size(), 3u);

  // Stream ordinals are strictly monotone — no dropped or duplicated
  // capture points — and stride exactly the capture period.
  for (size_t I = 0; I != Stream.size(); ++I) {
    EXPECT_EQ(Stream[I].Collections, 8u * (I + 1)) << "snapshot " << I;
    EXPECT_TRUE(Stream[I].GenGc);
  }

  // Each snapshot independently satisfies the watch crosscheck, and the
  // leaked chain's growth shows up in the cumulative section.
  bool CrosscheckOk = false;
  std::string Report = obs::watchSnapshots(Stream, /*TopN=*/5, CrosscheckOk);
  EXPECT_TRUE(CrosscheckOk) << Report;
  EXPECT_NE(Report.find("watch: program"), std::string::npos);
  EXPECT_NE(Report.find("incremental growth"), std::string::npos);
  EXPECT_NE(Report.find("retaining-path churn"), std::string::npos);
  EXPECT_NE(Report.find("Grow"), std::string::npos) << Report;
  EXPECT_EQ(Report.find("MISMATCH"), std::string::npos) << Report;
}

TEST(LeakWatch, RoundTripsThroughCodec) {
  // The watch report over decoded files must equal the in-memory one —
  // what mgc-heapsnap --watch actually consumes.
  bool Ok = false;
  std::string Error;
  std::vector<obs::HeapSnapshot> Stream = captureStream(/*Every=*/16, Ok,
                                                        Error);
  ASSERT_TRUE(Ok) << Error;
  ASSERT_GE(Stream.size(), 2u);

  std::vector<obs::HeapSnapshot> Decoded;
  for (const obs::HeapSnapshot &S : Stream) {
    std::vector<uint8_t> Blob;
    obs::encodeSnapshot(S, Blob);
    obs::HeapSnapshot D;
    std::string Err;
    ASSERT_TRUE(obs::decodeSnapshot(Blob, D, Err)) << Err;
    Decoded.push_back(std::move(D));
  }
  bool OkA = false, OkB = false;
  std::string A = obs::watchSnapshots(Stream, /*TopN=*/5, OkA);
  std::string B = obs::watchSnapshots(Decoded, /*TopN=*/5, OkB);
  EXPECT_TRUE(OkA);
  EXPECT_TRUE(OkB);
  EXPECT_EQ(A, B);
}

TEST(LeakWatch, RejectsShortStream) {
  bool CrosscheckOk = true;
  std::string Report =
      obs::watchSnapshots({}, /*TopN=*/5, CrosscheckOk);
  EXPECT_FALSE(CrosscheckOk);
  EXPECT_NE(Report.find("need at least 2 snapshots"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Malformed snapshot files
//===----------------------------------------------------------------------===//

TEST(LeakSnapFiles, MalformedFilesRejectedWithDiagnostic) {
  std::string Dir = testing::TempDir();

  // Garbage bytes: bad magic.
  std::string Garbage = Dir + "/leaktest-garbage.mghs";
  {
    std::ofstream Out(Garbage, std::ios::binary);
    Out << "this is not a snapshot";
  }
  obs::HeapSnapshot S;
  std::string Err;
  EXPECT_FALSE(obs::readSnapshotFile(Garbage, S, Err));
  EXPECT_FALSE(Err.empty());

  // A valid snapshot truncated mid-body: strict decoders must reject it.
  bool Ok = false;
  std::string Error;
  std::vector<obs::HeapSnapshot> Stream = captureStream(/*Every=*/16, Ok,
                                                        Error);
  ASSERT_TRUE(Ok) << Error;
  ASSERT_FALSE(Stream.empty());
  std::vector<uint8_t> Blob;
  obs::encodeSnapshot(Stream[0], Blob);
  ASSERT_GT(Blob.size(), 8u);
  std::string Truncated = Dir + "/leaktest-truncated.mghs";
  {
    std::ofstream Out(Truncated, std::ios::binary);
    Out.write(reinterpret_cast<const char *>(Blob.data()),
              static_cast<std::streamsize>(Blob.size() / 2));
  }
  Err.clear();
  EXPECT_FALSE(obs::readSnapshotFile(Truncated, S, Err));
  EXPECT_FALSE(Err.empty());

  // Nonexistent path.
  Err.clear();
  EXPECT_FALSE(
      obs::readSnapshotFile(Dir + "/leaktest-missing.mghs", S, Err));
  EXPECT_FALSE(Err.empty());

  std::remove(Garbage.c_str());
  std::remove(Truncated.c_str());
}

} // namespace
