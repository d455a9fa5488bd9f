//===- tests/ObsTest.cpp - Observability subsystem tests -------------------===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the gc observability subsystem (src/obs + the site tables of
/// src/gcmaps/SiteTable.h): site-table codec round-trips, exact
/// allocation-site attribution against a directed ground truth at -O0 and
/// -O2 in both collector modes, VMStats/trace invariants across the §6
/// benchmark programs and the frozen corpus, JSONL round-tripping through
/// obs::readTrace with zero parse errors, traces written by older
/// versions still loading, the error-path flush (a failed run must
/// still produce a complete, parseable trace), the reader's strictness
/// (every prefix and a flipped bit in any byte of a real trace either fail
/// with a diagnostic or render; a hostile site count or a number that does
/// not fit its member is a diagnostic), and every key of every record type
/// round-tripping through obs/TraceFormat.h's key lists.
///
/// Every suite name starts with "Obs" — tests/CMakeLists.txt gives them
/// the `obs` ctest label.
///
//===----------------------------------------------------------------------===//

#include "Corpus.h"
#include "Programs.h"
#include "TestUtil.h"

#include "obs/Report.h"
#include "obs/Trace.h"
#include "support/Json.h"

#include <sstream>
#include <type_traits>
#include <utility>

using namespace mgc;
using namespace mgc::test;

namespace {

//===----------------------------------------------------------------------===//
// Site-table codec
//===----------------------------------------------------------------------===//

TEST(ObsSiteTable, EncodeDecodeRoundTrip) {
  gcmaps::SiteTable T;
  T.Sites.push_back({/*Func=*/0, /*Line=*/3, /*Col=*/7, /*Desc=*/1});
  T.Sites.push_back({/*Func=*/0, /*Line=*/12, /*Col=*/3, /*Desc=*/2});
  T.Sites.push_back({/*Func=*/2, /*Line=*/200, /*Col=*/40, /*Desc=*/0});
  T.Sites.push_back({/*Func=*/9, /*Line=*/100000, /*Col=*/1, /*Desc=*/300});
  T.Attrs.push_back({/*PC=*/4, /*Site=*/0});
  T.Attrs.push_back({/*PC=*/90, /*Site=*/1});
  T.Attrs.push_back({/*PC=*/91, /*Site=*/3});
  T.Attrs.push_back({/*PC=*/5000, /*Site=*/2});

  std::vector<uint8_t> Blob = gcmaps::encodeSiteTable(T);
  gcmaps::SiteTable D = gcmaps::decodeSiteTable(Blob);

  ASSERT_EQ(D.Sites.size(), T.Sites.size());
  for (size_t I = 0; I != T.Sites.size(); ++I)
    EXPECT_TRUE(D.Sites[I] == T.Sites[I]) << "site " << I;
  ASSERT_EQ(D.Attrs.size(), T.Attrs.size());
  for (size_t I = 0; I != T.Attrs.size(); ++I) {
    EXPECT_EQ(D.Attrs[I].PC, T.Attrs[I].PC) << "attr " << I;
    EXPECT_EQ(D.Attrs[I].Site, T.Attrs[I].Site) << "attr " << I;
  }
}

TEST(ObsSiteTable, EmptyRoundTrip) {
  gcmaps::SiteTable D = gcmaps::decodeSiteTable(gcmaps::encodeSiteTable({}));
  EXPECT_TRUE(D.Sites.empty());
  EXPECT_TRUE(D.Attrs.empty());
}

//===----------------------------------------------------------------------===//
// Traced-run helper
//===----------------------------------------------------------------------===//

struct TracedRun {
  bool Ok = false;
  std::string Out;
  std::string Error;
  vm::VMStats Stats;
  gcmaps::SiteTable SiteTab;
  std::vector<obs::SiteCounters> Counters;
  uint64_t Unattributed = 0;
  uint64_t Events = 0;
  uint64_t MinorEvents = 0;
  uint64_t FullEvents = 0;
  std::string Trace; ///< The full JSONL text.
};

/// Compiles \p Source and runs it with an enabled tracer streaming into a
/// string; fails the current test on compile errors.
TracedRun runTraced(const std::string &Source, int Opt, bool Gen,
                    size_t HeapBytes, size_t NurseryBytes = 4u << 10,
                    bool Stress = false) {
  TracedRun R;
  driver::CompilerOptions CO;
  CO.OptLevel = Opt;
  CO.WriteBarriers = Gen;
  auto C = driver::compile(Source, CO);
  if (!C.Prog) {
    ADD_FAILURE() << "compilation failed:\n" << C.Diags.str();
    return R;
  }
  R.SiteTab = C.Prog->SiteTab;

  vm::VMOptions VO;
  VO.HeapBytes = HeapBytes;
  VO.GenGc = Gen;
  VO.NurseryBytes = Gen ? NurseryBytes : 0;
  VO.GcStress = Stress;
  VO.CrossCheck = true;
  vm::VM M(*C.Prog, VO);
  gc::installPreciseCollector(M);

  obs::TracerConfig TC;
  TC.Sites = &C.Prog->SiteTab;
  for (const auto &F : C.Prog->Funcs)
    TC.FuncNames.push_back(F.Name);
  TC.ProgramName = "test";
  TC.GenGc = Gen;
  TC.SiteTableBytes = C.Prog->Sizes.SiteTableBytes;
  obs::Tracer Tracer(std::move(TC));
  std::ostringstream OS;
  Tracer.enable(&OS);
  M.Tracer = &Tracer;

  R.Ok = M.run();
  Tracer.finish(R.Ok, M.Error);
  R.Out = M.Out;
  R.Error = M.Error;
  R.Stats = M.Stats;
  R.Counters = Tracer.siteCounters();
  R.Unattributed = Tracer.unattributedCount();
  R.Events = Tracer.eventCount();
  R.MinorEvents = Tracer.pausePercentiles(/*Kind=*/1).Count;
  R.FullEvents = Tracer.pausePercentiles(/*Kind=*/2).Count;
  R.Trace = OS.str();
  return R;
}

/// 1-based source line of the first occurrence of \p Needle.
uint32_t lineOf(const std::string &Source, const std::string &Needle) {
  size_t Pos = Source.find(Needle);
  EXPECT_NE(Pos, std::string::npos) << Needle;
  uint32_t Line = 1;
  for (size_t I = 0; I < Pos; ++I)
    if (Source[I] == '\n')
      ++Line;
  return Line;
}

//===----------------------------------------------------------------------===//
// Exact allocation-site attribution
//===----------------------------------------------------------------------===//

/// Three allocation sites with statically known execution counts and no
/// other allocation anywhere (no texts, no implicit temporaries).
const char *SitesSource = R"(MODULE Sites;
TYPE
  Pair = REF RECORD a, b: INTEGER END;
  Arr = REF ARRAY OF INTEGER;
VAR p: Pair; v: Arr; keep: Arr; sum: INTEGER;
BEGIN
  keep := NEW(Arr, 8);
  FOR i := 1 TO 200 DO
    p := NEW(Pair);
    p.a := i; p.b := i + i;
    keep[0] := keep[0] + p.a
  END;
  FOR i := 1 TO 60 DO
    v := NEW(Arr, 4);
    v[0] := i;
    sum := sum + v[0]
  END;
  PutInt(keep[0]); PutChar(32); PutInt(sum); PutLn();
END Sites.
)";

TEST(ObsAttribution, ThreeSitesExactCounts) {
  const uint32_t KeepLine = lineOf(SitesSource, "keep := NEW(Arr, 8)");
  const uint32_t PairLine = lineOf(SitesSource, "p := NEW(Pair)");
  const uint32_t ArrLine = lineOf(SitesSource, "v := NEW(Arr, 4)");

  for (int Opt : {0, 2})
    for (bool Gen : {false, true}) {
      SCOPED_TRACE(testing::Message()
                   << "O" << Opt << (Gen ? " gen" : " two-space"));
      // Heap small enough that the Pair loop collects several times: the
      // attribution must survive object motion.
      TracedRun R = runTraced(SitesSource, Opt, Gen, /*HeapBytes=*/4u << 10,
                              /*NurseryBytes=*/1u << 10);
      ASSERT_TRUE(R.Ok) << R.Error;
      EXPECT_EQ(R.Out, "20100 1830\n");
      EXPECT_GT(R.Stats.Collections, 0u);

      // Exactly the three NEW expressions, dedup'd, in deterministic
      // (sorted) order — identical ids at -O0 and -O2.
      ASSERT_EQ(R.SiteTab.Sites.size(), 3u);
      ASSERT_EQ(R.Counters.size(), 3u);
      EXPECT_EQ(R.Unattributed, 0u);

      uint64_t ByLine[3] = {0, 0, 0}; // keep, pair, arr
      for (size_t I = 0; I != R.SiteTab.Sites.size(); ++I) {
        uint32_t Line = R.SiteTab.Sites[I].Line;
        uint64_t Count = R.Counters[I].Count;
        if (Line == KeepLine)
          ByLine[0] += Count;
        else if (Line == PairLine)
          ByLine[1] += Count;
        else if (Line == ArrLine)
          ByLine[2] += Count;
        else
          ADD_FAILURE() << "unexpected site line " << Line;
      }
      EXPECT_EQ(ByLine[0], 1u);
      EXPECT_EQ(ByLine[1], 200u);
      EXPECT_EQ(ByLine[2], 60u);
      for (const obs::SiteCounters &C : R.Counters)
        EXPECT_GT(C.Bytes, 0u);
    }
}

//===----------------------------------------------------------------------===//
// VMStats / trace invariants
//===----------------------------------------------------------------------===//

void checkInvariants(const TracedRun &R, bool Gen) {
  // Committed trace events correspond 1:1 with collections, split by kind.
  EXPECT_EQ(R.Events, R.Stats.Collections);
  EXPECT_EQ(R.MinorEvents, R.Stats.MinorCollections);
  EXPECT_EQ(R.FullEvents, R.Stats.Collections - R.Stats.MinorCollections);
  EXPECT_LE(R.Stats.MinorCollections, R.Stats.Collections);
  if (!Gen) {
    EXPECT_EQ(R.Stats.MinorCollections, 0u);
    EXPECT_EQ(R.Stats.WriteBarriersRun, 0u);
  }
  // A remembered-set record requires a barrier execution that hit.
  EXPECT_GE(R.Stats.WriteBarriersRun, R.Stats.RemSetRecords);
  // Under the map index (the default), every traced frame decodes through
  // the point cache: hit or miss, nothing else touches the counters.
  EXPECT_EQ(R.Stats.DecodeCacheHits + R.Stats.DecodeCacheMisses,
            R.Stats.FramesTraced);
}

/// Parses \p R's JSONL trace, expecting zero errors, and checks that the
/// stream agrees with the in-memory counters.
void checkTraceRoundTrip(const TracedRun &R) {
  std::istringstream In(R.Trace);
  obs::TraceReport Report;
  std::string Err;
  ASSERT_TRUE(obs::readTrace(In, Report, Err)) << Err;
  EXPECT_EQ(Report.Events.size(), R.Stats.Collections);
  ASSERT_TRUE(Report.HasRun);
  EXPECT_EQ(Report.Run.Ok, R.Ok);
  uint64_t Minor = 0, Full = 0;
  for (const obs::GcEvent &Ev : Report.Events)
    (Ev.Minor ? Minor : Full) += 1;
  EXPECT_EQ(Minor, R.Stats.MinorCollections);
  EXPECT_EQ(Full, R.Stats.Collections - R.Stats.MinorCollections);
}

struct NamedSource {
  std::string Name;
  std::string Source;
  size_t HeapBytes;
};

std::vector<NamedSource> invariantPrograms() {
  std::vector<NamedSource> Out;
  // The §6 benchmark programs, heaps sized to force collections where the
  // default live sets allow it.
  for (const auto &P : programs::All) {
    size_t Heap = 64u << 10;
    if (std::string(P.Name) == "destroy")
      Heap = 48u << 10;
    Out.push_back({P.Name, P.Source, Heap});
  }
  // The frozen fuzz corpus (single-threaded runs; Spin programs just never
  // start the extra thread).
  for (const CorpusProgram &P : corpus())
    Out.push_back({P.Name, P.Source, 64u << 10});
  return Out;
}

TEST(ObsInvariants, BenchAndCorpusBothModes) {
  for (const NamedSource &P : invariantPrograms())
    for (bool Gen : {false, true}) {
      SCOPED_TRACE(P.Name + (Gen ? " gen" : " two-space"));
      TracedRun R = runTraced(P.Source, /*Opt=*/2, Gen, P.HeapBytes);
      ASSERT_TRUE(R.Ok) << R.Error;
      checkInvariants(R, Gen);
      checkTraceRoundTrip(R);
    }
}

TEST(ObsInvariants, StressedDestroyBothModes) {
  // GcStress collects before every allocation: the densest event stream
  // the tracer ever sees, and far more events than the ring retains.
  for (bool Gen : {false, true}) {
    SCOPED_TRACE(Gen ? "gen" : "two-space");
    TracedRun R = runTraced(programs::DestroySource, /*Opt=*/2, Gen,
                            /*HeapBytes=*/64u << 10, /*NurseryBytes=*/4u << 10,
                            /*Stress=*/true);
    ASSERT_TRUE(R.Ok) << R.Error;
    EXPECT_GT(R.Stats.Collections, 1000u);
    checkInvariants(R, Gen);
    checkTraceRoundTrip(R);
  }
}

//===----------------------------------------------------------------------===//
// Ring wrap-around: the drop counter must be loud everywhere
//===----------------------------------------------------------------------===//

TEST(ObsRingWrap, DropCounterSurfacedInSummaryAndReport) {
  // A tiny ring under a collection-heavy run: most events are dropped,
  // and every surface (summary JSON fields, run record, mgc-report text
  // and JSON) must carry the exact drop count so truncated pause/volume
  // sections are never mistaken for complete ones.
  driver::CompilerOptions CO;
  CO.OptLevel = 2;
  CO.WriteBarriers = true;
  auto C = driver::compile(programs::DestroySource, CO);
  ASSERT_TRUE(C.Prog != nullptr) << C.Diags.str();

  constexpr size_t Cap = 8;
  vm::VMOptions VO;
  VO.HeapBytes = 48u << 10;
  VO.GenGc = true;
  VO.NurseryBytes = 4u << 10;
  vm::VM M(*C.Prog, VO);
  gc::installPreciseCollector(M);

  obs::TracerConfig TC;
  TC.Sites = &C.Prog->SiteTab;
  for (const auto &F : C.Prog->Funcs)
    TC.FuncNames.push_back(F.Name);
  TC.ProgramName = "ringwrap";
  TC.GenGc = true;
  TC.RingCapacity = Cap;
  obs::Tracer Tracer(std::move(TC));
  std::ostringstream OS;
  Tracer.enable(&OS);
  M.Tracer = &Tracer;

  ASSERT_TRUE(M.run()) << M.Error;
  Tracer.finish(true, "");

  ASSERT_GT(Tracer.eventCount(), Cap) << "workload too small to wrap";
  uint64_t Dropped = Tracer.eventsDropped();
  EXPECT_EQ(Dropped, Tracer.eventCount() - Cap);

  // --stats-json surface.
  std::string Fields;
  support::JsonWriter J(Fields);
  Tracer.writeSummaryJson(J);
  EXPECT_NE(Fields.find("\"events_dropped_from_ring\":" +
                        std::to_string(Dropped)),
            std::string::npos)
      << Fields;

  // The JSONL stream itself carries every event (records are written
  // live); the ring bounds only the tracer's retained in-memory view, so
  // the run record must advertise what its own percentiles cover.
  std::istringstream In(OS.str());
  obs::TraceReport Report;
  std::string Err;
  ASSERT_TRUE(obs::readTrace(In, Report, Err)) << Err;
  ASSERT_TRUE(Report.HasRun);
  EXPECT_EQ(Report.Events.size(), Tracer.eventCount());
  EXPECT_EQ(Report.Run.Summary.EventsRetained, static_cast<uint64_t>(Cap));
  EXPECT_EQ(Report.Run.Summary.EventsDropped, Dropped);
  EXPECT_EQ(Report.Run.Summary.Events, Tracer.eventCount());

  // mgc-report surfaces: a visible warning in the text report and the
  // counter in the JSON mirror.
  std::string Rendered = obs::renderReport(Report, /*TopN=*/5);
  EXPECT_NE(Rendered.find("WARNING"), std::string::npos) << Rendered;
  EXPECT_NE(Rendered.find("dropped from the ring buffer"),
            std::string::npos);
  std::string Json = obs::renderReportJson(Report, /*TopN=*/5);
  EXPECT_NE(Json.find("\"events_dropped_from_ring\":" +
                      std::to_string(Dropped)),
            std::string::npos)
      << Json;
}

TEST(ObsRingWrap, NoDropsWhenRingCovers) {
  // Control: a ring larger than the event count reports zero drops and
  // no warning banner.
  TracedRun R = runTraced(programs::DestroySource, /*Opt=*/2, /*Gen=*/false,
                          /*HeapBytes=*/64u << 10);
  ASSERT_TRUE(R.Ok) << R.Error;
  ASSERT_LE(R.Events, 1024u) << "default ring no longer covers this run";
  std::istringstream In(R.Trace);
  obs::TraceReport Report;
  std::string Err;
  ASSERT_TRUE(obs::readTrace(In, Report, Err)) << Err;
  ASSERT_TRUE(Report.HasRun);
  EXPECT_EQ(Report.Run.Summary.EventsDropped, 0u);
  EXPECT_EQ(obs::renderReport(Report, 5).find("dropped from the ring"),
            std::string::npos);
}

//===----------------------------------------------------------------------===//
// Error-path flush
//===----------------------------------------------------------------------===//

TEST(ObsErrorPath, FailedRunStillFlushesTrace) {
  // Unbounded list growth: the run dies with "heap exhausted" after
  // several successful collections.
  const char *Source = R"(MODULE Leak;
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
  for (bool Gen : {false, true}) {
    SCOPED_TRACE(Gen ? "gen" : "two-space");
    TracedRun R = runTraced(Source, /*Opt=*/2, Gen, /*HeapBytes=*/8u << 10,
                            /*NurseryBytes=*/1u << 10);
    ASSERT_FALSE(R.Ok);
    EXPECT_NE(R.Error.find("heap exhausted"), std::string::npos) << R.Error;
    EXPECT_GT(R.Stats.Collections, 0u);

    // The partial trace must still parse completely and carry the error.
    std::istringstream In(R.Trace);
    obs::TraceReport Report;
    std::string Err;
    ASSERT_TRUE(obs::readTrace(In, Report, Err)) << Err;
    ASSERT_TRUE(Report.HasRun);
    EXPECT_FALSE(Report.Run.Ok);
    EXPECT_NE(Report.Run.Error.value_or("").find("heap exhausted"),
              std::string::npos);
    EXPECT_EQ(Report.Events.size(), R.Stats.Collections);

    // And the renderer must cope with a failed run (banner, no crash).
    std::string Rendered = obs::renderReport(Report, /*TopN=*/5);
    EXPECT_NE(Rendered.find("FAILED"), std::string::npos);
  }
}

//===----------------------------------------------------------------------===//
// Survival accounting
//===----------------------------------------------------------------------===//

TEST(ObsSurvival, RetainedVsDroppedSites) {
  // Site A's objects are all retained; site B's are garbage by the next
  // collection.  An explicit collection resolves survival for everything
  // allocated so far.
  const char *Source = R"(MODULE Survive;
TYPE Node = REF RECORD v: INTEGER END;
     Vec = REF ARRAY OF Node;
VAR keep: Vec; tmp: Node;
BEGIN
  keep := NEW(Vec, 32);
  FOR i := 0 TO 31 DO
    keep[i] := NEW(Node)
  END;
  FOR i := 1 TO 32 DO
    tmp := NEW(Node);
    tmp.v := i
  END;
  tmp := NIL;
  GcCollect();
  PutInt(NUMBER(keep)); PutLn();
END Survive.
)";
  const uint32_t KeptLine = lineOf(Source, "keep[i] := NEW(Node)");
  const uint32_t TmpLine = lineOf(Source, "tmp := NEW(Node)");
  TracedRun R = runTraced(Source, /*Opt=*/2, /*Gen=*/false,
                          /*HeapBytes=*/64u << 10);
  ASSERT_TRUE(R.Ok) << R.Error;
  ASSERT_GE(R.Stats.Collections, 1u);
  bool SawKept = false, SawTmp = false;
  for (size_t I = 0; I != R.SiteTab.Sites.size(); ++I) {
    if (R.SiteTab.Sites[I].Line == KeptLine) {
      SawKept = true;
      EXPECT_EQ(R.Counters[I].Count, 32u);
      EXPECT_EQ(R.Counters[I].Survived, 32u);
    } else if (R.SiteTab.Sites[I].Line == TmpLine) {
      SawTmp = true;
      EXPECT_EQ(R.Counters[I].Count, 32u);
      // The last tmp Node may be held live by a stale stack slot, but the
      // 31 replaced ones are unreachable garbage.
      EXPECT_LE(R.Counters[I].Survived, 1u);
    }
  }
  EXPECT_TRUE(SawKept);
  EXPECT_TRUE(SawTmp);
}

//===----------------------------------------------------------------------===//
// Deterministic site-table ordering
//===----------------------------------------------------------------------===//


TEST(ObsSurvival, DirectToOldAllocationNeverSurvivesItsFirstCollection) {
  // In generational mode the 32,016-byte array is too large for the 4 KiB
  // nursery and is allocated straight into old space, so it never enters
  // the young generation.  The full collection copies it at age 0, as it
  // copies the nursery's Small, but only Small counts as a first-collection
  // survivor.
  const char *Source = R"(MODULE OldDirect;
TYPE Big = REF ARRAY OF INTEGER; Small = REF RECORD v: INTEGER END;
VAR b: Big; s: Small;
BEGIN
  b := NEW(Big, 4000); s := NEW(Small); GcCollect();
  b[1] := 7; PutInt(b[1] + s^.v); PutLn();
END OldDirect.
)";
  TracedRun R = runTraced(Source, /*Opt=*/2, /*Gen=*/true,
                          /*HeapBytes=*/256u << 10, /*NurseryBytes=*/4u << 10);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Out, "7\n");
  EXPECT_EQ(R.Stats.Collections, 1u);
  EXPECT_EQ(R.Stats.MinorCollections, 0u);
  ASSERT_EQ(R.Counters.size(), 2u);
  EXPECT_EQ(R.Counters[0].Count, 1u);
  EXPECT_EQ(R.Counters[0].Bytes, 32016u);
  EXPECT_EQ(R.Counters[0].Survived, 0u);
  EXPECT_EQ(R.Counters[0].SurvivedBytes, 0u);
  EXPECT_EQ(R.Counters[1].Count, 1u);
  EXPECT_EQ(R.Counters[1].Survived, 1u);
  EXPECT_EQ(R.Counters[1].SurvivedBytes, 16u);
}
TEST(ObsReportOrdering, TiedSitesRenderInIdOrder) {
  // Sites with identical byte totals must render in site-id order — the
  // report's tables stable-sort with an id tiebreak, so the output is a
  // pure function of the trace regardless of sort implementation.
  obs::TraceReport R;
  R.Meta.Program = "ties";
  for (uint32_t Id = 0; Id != 4; ++Id) {
    obs::TraceReport::Site S;
    S.Info.Id = Id;
    S.Info.Func = "f" + std::to_string(Id);
    S.Info.Line = Id + 1;
    S.Stats.Count = 10;
    S.Stats.Bytes = 4096;          // all tied
    S.Stats.Survived = 5;
    S.Stats.SurvivedBytes = 2048;  // all tied
    R.Sites.push_back(S);
  }
  R.HasRun = true;
  R.Run.Ok = true;

  std::string Rendered = obs::renderReport(R, /*TopN=*/4);
  size_t P0 = Rendered.find("f0:");
  size_t P1 = Rendered.find("f1:");
  size_t P2 = Rendered.find("f2:");
  size_t P3 = Rendered.find("f3:");
  ASSERT_NE(P0, std::string::npos);
  ASSERT_NE(P1, std::string::npos);
  ASSERT_NE(P2, std::string::npos);
  ASSERT_NE(P3, std::string::npos);
  EXPECT_LT(P0, P1);
  EXPECT_LT(P1, P2);
  EXPECT_LT(P2, P3);

  // The JSON mirror uses the same ordering.
  std::string Json = obs::renderReportJson(R, /*TopN=*/4);
  size_t J0 = Json.find("\"f0:");
  size_t J1 = Json.find("\"f1:");
  ASSERT_NE(J0, std::string::npos);
  ASSERT_NE(J1, std::string::npos);
  EXPECT_LT(J0, J1);
}

//===----------------------------------------------------------------------===//
// Older trace formats
//===----------------------------------------------------------------------===//

TEST(ObsLegacyTrace, WorkerKeysParseAndRender) {
  // A gc record as the removed parallel collector wrote it: the per-worker
  // keys (workers, w<i>_trace_ns, w<i>_copy_ns) are unknown to the reader
  // now and must be ignored, not rejected.
  std::istringstream In(
      R"({"type":"meta","program":"Legacy","tool_version":"mgc 0.10.0",)"
      R"("build_flags":"cc=12.2.0;assertions=on","seed":0,)"
      R"("dispatch":"threaded","gen_gc":0,"sites":1,"site_table_bytes":8})"
      "\n"
      R"({"type":"site","id":0,"func":"@main","line":8,"col":23,"desc":0})"
      "\n"
      R"({"type":"gc","seq":1,"kind":"full","trigger_site":0,)"
      R"("rendezvous_ns":100,"stack_trace_ns":2000,"underive_ns":30,)"
      R"("copy_ns":5000,"remset_ns":0,"rederive_ns":40,"total_ns":7170,)"
      R"("heap_before":4096,"heap_after":1024,"frames":3,"roots":5,)"
      R"("objects_copied":7,"bytes_copied":1024,"objects_promoted":0,)"
      R"("bytes_promoted":0,"derived_adjusted":2,"rendezvous_steps":0,)"
      R"("cache_hits":1,"cache_misses":2,"workers":2,"w0_trace_ns":1500,)"
      R"("w0_copy_ns":4000,"w1_trace_ns":400,"w1_copy_ns":900})"
      "\n"
      R"({"type":"run","exit":"ok","events":1,"events_retained":1,)"
      R"("events_dropped_from_ring":0})"
      "\n");
  obs::TraceReport Report;
  std::string Err;
  ASSERT_TRUE(obs::readTrace(In, Report, Err)) << Err;
  ASSERT_EQ(Report.Events.size(), 1u);
  const obs::GcEvent &Ev = Report.Events[0];
  EXPECT_EQ(Ev.Seq, 1u);
  EXPECT_FALSE(Ev.Minor);
  EXPECT_EQ(Ev.Phases.StackTrace, 2000u);
  EXPECT_EQ(Ev.Phases.Copy, 5000u);
  EXPECT_EQ(Ev.TotalNanos, 7170u);
  EXPECT_EQ(Ev.FramesTraced, 3u);
  EXPECT_EQ(Ev.RootsTraced, 5u);
  EXPECT_EQ(Ev.ObjectsCopied, 7u);
  EXPECT_EQ(Ev.BytesCopied, 1024u);
  EXPECT_EQ(Ev.DerivedAdjusted, 2u);
  EXPECT_EQ(Ev.CacheMisses, 2u);
  ASSERT_TRUE(Report.HasRun);
  EXPECT_TRUE(Report.Run.Ok);

  std::string Rendered = obs::renderReport(Report, /*TopN=*/5);
  EXPECT_NE(Rendered.find("=== mgc trace report: Legacy ==="),
            std::string::npos)
      << Rendered;
  EXPECT_NE(Rendered.find("full pauses (1 collections)"), std::string::npos)
      << Rendered;
  EXPECT_EQ(Rendered.find("worker"), std::string::npos) << Rendered;
  std::string Json = obs::renderReportJson(Report, /*TopN=*/5);
  EXPECT_NE(Json.find("\"objects_copied\":7"), std::string::npos) << Json;
  EXPECT_EQ(Json.find("worker"), std::string::npos) << Json;
}

//===----------------------------------------------------------------------===//
// Strict parsing and the shared writer
//===----------------------------------------------------------------------===//

TEST(ObsParse, IntegerOutOfRangeIsAParseError) {
  obs::TraceRecord Rec;
  std::string Err;
  EXPECT_FALSE(obs::parseTraceLine(
      R"({"type":"gc","seq":99999999999999999999999})", Rec, Err));
  EXPECT_FALSE(obs::parseTraceLine(R"({"type":"gc","seq":9223372036854775808})",
                                   Rec, Err));
  EXPECT_FALSE(obs::parseTraceLine(
      R"({"type":"gc","seq":-9223372036854775809})", Rec, Err));

  for (int64_t V : {INT64_MAX, INT64_MIN, int64_t(0), int64_t(-1)}) {
    std::string Line;
    support::JsonWriter(Line).beginObject().str("type", "gc").sint("v", V)
        .endObject();
    ASSERT_TRUE(obs::parseTraceLine(Line, Rec, Err)) << Line << ": " << Err;
    EXPECT_EQ(Rec.Ints.at("v"), V) << Line;
  }
}

/// A trace stream with every record kind the tracer writes (meta, site,
/// gc of both kinds, req, site_stats, site_live, age_hist, leak, run),
/// configured the way `mgc --trace --gen-gc --leak-detect` configures it.
std::string fullTrace() {
  const char *Source = R"(MODULE Mutate;
TYPE Cell = REF RECORD v: INTEGER; next: Cell END;
VAR keep, t: Cell; i: INTEGER;

PROCEDURE Grow(l: Cell; n: INTEGER): Cell;
VAR c: Cell;
BEGIN
  c := NEW(Cell); c^.v := n; c^.next := l;
  RETURN c
END Grow;

BEGIN
  FOR i := 1 TO 400 DO
    keep := Grow(keep, i);
    t := NEW(Cell);
    IF i MOD 80 = 0 THEN GcCollect(); ReqDone() END
  END;
  PutInt(keep^.v); PutLn()
END Mutate.
)";
  driver::CompilerOptions CO;
  CO.WriteBarriers = true;
  auto C = driver::compile(Source, CO);
  if (!C.Prog) {
    ADD_FAILURE() << "compilation failed:\n" << C.Diags.str();
    return "";
  }
  vm::VMOptions VO;
  VO.GenGc = true;
  VO.NurseryBytes = 2u << 10;
  vm::VM M(*C.Prog, VO);
  gc::installPreciseCollector(M);
  obs::TracerConfig TC;
  TC.Sites = &C.Prog->SiteTab;
  for (const vm::CompiledFunction &F : C.Prog->Funcs)
    TC.FuncNames.push_back(F.Name);
  TC.ProgramName = C.Prog->Name;
  TC.GenGc = true;
  TC.Dispatch = vm::dispatchTierName(M.Opts.Dispatch);
  TC.SiteTableBytes = C.Prog->Sizes.SiteTableBytes;
  TC.Leak.Enabled = true;
  TC.Leak.Window = 3;
  TC.Leak.MinBytes = 64;
  obs::Tracer Tracer(std::move(TC));
  std::ostringstream OS;
  Tracer.enable(&OS);
  M.Tracer = &Tracer;
  bool Ok = M.run();
  EXPECT_TRUE(Ok) << M.Error;
  Tracer.finish(Ok, M.Error, &M.TheHeap);
  return OS.str();
}

TEST(ObsParse, HostileSiteCountIsAParseError) {
  // The meta record's "sites" is a claim the reader checks against the
  // site records, never an allocation size.
  std::string Trace = fullTrace();
  size_t At = Trace.find("\"sites\":");
  ASSERT_NE(At, std::string::npos);
  At += std::string("\"sites\":").size();
  size_t End = Trace.find_first_not_of("0123456789", At);
  uint64_t Listed = std::stoull(Trace.substr(At, End - At));
  ASSERT_GT(Listed, 0u);
  for (const std::string &Count :
       {std::string("99999999999"), std::string("-5"),
        std::to_string(Listed + 1), std::to_string(Listed - 1)}) {
    SCOPED_TRACE(Count);
    std::istringstream In(Trace.substr(0, At) + Count + Trace.substr(End));
    obs::TraceReport Report;
    std::string Err;
    EXPECT_FALSE(obs::readTrace(In, Report, Err));
    EXPECT_EQ(Err.rfind("line ", 0), 0u) << Err;
    EXPECT_EQ(Err.find('\n'), std::string::npos) << Err;
  }
}

TEST(ObsParse, StrictOnMutation) {
  std::string Trace = fullTrace();
  for (const char *Kind : {"meta", "site", "gc", "req", "site_stats",
                           "site_live", "age_hist", "leak", "run"})
    ASSERT_NE(Trace.find(std::string("{\"type\":\"") + Kind + "\""),
              std::string::npos)
        << Kind;
  ASSERT_NE(Trace.find("\"kind\":\"minor\""), std::string::npos);
  ASSERT_NE(Trace.find("\"kind\":\"full\""), std::string::npos);
  {
    std::istringstream In(Trace);
    obs::TraceReport Report;
    std::string Err;
    ASSERT_TRUE(obs::readTrace(In, Report, Err)) << Err;
    EXPECT_EQ(Report.Leaks.size(), 1u);
  }
  // Each mutation either fails with a diagnostic or renders both ways.
  auto Check = [](const std::string &Text, size_t At) {
    std::istringstream In(Text);
    obs::TraceReport Report;
    std::string Err;
    if (!obs::readTrace(In, Report, Err)) {
      EXPECT_FALSE(Err.empty()) << At;
      return;
    }
    EXPECT_FALSE(obs::renderReport(Report).empty()) << At;
    EXPECT_FALSE(obs::renderReportJson(Report).empty()) << At;
  };
  for (size_t Len = 0; Len < Trace.size(); ++Len)
    Check(Trace.substr(0, Len), Len);
  // Flipping the low bit keeps a digit a digit, so besides broken syntax
  // the reader and renderers also see wrong but well-formed numbers.
  for (size_t I = 0; I < Trace.size(); ++I) {
    std::string T = Trace;
    T[I] ^= 0x01;
    Check(T, I);
  }
}

TEST(ObsParse, WriterStringsRoundTripByteExact) {
  const std::string Strs[] = {"quote\"inside", "back\\slash", "new\nline",
                              "tab\there", "cr\rhere",
                              std::string("ctl\x01\x1f") + '\0' + "end",
                              "plain"};
  for (const std::string &S : Strs) {
    std::string Line;
    support::JsonWriter(Line).beginObject().str("type", "t").str("s", S)
        .endObject();
    obs::TraceRecord Rec;
    std::string Err;
    ASSERT_TRUE(obs::parseTraceLine(Line, Rec, Err)) << Line << ": " << Err;
    EXPECT_EQ(Rec.Strs.at("s"), S) << Line;
  }
  // The escapes the JSONL traces have always used.
  std::string Esc;
  support::appendJsonString(Esc, "a\"b\\c\nd\te\rf\x01g\x1f");
  EXPECT_EQ(Esc, R"("a\"b\\c\nd\te\rf\u0001g\u001f")");
}

TEST(ObsParse, WriterNumbersAndNesting) {
  std::string Out;
  support::JsonWriter J(Out);
  J.beginObject()
      .uint("u", UINT64_MAX)
      .sint("i", -42)
      .fixed("f", -3.32449)
      .fixed("g", 2.0 / 3.0, 4)
      .boolean("b", false)
      .beginArray("a");
  J.beginObject().uint("x", 1).endObject();
  J.beginObject().endObject();
  J.endArray().raw("r", "{\"k\":0}").beginObject("o").endObject().endObject();
  EXPECT_EQ(Out, R"({"u":18446744073709551615,"i":-42,"f":-3.324,)"
                 R"("g":0.6667,"b":false,"a":[{"x":1},{}],"r":{"k":0},)"
                 R"("o":{}})");

  // Depth-0 members form a bare field list for another writer's object.
  std::string Fields;
  support::JsonWriter(Fields).uint("a", 1).str("b", "x");
  EXPECT_EQ(Fields, R"("a":1,"b":"x")");
}

//===----------------------------------------------------------------------===//
// The key lists of obs/TraceFormat.h
//===----------------------------------------------------------------------===//

/// Gives every member a distinct value: numbers count up from Next (and
/// are negative in signed members), strings name their key and hold the
/// characters the writer escapes, bools and site ids follow Flag.
struct FillKeys {
  uint64_t Next;
  bool Flag;

  template <typename T> void num(const char *, T &V) {
    if constexpr (std::is_same_v<T, bool>)
      V = Flag;
    else if constexpr (std::is_signed_v<T>)
      V = -static_cast<T>(Next++);
    else
      V = static_cast<T>(Next++);
  }
  void str(const char *Key, std::string &V) {
    V = std::string(Key) + " \"\\\t\n" + std::to_string(Next++);
  }
  void str(const char *Key, std::optional<std::string> &V) {
    str(Key, V.emplace());
  }
  void name(const char *, bool &V, const char *, const char *) { V = Flag; }
  void site(const char *, uint32_t &V) {
    V = Flag ? static_cast<uint32_t>(Next++) : obs::NoSite;
  }
  template <typename T> void group(std::optional<T> &V) {
    obs::listKeys(*this, V.emplace());
  }
};

/// Lists every member as "key=value".
struct ShowKeys {
  std::vector<std::string> Out;

  void add(const char *Key, const std::string &V) {
    Out.push_back(std::string(Key) + "=" + V);
  }
  template <typename T> void num(const char *Key, const T &V) {
    add(Key, std::to_string(V));
  }
  void str(const char *Key, const std::string &V) { add(Key, V); }
  void str(const char *Key, const std::optional<std::string> &V) {
    add(Key, V ? "\"" + *V + "\"" : "(none)");
  }
  void name(const char *Key, bool V, const char *Yes, const char *No) {
    add(Key, V ? Yes : No);
  }
  void site(const char *Key, uint32_t V) { add(Key, std::to_string(V)); }
  template <typename T> void group(const std::optional<T> &V) {
    if (V)
      obs::listKeys(*this, *V);
    else
      Out.push_back("(group absent)");
  }
};

TEST(ObsTraceFormat, EveryKeyOfEveryRecordRoundTrips) {
  // Walks the key lists the tracer writes and readTrace reads through, so
  // a key added there is written, read and checked here with no edit.
  uint64_t Types = 0;
  obs::forEachRecordType([&]<typename T>() {
    ++Types;
    for (bool Flag : {true, false}) {
      SCOPED_TRACE(std::string(T::Type) +
                   (Flag ? " (true)" : " (false)"));
      T V;
      FillKeys Fill{1000 * Types, Flag};
      obs::listKeys(Fill, V);
      std::ostringstream OS;
      obs::writeRecord(OS, V);
      std::string Line = OS.str();
      ASSERT_FALSE(Line.empty());
      ASSERT_EQ(Line.back(), '\n');
      Line.pop_back();

      obs::TraceRecord Rec;
      std::string Err;
      ASSERT_TRUE(obs::parseTraceLine(Line, Rec, Err)) << Err;
      EXPECT_EQ(Rec.Type, T::Type);
      T Back;
      ASSERT_TRUE(obs::decodeRecord(Rec, Back, Err)) << Err;

      ShowKeys Want, Got;
      obs::listKeys(Want, std::as_const(V));
      obs::listKeys(Got, std::as_const(Back));
      EXPECT_EQ(Got.Out, Want.Out) << Line;
      // Each key is on the line once and the line holds no other key.
      EXPECT_EQ(Rec.Ints.size() + Rec.Strs.size(), Want.Out.size()) << Line;
    }
  });
  EXPECT_EQ(Types, 10u);
}

TEST(ObsTraceFormat, NumberThatDoesNotFitItsMemberIsAParseError) {
  const std::string Header = R"({"type":"meta","sites":1})"
                             "\n"
                             R"({"type":"site","id":0,"func":"f"})"
                             "\n";
  for (const auto &[Line, Key] :
       {std::pair{R"({"type":"site_stats","id":0,"count":-1})", "count"},
        {R"({"type":"gc","trigger_site":4294967296})", "trigger_site"},
        {R"({"type":"age_hist","age":-2})", "age"},
        {R"({"type":"leak","site":0,"window":4294967296})", "window"}}) {
    SCOPED_TRACE(Line);
    std::istringstream In(Header + Line + "\n");
    obs::TraceReport Report;
    std::string Err;
    EXPECT_FALSE(obs::readTrace(In, Report, Err));
    EXPECT_EQ(Err, std::string("line 3: \"") + Key + "\" out of range");
  }
}

} // namespace
