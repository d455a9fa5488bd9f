//===- tests/GcGoldenTest.cpp - Byte identity of collector output ---------===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins what the collector produces across commits.  Every corpus, §6 and
/// example program is compiled at -O2 and run in a 64 KiB heap in three
/// modes (two-space, generational, and two-space collecting at every
/// allocation, since most corpus programs never fill 64 KiB), and each
/// run must match its row in tests/golden/gc.tsv: collections, minor
/// collections, objects and bytes copied, roots traced, derived values
/// adjusted, an FNV-1a-64 digest of the heap snapshot captured after
/// every collection, and one of the body of the profile a sampling
/// profiler (interval 256) attached to the run records.  The snapshot
/// digest covers the heap layout (every object's offset, descriptor,
/// site, age and size, every edge and root), so a collector that copies
/// in another order or drops a field fails here even when its counters
/// agree.  The profile digest covers the profiler's table walk of every
/// sampled stack: frames, live slots and registers, derived values,
/// unmapped frames and walk errors.  An enabled tracer with no stream
/// rides every run too; the last field digests its first-collection
/// survival counts: each site's count, bytes, survived and survived bytes,
/// then the run summary's unattributed allocations and bytes.
///
/// A change that alters collector output on purpose replaces the rows the
/// failure message prints and says so in its change notes.
///
//===----------------------------------------------------------------------===//

#include "CheckedInPrograms.h"
#include "GoldenUtil.h"
#include "driver/Compiler.h"
#include "gc/Collector.h"
#include "gc/Snapshot.h"
#include "obs/Profile.h"
#include "obs/Trace.h"
#include "obs/TraceFormat.h"

#include <gtest/gtest.h>

#include <iterator>
#include <sstream>
#include <string>
#include <vector>

using namespace mgc;

namespace {

constexpr size_t GoldenHeapBytes = 64u << 10;

enum class Mode { TwoSpace, Gen, Stress };
constexpr Mode Modes[] = {Mode::TwoSpace, Mode::Gen, Mode::Stress};
const char *modeName(Mode Md) {
  return Md == Mode::Gen      ? "gen"
         : Md == Mode::Stress ? "stress"
                              : "two-space";
}

/// The tracer's run summary, read back through the run record's keys.
obs::RunSummary runSummary(const obs::Tracer &T) {
  std::string Line;
  support::JsonWriter J(Line);
  J.beginObject().str("type", obs::RunRecord::Type);
  T.writeSummaryJson(J);
  J.endObject();
  obs::TraceRecord Rec;
  obs::RunSummary Sum;
  std::string Err;
  EXPECT_TRUE(obs::parseTraceLine(Line, Rec, Err) &&
              obs::decodeRecord(Rec, Sum, Err))
      << Err;
  return Sum;
}

/// Runs \p S in mode \p Md and returns its row.  The snapshot's
/// provenance fields are blanked before encoding so the digest does not
/// depend on the toolchain that built the test.  A capture that fails
/// folds its message into the digest instead; none of the checked-in
/// programs' captures fails.
std::string runRow(const test::NamedSource &S, Mode Md) {
  bool GenGc = Md == Mode::Gen;
  driver::CompilerOptions CO;
  CO.OptLevel = 2;
  CO.WriteBarriers = GenGc;
  driver::CompileResult C = driver::compile(S.Source, CO);
  if (!C.Prog) {
    ADD_FAILURE() << S.Name << ": compilation failed:\n" << C.Diags.str();
    return "";
  }
  vm::VMOptions VO;
  VO.HeapBytes = GoldenHeapBytes;
  VO.GenGc = GenGc;
  VO.GcStress = Md == Mode::Stress;
  vm::VM M(*C.Prog, VO);
  gc::installPreciseCollector(M);
  obs::ProfilerConfig PC;
  PC.IntervalInstrs = 256;
  obs::Profiler Prof(*C.Prog, PC);
  M.Profiler = &Prof;
  obs::TracerConfig TC;
  TC.Sites = &C.Prog->SiteTab;
  TC.GenGc = GenGc;
  obs::Tracer Tracer(std::move(TC));
  Tracer.enable(nullptr);
  M.Tracer = &Tracer;
  test::Fnv64 Snaps;
  obs::HeapSnapshot Snap;
  std::vector<uint8_t> Blob;
  M.PostGcHook = [&](vm::VM &V) {
    std::string Err;
    if (!gc::captureHeapSnapshot(V, Snap, /*WalkStacks=*/true, Err)) {
      Snaps.bytes(Err.data(), Err.size());
      return;
    }
    Snap.ToolVersion.clear();
    Snap.BuildFlags.clear();
    Blob.clear();
    obs::encodeSnapshot(Snap, Blob);
    Snaps.u64(Blob.size());
    Snaps.bytes(Blob.data(), Blob.size());
  };
  bool Ok = M.run();
  EXPECT_TRUE(Ok) << S.Name << " " << modeName(Md) << ": " << M.Error;
  Prof.finish(Ok, M.Error, M.Stats.Instrs);
  Blob.clear();
  obs::encodeProfileBody(Prof.buildProfile(), Blob);
  test::Fnv64 ProfBody;
  ProfBody.bytes(Blob.data(), Blob.size());
  test::Fnv64 Survival;
  for (const obs::SiteCounters &SC : Tracer.siteCounters())
    for (uint64_t V : {SC.Count, SC.Bytes, SC.Survived, SC.SurvivedBytes})
      Survival.u64(V);
  obs::RunSummary Sum = runSummary(Tracer);
  for (uint64_t V : {Sum.UnattributedAllocs, Sum.UnattributedBytes})
    Survival.u64(V);
  const vm::VMStats &St = M.Stats;
  std::ostringstream Row;
  Row << S.Name << '\t' << modeName(Md) << '\t'
      << St.Collections << '\t' << St.MinorCollections << '\t'
      << St.ObjectsCopied << '\t' << St.BytesCopied << '\t'
      << St.RootsTraced << '\t' << St.DerivedAdjusted << '\t' << Snaps.hex()
      << '\t' << ProfBody.hex() << '\t' << Survival.hex();
  return Row.str();
}

} // namespace

TEST(GcGolden, CollectorOutputMatchesCheckedInRows) {
  std::map<std::string, std::string> Golden = test::readGolden("gc.tsv");
  ASSERT_FALSE(Golden.empty()) << "cannot read tests/golden/gc.tsv";

  std::vector<test::NamedSource> Sources = test::checkedInPrograms();
  EXPECT_EQ(Golden.size(), Sources.size() * std::size(Modes))
      << "stale or missing rows in tests/golden/gc.tsv";
  for (const test::NamedSource &S : Sources) {
    ASSERT_FALSE(S.Source.empty()) << S.Name;
    for (Mode Md : Modes) {
      std::string Row = runRow(S, Md);
      auto It = Golden.find(test::goldenKey(Row));
      std::string Want = It == Golden.end() ? "(no row)" : It->second;
      EXPECT_EQ(Row, Want) << "replacement row:\n" << Row;
    }
  }
}
