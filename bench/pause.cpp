//===- bench/pause.cpp - Pause and MMU recorder ---------------------------===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Records stop-the-world pause times (p50/p99/max) and the minimum
/// mutator utilization (MMU) curve of the serial collector for the §6
/// benchmark programs, a high-thread-count spin mix, destroy scaled to a
/// ~3.2 MB live set in a 4 MiB semispace (the regime where the copy is the
/// whole pause), and destroy run generational with barriers, an
/// auto-sized 16 KiB nursery and the leak detector, as perfbench's
/// server_open runs its program (the minor-collection regime: old→young
/// stores, remembered-set roots, first-collection survival counting).
/// Every row also records the objects and bytes copied and the copy
/// phase's nanoseconds per object copied by full collections.  Pauses are
/// the
/// tracer's per-event TotalNanos (rendezvous + collector span); pause
/// *intervals* for the MMU computation are reconstructed from the VM's
/// PostGcHook, which fires at the end of every pause.
///
/// The figures are recorded, not gated: the binary exits non-zero only
/// when a run fails or prints the wrong output.  Writes BENCH_pause.json.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "Programs.h"

#include "obs/Trace.h"
#include "support/Percentile.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

using namespace mgc;

namespace {

/// The high-thread-count mix: Main churns a small self-looped list (only
/// the head survives, so collections are frequent and cheap) while six
/// Spin threads run allocation-free loops whose compiler-inserted polls
/// are each rendezvous' gc-points.
const char *SpinMixSource = R"(
MODULE SpinMix;
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
  FOR k := 1 TO 30000 DO
    head := NEW(R);
    head^.v := k;
    head^.n := head
  END;
  done := TRUE;
  PutInt(head^.v); PutLn();
END SpinMix.)";
constexpr unsigned SpinMixThreads = 6;

struct Workload {
  std::string Name;
  std::string Expected; ///< The program's output.
  std::unique_ptr<vm::Program> Prog;
  size_t HeapBytes = 1u << 20;
  /// Generational, with an auto-sized nursery and a leak-detecting tracer
  /// that counts per-site survival (the program has write barriers).
  bool Gen = false;
  unsigned SpawnFunc = 0;  ///< Function each extra thread runs (spin mix).
  unsigned SpawnCount = 0; ///< Extra threads to spawn.
};

struct PauseInterval {
  uint64_t Start, End; ///< Nanos since the run's T0.
};

struct PauseRun {
  std::vector<uint64_t> Pauses; ///< TotalNanos per collection.
  std::vector<PauseInterval> Intervals;
  uint64_t RunSpanNanos = 0;
  uint64_t ObjectsCopied = 0, BytesCopied = 0;
  uint64_t MinorCollections = 0;
  /// Copy-phase nanoseconds and objects copied, full collections only.
  uint64_t FullCopyNanos = 0, FullObjectsCopied = 0;
};

PauseRun runOnce(const Workload &W) {
  using Clock = std::chrono::steady_clock;
  vm::VMOptions VO;
  VO.HeapBytes = W.HeapBytes;
  VO.StackWords = 1u << 20;
  if (W.Gen) {
    VO.GenGc = true;
    VO.NurseryAuto = true;
    VO.NurseryBytes = 16u << 10;
  }
  vm::VM M(*W.Prog, VO);
  gc::installPreciseCollector(M);
  for (unsigned I = 0; I != W.SpawnCount; ++I)
    M.spawnThread(W.SpawnFunc);

  obs::TracerConfig TC;
  TC.ProgramName = W.Name;
  if (W.Gen) {
    TC.Sites = &W.Prog->SiteTab;
    TC.GenGc = true;
    TC.Leak.Enabled = true;
  }
  obs::Tracer Tr(TC);
  Tr.enable(nullptr);
  M.Tracer = &Tr;

  PauseRun R;
  Clock::time_point T0;
  M.PostGcHook = [&](vm::VM &) {
    const obs::GcEvent *Ev = Tr.lastCommitted();
    if (!Ev)
      return;
    uint64_t End = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             T0)
            .count());
    uint64_t Start = End > Ev->TotalNanos ? End - Ev->TotalNanos : 0;
    R.Pauses.push_back(Ev->TotalNanos);
    R.Intervals.push_back({Start, End});
    if (!Ev->Minor) {
      R.FullCopyNanos += Ev->Phases.Copy;
      R.FullObjectsCopied += Ev->ObjectsCopied;
    }
  };

  T0 = Clock::now();
  bool Ok = M.run();
  R.RunSpanNanos = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - T0)
          .count());
  R.ObjectsCopied = M.Stats.ObjectsCopied;
  R.BytesCopied = M.Stats.BytesCopied;
  R.MinorCollections = M.Stats.MinorCollections;
  if (!Ok || M.Out != W.Expected) {
    std::fprintf(stderr, "pause: FAIL: %s: %s\n", W.Name.c_str(),
                 Ok ? ("wrong output: " + M.Out).c_str() : M.Error.c_str());
    std::exit(1);
  }
  return R;
}

/// Minimum mutator utilization over every window of \p WindowNs within the
/// run: 1 - (pause time inside the worst window) / window.  The minimum is
/// attained by a window anchored at a pause boundary, so O(P^2) over the
/// boundary anchors is exact.
double mmuAt(const std::vector<PauseInterval> &Pauses, uint64_t SpanNs,
             uint64_t WindowNs) {
  if (WindowNs == 0 || WindowNs > SpanNs)
    return 1.0;
  auto BusyIn = [&](uint64_t Lo, uint64_t Hi) {
    uint64_t Busy = 0;
    for (const PauseInterval &P : Pauses) {
      uint64_t S = std::max(P.Start, Lo), E = std::min(P.End, Hi);
      if (S < E)
        Busy += E - S;
    }
    return Busy;
  };
  double Mmu = 1.0;
  auto Consider = [&](uint64_t Anchor) {
    if (Anchor + WindowNs > SpanNs)
      Anchor = SpanNs - WindowNs;
    uint64_t Busy = BusyIn(Anchor, Anchor + WindowNs);
    double U = 1.0 - static_cast<double>(Busy) / static_cast<double>(WindowNs);
    if (U < Mmu)
      Mmu = U;
  };
  Consider(0);
  for (const PauseInterval &P : Pauses) {
    Consider(P.Start);
    Consider(P.End >= WindowNs ? P.End - WindowNs : 0);
  }
  return Mmu < 0 ? 0 : Mmu;
}

} // namespace

int main() {
  constexpr int Runs = 3;

  const uint64_t MmuWindows[] = {1'000'000, 5'000'000, 20'000'000};

  std::vector<Workload> Work;
  for (const programs::NamedProgram &P : programs::All) {
    driver::CompilerOptions CO;
    CO.OptLevel = 2;
    Workload W;
    W.Name = P.Name;
    W.Expected = P.Expected;
    W.Prog = bench::compileOrDie(P.Name, P.Source, CO);
    // Heaps sized well below bench/dispatch's 1 MiB so every workload
    // actually collects mid-run — this is a pause benchmark, and a run
    // with zero collections has no pauses to measure.
    // takl's whole live set is ~36 list cells, so it never collects at
    // any legal heap size; it is still recorded.
    W.HeapBytes = 64u << 10;
    Work.push_back(std::move(W));
  }
  {
    // The spin mix needs loop polls: each poll is the gc-point the §5.3
    // per-thread handshakes step the spinners to.
    driver::CompilerOptions CO;
    CO.OptLevel = 2;
    CO.ThreadedPolls = true;
    Workload W;
    W.Name = "spinmix";
    W.Expected = "30000\n";
    W.Prog = bench::compileOrDie("spinmix", SpinMixSource, CO);
    W.HeapBytes = 64u << 10;
    W.SpawnCount = SpinMixThreads;
    for (unsigned I = 0; I != W.Prog->Funcs.size(); ++I)
      if (W.Prog->Funcs[I].Name == "Spin")
        W.SpawnFunc = I;
    Work.push_back(std::move(W));
  }
  {
    // destroy scaled to destroy_big's live set: ~3.2 MB in 111.5k objects,
    // copied by every full collection of a 4 MiB semispace.  Last, so the
    // rows recorded before it keep their places in BENCH_pause.json.
    driver::CompilerOptions CO;
    CO.OptLevel = 2;
    std::string Src = bench::destroySource(4, 8, 150);
    Workload W;
    W.Name = "destroy-mb";
    W.Expected = bench::destroyExpected(4, 8, 150);
    W.Prog = bench::compileOrDie("destroy-mb", Src.c_str(), CO);
    W.HeapBytes = 4u << 20;
    Work.push_back(std::move(W));
  }
  {
    // destroy's subtree replacements store young nodes into old ones, so
    // its minor collections have remembered-set roots to forward.  40,000
    // replacements give ~270 minor collections and one full one.
    driver::CompilerOptions CO;
    CO.OptLevel = 2;
    CO.WriteBarriers = true;
    std::string Src = bench::destroySource(3, 6, 40000);
    Workload W;
    W.Name = "destroy-minor";
    W.Expected = bench::destroyExpected(3, 6, 40000);
    W.Prog = bench::compileOrDie("destroy-minor", Src.c_str(), CO);
    W.HeapBytes = 4u << 20;
    W.Gen = true;
    Work.push_back(std::move(W));
  }

  // --- Timing: best (min max-pause) profile per workload over interleaved
  // rounds; MMU from the same best round.
  struct Cell {
    uint64_t P50 = 0, P99 = 0, Max = UINT64_MAX;
    double Mmu[3] = {0, 0, 0};
    uint64_t Collections = 0, MinorCollections = 0;
    uint64_t ObjectsCopied = 0, BytesCopied = 0;
    double CopyNsPerObject = 0;
  };
  std::vector<Cell> Cells(Work.size());
  for (int Round = 0; Round != Runs; ++Round)
    for (size_t I = 0; I != Work.size(); ++I) {
      PauseRun R = runOnce(Work[I]);
      Cell &C = Cells[I];
      uint64_t Max = support::percentile(R.Pauses, 1.0);
      if (Max < C.Max) {
        C.Max = Max;
        C.P50 = support::percentile(R.Pauses, 0.50);
        C.P99 = support::percentile(R.Pauses, 0.99);
        C.Collections = R.Pauses.size();
        C.MinorCollections = R.MinorCollections;
        C.ObjectsCopied = R.ObjectsCopied;
        C.BytesCopied = R.BytesCopied;
        C.CopyNsPerObject =
            R.FullObjectsCopied ? static_cast<double>(R.FullCopyNanos) /
                                      static_cast<double>(R.FullObjectsCopied)
                                : 0;
        for (size_t M = 0; M != 3; ++M)
          C.Mmu[M] = mmuAt(R.Intervals, R.RunSpanNanos, MmuWindows[M]);
      }
    }

  // --- Report -------------------------------------------------------------
  bench::BenchFile File;
  File.J.uint("runs", Runs).beginArray("workloads");
  for (size_t I = 0; I != Work.size(); ++I) {
    const Cell &C = Cells[I];
    File.J.beginObject()
        .str("name", Work[I].Name)
        .uint("collections", C.Collections)
        .uint("minor_collections", C.MinorCollections)
        .uint("pause_p50_ns", C.P50)
        .uint("pause_p99_ns", C.P99)
        .uint("pause_max_ns", C.Max)
        .fixed("mmu_1ms", C.Mmu[0], 4)
        .fixed("mmu_5ms", C.Mmu[1], 4)
        .fixed("mmu_20ms", C.Mmu[2], 4)
        .uint("objects_copied", C.ObjectsCopied)
        .uint("bytes_copied", C.BytesCopied)
        .fixed("copy_ns_per_object", C.CopyNsPerObject, 2)
        .endObject();
    std::printf("pause[%s]: %llu collections (%llu minor), p50 %.1f us, "
                "p99 %.1f us, max %.1f us, MMU(5ms) %.3f, copy %.2f "
                "ns/object\n",
                Work[I].Name.c_str(),
                static_cast<unsigned long long>(C.Collections),
                static_cast<unsigned long long>(C.MinorCollections),
                static_cast<double>(C.P50) / 1e3,
                static_cast<double>(C.P99) / 1e3,
                static_cast<double>(C.Max) / 1e3, C.Mmu[1],
                C.CopyNsPerObject);
  }
  File.J.endArray();
  if (!File.write("BENCH_pause.json"))
    return 1;
  std::printf("pause: ok\n");
  return 0;
}
