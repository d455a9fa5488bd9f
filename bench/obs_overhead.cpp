//===- bench/obs_overhead.cpp - Observability cost and accuracy gates -----===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Gates the four observability features, one row of the Features table
/// each, and writes BENCH_<row>.json for every row before it exits 1 on
/// any failed gate:
///
///   trace     the gc event tracer (obs/Trace.h), absent / attached but
///             disabled / enabled, on the gengc workloads in both collector
///             modes.  Gate (generational): disabled <= 1%, enabled <= 3%.
///             Also records each mode's pause p50/p95/max from the enabled
///             runs.
///   snapshot  a heap snapshot (gc/Snapshot.h) captured at every full
///             collection of the generational gengc workloads.  Gate: the
///             fastest capture costs no more than the slowest full pause,
///             so a user can afford a snapshot whenever they can afford a
///             collection.  Also cross-checks and sizes the at-exit
///             snapshots of the §6 programs; MGC_SNAP_DIR=DIR also writes
///             them to DIR/<name>.snap for mgc-heapsnap.
///   leak      the online growth detector (obs/Trace.h LeakConfig) with
///             the tracer enabled in every cell: no leak config / detector
///             configured but disabled / enabled, in both modes.  Gate
///             (generational): off <= 1%, on <= 3%.  Also: an injected
///             leak is flagged at its allocation site within K = 8 full
///             collections, the leak-free §6 suite flags nothing, and the
///             flags are byte-identical across dispatch tiers.
///   prof      the sampling profiler (obs/Profile.h), absent / attached
///             but disabled / enabled, generational.  Gate: disabled <= 1%,
///             enabled <= 5%; a directed workload puts >= 90% of its
///             sampled weight on its hot leaf with no walk errors, and the
///             two dispatch tiers encode byte-identical profile bodies.
///
/// Timing is process CPU time, min-of-N over interleaved rounds.  Next to
/// each overhead the file records the median and interquartile range of
/// the per-round overheads; those are reported, not gated.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "Programs.h"

#include "gc/Snapshot.h"
#include "obs/HeapSnapshot.h"
#include "obs/Profile.h"
#include "obs/Trace.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

using namespace mgc;
using bench::Workload;
using support::JsonWriter;

namespace {

const char *modeName(bool Gen) { return Gen ? "gen" : "two-space"; }

using ProgramList = std::vector<std::unique_ptr<vm::Program>>;

/// Compiles every workload at -O2, with write barriers in generational
/// mode.
ProgramList compileAll(const std::vector<Workload> &Work, bool Gen) {
  ProgramList Progs;
  for (const Workload &W : Work) {
    driver::CompilerOptions CO;
    CO.OptLevel = 2;
    CO.WriteBarriers = Gen;
    Progs.push_back(bench::compileOrDie(W.Name, W.Source.c_str(), CO));
  }
  return Progs;
}

vm::VMOptions vmOptions(size_t HeapBytes, bool Gen, size_t NurseryBytes,
                        vm::DispatchTier Tier = vm::DispatchTier::Threaded) {
  vm::VMOptions VO;
  VO.HeapBytes = HeapBytes;
  VO.StackWords = 1u << 20;
  VO.GenGc = Gen;
  VO.NurseryBytes = Gen ? NurseryBytes : 0;
  VO.Dispatch = Tier;
  return VO;
}

/// One run of a program with whatever hooks a feature attaches.  The
/// hooks are built before the timed region: a real run attaches once and
/// runs for a long time.
struct Run {
  vm::VM M;
  std::unique_ptr<obs::Tracer> Tracer;
  std::unique_ptr<obs::Profiler> Prof;

  Run(const vm::Program &Prog, const vm::VMOptions &VO) : M(Prog, VO) {
    gc::installPreciseCollector(M);
  }
  Run(const vm::Program &Prog, const Workload &W, bool Gen)
      : Run(Prog, vmOptions(W.HeapBytes, Gen, W.NurseryBytes)) {}

  obs::Tracer &attachTracer(obs::TracerConfig TC, bool Enable) {
    TC.Sites = &M.Prog.SiteTab;
    TC.GenGc = M.Opts.GenGc;
    Tracer = std::make_unique<obs::Tracer>(std::move(TC));
    if (Enable)
      Tracer->enable(/*Stream=*/nullptr);
    M.Tracer = Tracer.get();
    return *Tracer;
  }

  /// Runs the program and returns its CPU time; a failed run is fatal.
  uint64_t time(const char *Name) {
    uint64_t T0 = bench::cpuNanos();
    bool Ok = M.run();
    uint64_t Ns = bench::cpuNanos() - T0;
    if (!Ok) {
      std::fprintf(stderr, "obs_overhead: %s (%s): run failed: %s\n", Name,
                   modeName(M.Opts.GenGc), M.Error.c_str());
      std::exit(1);
    }
    return Ns;
  }
};

double pct(uint64_t Cell, uint64_t Base) {
  return 100.0 * (static_cast<double>(Cell) - static_cast<double>(Base)) /
         static_cast<double>(Base);
}

/// The \p Q-quantile of \p V, interpolating between order statistics.
double quantile(std::vector<double> V, double Q) {
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (Pos - static_cast<double>(Lo)) * (V[Hi] - V[Lo]);
}

/// The result of timeInterleaved.
struct Timing {
  std::vector<std::vector<uint64_t>> Min;    ///< [workload][cell] fastest.
  std::vector<std::vector<uint64_t>> Rounds; ///< [round][cell] summed.

  uint64_t total(size_t Cell) const {
    uint64_t T = 0;
    for (const std::vector<uint64_t> &W : Min)
      T += W[Cell];
    return T;
  }
  /// The min-of-N estimate: summed minima against cell 0's.
  double overheadPct(size_t Cell) const { return pct(total(Cell), total(0)); }
  /// Each round's summed cell time against its summed cell-0 time.
  std::vector<double> roundPcts(size_t Cell) const {
    std::vector<double> P;
    for (const std::vector<uint64_t> &R : Rounds)
      P.push_back(pct(R[Cell], R[0]));
    return P;
  }
};

/// Min-of-N over interleaved rounds: each round runs every workload under
/// every cell in turn (\p Time(W, C) returns one run's CPU time), so a
/// machine-wide slowdown hits all cells alike.  One untimed warm-up run
/// per workload comes first (\p Warm, or cell 0).  After \p Runs rounds,
/// while \p Failing holds, up to 3 x Runs more: minima only tighten, so
/// bounded extra rounds outvote a noisy round before an overage counts
/// as real.
Timing timeInterleaved(size_t NumWorkloads, size_t NumCells, int Runs,
                       const std::function<uint64_t(size_t, size_t)> &Time,
                       const std::function<bool(const Timing &)> &Failing,
                       const std::function<void(size_t)> &Warm = {}) {
  Timing T;
  T.Min.assign(NumWorkloads, std::vector<uint64_t>(NumCells, UINT64_MAX));
  // Storage for every possible round exists before the first run, so
  // nothing is allocated between timed runs and each run's VM lands on the
  // same heap layout.
  T.Rounds.assign(4 * Runs, std::vector<uint64_t>(NumCells, 0));
  size_t Done = 0;
  for (size_t W = 0; W != NumWorkloads; ++W) {
    if (Warm)
      Warm(W);
    else
      Time(W, 0);
  }
  auto Round = [&] {
    std::vector<uint64_t> &Sum = T.Rounds[Done++];
    for (size_t W = 0; W != NumWorkloads; ++W)
      for (size_t C = 0; C != NumCells; ++C) {
        uint64_t Ns = Time(W, C);
        Sum[C] += Ns;
        T.Min[W][C] = std::min(T.Min[W][C], Ns);
      }
  };
  for (int R = 0; R != Runs; ++R)
    Round();
  for (int Extra = 0; Failing(T) && Extra < 3 * Runs; ++Extra)
    Round();
  T.Rounds.resize(Done);
  return T;
}

//===----------------------------------------------------------------------===//
// The feature table
//===----------------------------------------------------------------------===//

/// One row: a feature timed in three cells — absent, attached but
/// disabled, enabled — against the limits on cells 1 and 2, plus the
/// feature's own checks in Gate.  Snapshot has no cells.
struct Feature {
  const char *Name; ///< BENCH_<Name>.json and the log prefix.
  int Runs;         ///< Timing rounds before any extra ones.
  const std::vector<Workload> &(*Workloads)();
  const char *Cells[3]; ///< Key infix: wall_<cell>_ns, overhead_<cell>_pct.
  double LimitPct[2];   ///< Generational-mode limits on cells 1 and 2.
  /// Attaches the feature to \p R as cell \p Cell.
  void (*Attach)(Run &R, size_t Cell);
  /// Measures and writes the file's body; true when every gate passes.
  bool (*Gate)(const Feature &F, JsonWriter &J);

  bool withinLimits(const Timing &T) const {
    return T.overheadPct(1) <= LimitPct[0] && T.overheadPct(2) <= LimitPct[1];
  }
  void writeLimits(JsonWriter &J) const {
    J.fixed(std::string(Cells[1]) + "_limit_pct", LimitPct[0])
        .fixed(std::string(Cells[2]) + "_limit_pct", LimitPct[1]);
  }
};

/// Called after each timed run, with the run still alive.
using RunHook = std::function<void(size_t W, size_t Cell, Run &R)>;

/// Times \p F's three cells in one collector mode and writes the
/// "workloads" array, the totals and the overheads into \p J's open
/// object.  Extra rounds are bought only for the gated generational mode.
Timing timeCells(const Feature &F, bool Gen, JsonWriter &J,
                 const RunHook &OnRun = {}) {
  const std::vector<Workload> &Work = F.Workloads();
  ProgramList Progs = compileAll(Work, Gen);
  Timing T = timeInterleaved(
      Work.size(), 3, F.Runs,
      [&](size_t W, size_t C) {
        Run R(*Progs[W], Work[W], Gen);
        F.Attach(R, C);
        uint64_t Ns = R.time(Work[W].Name);
        if (OnRun)
          OnRun(W, C, R);
        return Ns;
      },
      [&](const Timing &T) { return Gen && !F.withinLimits(T); });

  J.beginArray("workloads");
  for (size_t W = 0; W != Work.size(); ++W) {
    J.beginObject().str("name", Work[W].Name);
    for (size_t C = 0; C != 3; ++C)
      J.uint(std::string("wall_") + F.Cells[C] + "_ns", T.Min[W][C]);
    J.endObject();
  }
  J.endArray();
  for (size_t C = 0; C != 3; ++C)
    J.uint(std::string("total_") + F.Cells[C] + "_ns", T.total(C));
  for (size_t C = 1; C != 3; ++C) {
    std::string Key = std::string("overhead_") + F.Cells[C];
    std::vector<double> PerRound = T.roundPcts(C);
    J.fixed(Key + "_pct", T.overheadPct(C))
        .fixed(Key + "_round_median_pct", quantile(PerRound, 0.5))
        .fixed(Key + "_round_iqr_pct",
               quantile(PerRound, 0.75) - quantile(PerRound, 0.25));
  }

  std::printf("%s[%s]: %s %.3f ms, %s %.3f ms (%+.2f%%), %s %.3f ms "
              "(%+.2f%%)\n",
              F.Name, modeName(Gen), F.Cells[0],
              static_cast<double>(T.total(0)) / 1e6, F.Cells[1],
              static_cast<double>(T.total(1)) / 1e6, T.overheadPct(1),
              F.Cells[2], static_cast<double>(T.total(2)) / 1e6,
              T.overheadPct(2));
  return T;
}

/// timeCells in generational then two-space mode, as the "modes" array;
/// \p Extra adds members to each mode's object.  Returns the generational
/// timing, the one the gate reads.
Timing timeModes(const Feature &F, JsonWriter &J, const RunHook &OnRun = {},
                 const std::function<void()> &Extra = {}) {
  Timing GenT;
  J.beginArray("modes");
  for (bool Gen : {true, false}) {
    J.beginObject().str("mode", modeName(Gen));
    Timing T = timeCells(F, Gen, J, OnRun);
    if (Extra)
      Extra();
    J.endObject();
    if (Gen)
      GenT = std::move(T);
  }
  J.endArray();
  return GenT;
}

/// Writes "gate" for a feature timed in both modes, opening the object for
/// the caller's extra members.
void beginModesGate(const Feature &F, const Timing &Gen, JsonWriter &J) {
  J.beginObject("gate");
  F.writeLimits(J);
  J.fixed(std::string("gen_") + F.Cells[1] + "_pct", Gen.overheadPct(1))
      .fixed(std::string("gen_") + F.Cells[2] + "_pct", Gen.overheadPct(2));
}

//===--- trace ------------------------------------------------------------===//

void attachTrace(Run &R, size_t Cell) {
  if (Cell != 0)
    R.attachTracer({}, /*Enable=*/Cell == 2);
}

bool gateTrace(const Feature &F, JsonWriter &J) {
  // Each workload's pauses from its latest enabled run; a mode reports the
  // worst per-workload percentile rather than pooling unlike heaps.
  size_t NW = F.Workloads().size();
  std::vector<obs::Tracer::Percentiles> Minor(NW), Full(NW);
  auto WritePauses = [&](const char *Kind,
                         const std::vector<obs::Tracer::Percentiles> &Ps) {
    obs::Tracer::Percentiles P;
    for (const obs::Tracer::Percentiles &Q : Ps) {
      P.Count += Q.Count;
      P.P50 = std::max(P.P50, Q.P50);
      P.P95 = std::max(P.P95, Q.P95);
      P.Max = std::max(P.Max, Q.Max);
    }
    std::string K = Kind;
    J.uint(K + "_pauses", P.Count)
        .uint(K + "_pause_p50_ns", P.P50)
        .uint(K + "_pause_p95_ns", P.P95)
        .uint(K + "_pause_max_ns", P.Max);
    std::printf("  %s pauses (enabled): p50 %llu ns p95 %llu ns (%llu)\n",
                Kind, static_cast<unsigned long long>(P.P50),
                static_cast<unsigned long long>(P.P95),
                static_cast<unsigned long long>(P.Count));
  };
  Timing Gen = timeModes(
      F, J,
      [&](size_t W, size_t Cell, Run &R) {
        if (Cell == 2) {
          Minor[W] = R.Tracer->pausePercentiles(1);
          Full[W] = R.Tracer->pausePercentiles(2);
        }
      },
      [&] {
        WritePauses("minor", Minor);
        WritePauses("full", Full);
      });
  bool Pass = F.withinLimits(Gen);
  beginModesGate(F, Gen, J);
  J.boolean("pass", Pass).endObject();
  return Pass;
}

//===--- snapshot ---------------------------------------------------------===//

bool gateSnapshot(const Feature &F, JsonWriter &J) {
  const std::vector<Workload> &Work = F.Workloads();
  const size_t NW = Work.size();
  ProgramList Progs = compileAll(Work, /*Gen=*/true);

  // Fastest capture and slowest full pause per workload over all rounds;
  // the node count of the latest capture.
  std::vector<uint64_t> MinCap(NW, UINT64_MAX), MaxPause(NW, 0), Nodes(NW, 0);
  auto CaptureOk = [&] {
    for (size_t I = 0; I != NW; ++I)
      if (MinCap[I] != UINT64_MAX && MinCap[I] > MaxPause[I])
        return false;
    return true;
  };
  // One run with the tracer enabled; with \p Capture, a snapshot is taken
  // (and timed) at every full-collection gc-point — the live-peak heap
  // with full stacks — reusing one snapshot object so steady-state
  // captures run out of grown buffers.
  auto RunGen = [&](size_t W, bool Capture) {
    Run R(*Progs[W], Work[W], /*Gen=*/true);
    obs::Tracer &Tracer = R.attachTracer({}, /*Enable=*/true);
    obs::HeapSnapshot Snap;
    uint64_t FullSeen = 0;
    if (Capture)
      R.M.PostGcHook = [&](vm::VM &Inner) {
        uint64_t Full =
            Inner.Stats.Collections - Inner.Stats.MinorCollections;
        if (Full == FullSeen)
          return; // minor collection: capture only at full-collection points
        FullSeen = Full;
        std::string Err;
        uint64_t T0 = bench::cpuNanos();
        if (!gc::captureHeapSnapshot(Inner, Snap, /*WalkStacks=*/true, Err)) {
          std::fprintf(stderr, "obs_overhead: capture failed: %s\n",
                       Err.c_str());
          std::exit(1);
        }
        MinCap[W] = std::min(MinCap[W], bench::cpuNanos() - T0);
        Nodes[W] = Snap.Nodes.size();
      };
    uint64_t Ns = R.time(Work[W].Name);
    if (Capture)
      MaxPause[W] = std::max(MaxPause[W], Tracer.pausePercentiles(2).Max);
    return Ns;
  };
  timeInterleaved(
      NW, 1, F.Runs, [&](size_t W, size_t) { return RunGen(W, true); },
      [&](const Timing &) { return !CaptureOk(); },
      [&](size_t W) { RunGen(W, false); });

  J.beginArray("workloads");
  for (size_t I = 0; I != NW; ++I) {
    uint64_t Cap = MinCap[I] == UINT64_MAX ? 0 : MinCap[I];
    J.beginObject()
        .str("name", Work[I].Name)
        .uint("capture_min_ns", Cap)
        .uint("full_pause_max_ns", MaxPause[I])
        .uint("snap_nodes", Nodes[I])
        .endObject();
    std::printf("snapshot[%s]: capture min %.1f us vs full pause max %.1f us "
                "(%llu nodes)\n",
                Work[I].Name, static_cast<double>(Cap) / 1e3,
                static_cast<double>(MaxPause[I]) / 1e3,
                static_cast<unsigned long long>(Nodes[I]));
  }
  J.endArray();

  // At-exit snapshot sizes on the §6 programs (two-space, -O2), each
  // cross-checked against an independent precise re-trace.
  const char *Dir = std::getenv("MGC_SNAP_DIR");
  J.beginArray("sizes");
  for (const programs::NamedProgram &P : programs::All) {
    driver::CompilerOptions CO;
    CO.OptLevel = 2;
    auto Prog = bench::compileOrDie(P.Name, P.Source, CO);
    Run R(*Prog, vmOptions(4u << 20, /*Gen=*/false, 0));
    R.time(P.Name);
    obs::HeapSnapshot Snap;
    std::string Err;
    if (!gc::captureHeapSnapshot(R.M, Snap, /*WalkStacks=*/true, Err) ||
        !gc::crosscheckSnapshot(R.M, Snap, /*WalkStacks=*/true, Err)) {
      std::fprintf(stderr, "obs_overhead: %s: %s\n", P.Name, Err.c_str());
      std::exit(1);
    }
    std::vector<uint8_t> Blob;
    obs::encodeSnapshot(Snap, Blob);
    if (Dir) {
      std::string Path = std::string(Dir) + "/" + P.Name + ".snap";
      std::FILE *Out = std::fopen(Path.c_str(), "wb");
      bool Ok = Out && std::fwrite(Blob.data(), 1, Blob.size(), Out) ==
                           Blob.size();
      if (Out && std::fclose(Out) != 0)
        Ok = false;
      if (!Ok) {
        std::fprintf(stderr, "obs_overhead: cannot write %s\n", Path.c_str());
        std::exit(1);
      }
    }
    J.beginObject()
        .str("name", P.Name)
        .uint("nodes", Snap.Nodes.size())
        .uint("edges", Snap.Edges.size())
        .uint("roots", Snap.Roots.size())
        .uint("live_bytes", Snap.totalBytes())
        .uint("encoded_bytes", Blob.size())
        .endObject();
    std::printf("snapshot[%s]: %zu nodes, %zu edges, %llu live bytes, %zu "
                "encoded bytes\n",
                P.Name, Snap.Nodes.size(), Snap.Edges.size(),
                static_cast<unsigned long long>(Snap.totalBytes()),
                Blob.size());
  }
  J.endArray();

  bool Pass = CaptureOk();
  J.beginObject("gate")
      .boolean("capture_within_pause", Pass)
      .boolean("pass", Pass)
      .endObject();
  return Pass;
}

//===--- leak -------------------------------------------------------------===//

constexpr uint32_t LeakWindow = 8; // K: the detection-latency bound.

/// Heaps several times the live set.  The tracer gate wants maximal
/// collection pressure, but the detector's only costs are a per-object add
/// inside the full-collection copy loop and an O(sites) merge per full
/// collection, so its honest denominator is a run where full collections
/// are periodic, as in a production heap, not back-to-back.
const std::vector<Workload> &leakWorkloads() {
  static const std::vector<Workload> W = {
      {"destroy", bench::destroySource(3, 6, 220), nullptr, 160u << 10,
       8u << 10},
      {"destroy-big", bench::destroySource(3, 7, 200), nullptr, 640u << 10,
       16u << 10},
      {"typereg", programs::TypeRegSource, programs::TypeRegExpected,
       128u << 10, 8u << 10},
  };
  return W;
}

void attachLeak(Run &R, size_t Cell) {
  obs::TracerConfig TC;
  if (Cell != 0) {
    TC.Leak.Enabled = Cell == 2;
    TC.Leak.Window = LeakWindow;
    TC.Leak.MinBytes = 4096;
  }
  R.attachTracer(std::move(TC), /*Enable=*/true);
}

/// The injected-leak program: Grow() prepends one cell to a global chain
/// that is never trimmed (the leak), Churn() allocates transient cells
/// that die immediately (collection pressure).  Grow's NEW is the one
/// site the detector must flag.  The periodic GcCollect() guarantees
/// full collections under gen-gc, where the transients die in the
/// nursery and the promoted chain alone never fills the old space.
const char *LeakSource = R"MG(
MODULE LeakBench;

TYPE
  Cell = REF CellRec;
  CellRec = RECORD v: INTEGER; next: Cell END;

VAR
  leak: Cell;
  i, s: INTEGER;

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
  FOR i := 1 TO 600 DO
    leak := Grow(leak, i);
    s := (s + Churn(40)) MOD 1000000007;
    IF i MOD 25 = 0 THEN GcCollect() END
  END;
  PutInt(s);
  PutLn()
END LeakBench.
)MG";

/// One detector-enabled functional run: the flags, plus the serialized
/// form the determinism check byte-compares (the same
/// "site:slope:live:first;" shape the fuzz oracle uses).
struct DetectResult {
  std::vector<obs::Tracer::LeakFlag> Flags;
  std::string Serialized;
  uint64_t Collections = 0;
  std::string Output;
};

DetectResult runDetect(const vm::Program &Prog, size_t HeapBytes, bool Gen,
                       size_t NurseryBytes, vm::DispatchTier Tier,
                       uint64_t MinBytes) {
  Run R(Prog, vmOptions(HeapBytes, Gen, NurseryBytes, Tier));
  obs::TracerConfig TC;
  TC.Leak.Enabled = true;
  TC.Leak.Window = LeakWindow;
  TC.Leak.MinBytes = MinBytes;
  obs::Tracer &Tracer = R.attachTracer(std::move(TC), /*Enable=*/true);
  R.time(Prog.Name.c_str());

  DetectResult D;
  D.Flags = Tracer.leakFlags();
  for (const obs::Tracer::LeakFlag &F : D.Flags)
    D.Serialized += std::to_string(F.Site) + ':' +
                    std::to_string(F.SlopeBytes) + ':' +
                    std::to_string(F.LiveBytes) + ':' +
                    std::to_string(F.FirstFlagged) + ';';
  D.Collections = R.M.Stats.Collections;
  D.Output = R.M.Out;
  return D;
}

bool gateLeak(const Feature &F, JsonWriter &J) {
  J.uint("window", LeakWindow);
  Timing Gen = timeModes(F, J);
  bool OverheadPass = F.withinLimits(Gen);

  // Detection on the injected leak.
  driver::CompilerOptions CO;
  CO.OptLevel = 2;
  auto LeakProg = bench::compileOrDie("leakbench", LeakSource, CO);
  CO.WriteBarriers = true;
  auto LeakProgWB = bench::compileOrDie("leakbench", LeakSource, CO);
  std::vector<uint32_t> GrowSites;
  for (uint32_t Id = 0; Id != LeakProg->SiteTab.Sites.size(); ++Id) {
    uint32_t Func = LeakProg->SiteTab.Sites[Id].Func;
    if (Func < LeakProg->Funcs.size() && LeakProg->Funcs[Func].Name == "Grow")
      GrowSites.push_back(Id);
  }
  if (GrowSites.size() != 1) {
    std::fprintf(stderr, "leak: expected exactly 1 site in Grow, got %zu\n",
                 GrowSites.size());
    std::exit(1);
  }

  // Two-space, small heap: every collection is full (one detector sample
  // each), churn forces one every few dozen iterations, and the chain is
  // past MinBytes=64 by the first sample — so the earliest possible flag
  // is the Window-th collection, and "within K collections" is exact.
  DetectResult D = runDetect(*LeakProg, 32u << 10, /*Gen=*/false, 0,
                             vm::DispatchTier::Threaded, /*MinBytes=*/64);
  bool DetectPass = D.Flags.size() == 1 && D.Flags[0].Site == GrowSites[0] &&
                    D.Flags[0].FirstFlagged <= LeakWindow;
  if (DetectPass)
    std::printf("leak: injected leak flagged at site %u, collection "
                "%llu/%llu (K=%u), slope %+lld B/gc\n",
                D.Flags[0].Site,
                static_cast<unsigned long long>(D.Flags[0].FirstFlagged),
                static_cast<unsigned long long>(D.Collections), LeakWindow,
                static_cast<long long>(D.Flags[0].SlopeBytes));
  else
    std::fprintf(stderr,
                 "leak: FAIL: expected the Grow site (%u) alone flagged "
                 "within K=%u collections; got %zu flag(s), first site %lld "
                 "at collection %llu\n",
                 GrowSites[0], LeakWindow, D.Flags.size(),
                 D.Flags.empty() ? -1LL
                                 : static_cast<long long>(D.Flags[0].Site),
                 static_cast<unsigned long long>(
                     D.Flags.empty() ? 0 : D.Flags[0].FirstFlagged));
  J.beginObject("detect")
      .uint("grow_site", GrowSites[0])
      .uint("flags", D.Flags.size())
      .uint("first_flagged", D.Flags.empty() ? 0 : D.Flags[0].FirstFlagged)
      .uint("collections", D.Collections)
      .boolean("pass", DetectPass)
      .endObject();

  // The leak-free §6 suite: zero flags.  64 KiB (bench/pause's sizing)
  // keeps every program collecting mid-run; takl's tiny live set never
  // collects, which trivially (and correctly) produces zero flags.
  bool CleanPass = true;
  J.beginArray("leak_free");
  for (const programs::NamedProgram &P : programs::All) {
    driver::CompilerOptions PCO;
    PCO.OptLevel = 2;
    auto Prog = bench::compileOrDie(P.Name, P.Source, PCO);
    DetectResult R = runDetect(*Prog, 64u << 10, /*Gen=*/false, 0,
                               vm::DispatchTier::Threaded, /*MinBytes=*/4096);
    if (!R.Flags.empty()) {
      CleanPass = false;
      std::fprintf(stderr,
                   "leak: FAIL: leak-free program %s flagged %zu site(s), "
                   "first site %u slope %+lld B/gc\n",
                   P.Name, R.Flags.size(), R.Flags[0].Site,
                   static_cast<long long>(R.Flags[0].SlopeBytes));
    }
    J.beginObject()
        .str("name", P.Name)
        .uint("collections", R.Collections)
        .uint("flags", R.Flags.size())
        .endObject();
  }
  J.endArray();
  if (CleanPass)
    std::printf("leak: leak-free suite clean (0 flags on all %zu programs)\n",
                std::size(programs::All));

  // Within one collector mode the collection schedule is fixed, so the
  // serialized flags must be byte-identical across dispatch tiers.
  // (Across modes the schedules differ: each mode is its own class.)
  bool DetPass = true;
  uint64_t Variants = 0;
  for (bool Gen : {false, true}) {
    DetectResult Ref;
    for (vm::DispatchTier Tier :
         {vm::DispatchTier::Threaded, vm::DispatchTier::Switch}) {
      DetectResult R = runDetect(Gen ? *LeakProgWB : *LeakProg, 32u << 10,
                                 Gen, 4u << 10, Tier, /*MinBytes=*/64);
      if (Variants++ % 2 == 0) {
        Ref = R;
        // The gen run must still catch the leak (samples come from full
        // collections only; the growing chain forces them).
        if (Gen && R.Flags.empty()) {
          DetPass = false;
          std::fprintf(stderr,
                       "leak: FAIL: gen-mode detection run flagged nothing\n");
        }
      } else if (R.Serialized != Ref.Serialized || R.Output != Ref.Output) {
        DetPass = false;
        std::fprintf(stderr,
                     "leak: FAIL: nondeterministic flags (%s, %s tier):\n"
                     "  ref  \"%s\"\n  got  \"%s\"\n",
                     modeName(Gen), vm::dispatchTierName(Tier),
                     Ref.Serialized.c_str(), R.Serialized.c_str());
      }
    }
  }
  if (DetPass)
    std::printf("leak: flags byte-identical across %llu tier variants\n",
                static_cast<unsigned long long>(Variants));
  J.beginObject("determinism")
      .uint("variants", Variants)
      .boolean("pass", DetPass)
      .endObject();

  bool Pass = OverheadPass && DetectPass && CleanPass && DetPass;
  beginModesGate(F, Gen, J);
  J.boolean("overhead_pass", OverheadPass).boolean("pass", Pass).endObject();
  return Pass;
}

//===--- prof -------------------------------------------------------------===//

void attachProf(Run &R, size_t Cell) {
  if (Cell == 0)
    return;
  obs::ProfilerConfig PC;
  PC.Enabled = Cell == 2;
  R.Prof = std::make_unique<obs::Profiler>(R.M.Prog, PC);
  R.M.Profiler = R.Prof.get();
}

/// Ground-truth program: Work() allocates and folds every loop iteration,
/// so practically all instructions (and all gc-points) retire inside it;
/// the main body only loops and accumulates.
const char *HotSource = R"(MODULE Hot;
TYPE
  Cell = REF CellRec;
  CellRec = RECORD v: INTEGER; next: Cell END;
VAR
  sink, r: INTEGER;

PROCEDURE Work(n: INTEGER): INTEGER;
VAR c: Cell; s, i: INTEGER;
BEGIN
  s := 0;
  FOR i := 1 TO n DO
    c := NEW(Cell);
    c^.v := i;
    s := (s + c^.v + i * i) MOD 1000000007
  END;
  RETURN s
END Work;

BEGIN
  sink := 0;
  FOR r := 1 TO 300 DO
    sink := (sink + Work(400)) MOD 1000000007
  END;
  PutInt(sink); PutLn()
END Hot.
)";

/// Runs the ground-truth program under \p Tier and returns its profile.
obs::Profile profiledRun(const vm::Program &Prog, vm::DispatchTier Tier) {
  Run R(Prog, vmOptions(64u << 10, /*Gen=*/false, 0, Tier));
  obs::ProfilerConfig PC;
  PC.IntervalInstrs = 512;
  obs::Profiler Prof(Prog, PC);
  R.M.Profiler = &Prof;
  R.time("hot");
  Prof.finish(/*Ok=*/true, R.M.Error, R.M.Stats.Instrs);
  return Prof.buildProfile();
}

/// Share of the sampled mutator weight whose leaf function is \p Func.
double leafWeightPct(const obs::Profile &P, const char *Func) {
  uint32_t Target = 0xFFFFFFFFu;
  for (uint32_t I = 0; I != P.FuncNames.size(); ++I)
    if (P.FuncNames[I] == Func)
      Target = I;
  uint64_t Hot = 0, Total = 0;
  for (const obs::Profile::MutRow &R : P.Mutator) {
    Total += R.Weight;
    const obs::Profile::Stack &S = P.Stacks[R.StackId];
    if (S.NumFrames && P.Frames[S.FirstFrame].Func == Target)
      Hot += R.Weight;
  }
  return Total ? 100.0 * static_cast<double>(Hot) /
                     static_cast<double>(Total)
               : 0.0;
}

bool gateProf(const Feature &F, JsonWriter &J) {
  constexpr double HotLimitPct = 90.0;
  Timing T = timeCells(F, /*Gen=*/true, J);

  driver::CompilerOptions CO;
  CO.OptLevel = 2;
  std::unique_ptr<vm::Program> Hot =
      bench::compileOrDie("hot", HotSource, CO);
  obs::Profile Threaded = profiledRun(*Hot, vm::DispatchTier::Threaded);
  obs::Profile Switch = profiledRun(*Hot, vm::DispatchTier::Switch);
  double HotPct = leafWeightPct(Threaded, "Work");
  std::vector<uint8_t> BodyA, BodyB;
  obs::encodeProfileBody(Threaded, BodyA);
  obs::encodeProfileBody(Switch, BodyB);
  bool TierIdentical = BodyA == BodyB;

  J.beginObject("ground_truth")
      .uint("samples", Threaded.Samples)
      .uint("sample_weight", Threaded.SampleWeight)
      .uint("total_instrs", Threaded.TotalInstrs)
      .uint("walk_errors", Threaded.WalkErrors)
      .uint("frames_sampled", Threaded.FramesSampled)
      .fixed("hot_leaf_pct", HotPct)
      .boolean("tier_identical", TierIdentical)
      .endObject();
  std::printf("prof: ground truth %llu samples, hot-leaf %.1f%% (>=%.0f%%), "
              "walk errors %llu, tiers %s\n",
              static_cast<unsigned long long>(Threaded.Samples), HotPct,
              HotLimitPct,
              static_cast<unsigned long long>(Threaded.WalkErrors),
              TierIdentical ? "byte-identical" : "DIVERGED");

  bool Pass = F.withinLimits(T) && HotPct >= HotLimitPct && TierIdentical &&
              Threaded.WalkErrors == 0;
  J.beginObject("gate");
  F.writeLimits(J);
  J.fixed("hot_limit_pct", HotLimitPct).boolean("pass", Pass).endObject();
  return Pass;
}

const Feature Features[] = {
    {"trace", 7, bench::gengcWorkloads, {"none", "disabled", "enabled"},
     {1.0, 3.0}, attachTrace, gateTrace},
    {"snapshot", 5, bench::gengcWorkloads, {}, {}, nullptr, gateSnapshot},
    {"leak", 7, leakWorkloads, {"base", "off", "on"}, {1.0, 3.0},
     attachLeak, gateLeak},
    {"prof", 7, bench::gengcWorkloads, {"none", "disabled", "enabled"},
     {1.0, 5.0}, attachProf, gateProf},
};

} // namespace

int main() {
  bool AllPass = true;
  for (const Feature &F : Features) {
    bench::BenchFile File;
    File.J.uint("runs", F.Runs);
    bool Pass = F.Gate(F, File.J);
    std::string Path = std::string("BENCH_") + F.Name + ".json";
    Pass = File.write(Path.c_str()) && Pass;
    std::fflush(stdout); // keep the verdict after the row's own lines
    if (Pass)
      std::printf("%s: ok\n", F.Name);
    else
      std::fprintf(stderr, "%s: FAIL (see %s)\n", F.Name, Path.c_str());
    AllPass = AllPass && Pass;
  }
  return AllPass ? 0 : 1;
}
