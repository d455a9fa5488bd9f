//===- bench/leak.cpp - Online leak-detector gate --------------------------===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Gates the online growth detector (obs/Trace.h LeakConfig) on four
/// axes:
///
///  1. Overhead.  The gengc workloads run with an enabled tracer in three
///     configurations — no leak config (base), detector configured but
///     disabled (off), detector enabled (on) — interleaved, min-of-N,
///     CPU-time clocked.  Generational-mode gates: off adds <=1% over
///     base, on adds <=3%.
///
///  2. Detection.  An injected-leak program (a global chain growing by
///     one cell per iteration under heavy transient churn) must be
///     flagged at the correct allocation site — the NEW inside Grow(),
///     not the churn site — within K = Window full collections of the
///     run's start (two-space mode, where every collection is full and
///     the leaked site is past MinBytes by the first sample).
///
///  3. False positives.  The paper's §6 suite (typereg, FieldList, takl,
///     destroy) is leak-free: run under collection pressure with the
///     detector on, none of them may flag any site.
///
///  4. Determinism.  The detector's inputs are per-site integer sums
///     accumulated as the collector copies objects (order- and
///     partition-independent), so its output is a pure function of the
///     collection schedule: within each collector mode the full flag
///     serialization must be byte-identical across both dispatch tiers.
///
/// Writes BENCH_leak.json and fails (exit 1) when any gate fails.
///
///   MGC_LEAK_RUNS=N   timing repetitions (default 7)
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "Programs.h"

#include "obs/Trace.h"
#include "support/Provenance.h"

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <memory>
#include <string>
#include <vector>

using namespace mgc;

namespace {

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

std::string bigDestroy(int Branch, int Depth, int Iters) {
  std::string S(programs::DestroySource);
  auto Replace = [&](const std::string &From, const std::string &To) {
    size_t Pos = S.find(From);
    if (Pos != std::string::npos)
      S.replace(Pos, From.size(), To);
  };
  Replace("Branch = 3", "Branch = " + std::to_string(Branch));
  Replace("Depth = 6", "Depth = " + std::to_string(Depth));
  Replace("Iters = 60", "Iters = " + std::to_string(Iters));
  return S;
}

struct Workload {
  const char *Name;
  std::string Source;
  size_t HeapBytes;
  size_t NurseryBytes;
};

std::vector<Workload> &workloads() {
  // Heaps are sized several times the live set — unlike the per-allocation
  // tracer gate (bench/trace_overhead, which wants maximal collection
  // pressure), the detector's only costs are a per-object add inside the
  // full-collection copy loop and an O(sites) merge per full collection,
  // so its honest denominator is a run where fulls are periodic, as in a
  // production heap, not back-to-back as in a pressure-cooker heap.
  static std::vector<Workload> W = {
      {"destroy", bigDestroy(3, 6, 220), 160u << 10, 8u << 10},
      {"destroy-big", bigDestroy(3, 7, 200), 640u << 10, 16u << 10},
      {"typereg", std::string(programs::TypeRegSource), 128u << 10, 8u << 10},
  };
  return W;
}

/// Overhead configurations: the tracer itself is enabled in all three
/// (trace_overhead gates the tracer's own cost); this bench isolates the
/// detector's delta on top of it.
enum class Config { Base, Off, On };

uint64_t runTimed(const vm::Program &Prog, const Workload &W, bool Gen,
                  Config C) {
  vm::VMOptions VO;
  VO.HeapBytes = W.HeapBytes;
  VO.StackWords = 1u << 20;
  VO.GenGc = Gen;
  VO.NurseryBytes = Gen ? W.NurseryBytes : 0;
  gc::CollectorOptions GCO;
  GCO.CrossCheck = false;

  vm::VM M(Prog, VO);
  gc::installPreciseCollector(M, GCO);

  obs::TracerConfig TC;
  TC.Sites = &Prog.SiteTab;
  TC.GenGc = Gen;
  if (C != Config::Base) {
    TC.Leak.Enabled = C == Config::On;
    TC.Leak.Window = 8;
    TC.Leak.MinBytes = 4096;
  }
  obs::Tracer Tracer(std::move(TC));
  Tracer.enable(/*Stream=*/nullptr);
  M.Tracer = &Tracer;

  // CPU time, not wall time: single-threaded run, and the 1%/3% gates are
  // far below wall-clock noise on a shared machine.
  timespec T0{}, T1{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &T0);
  bool Ok = M.run();
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &T1);
  if (!Ok) {
    std::fprintf(stderr, "leak: %s (%s): run failed: %s\n", W.Name,
                 Gen ? "gen" : "two-space", M.Error.c_str());
    std::exit(1);
  }
  return static_cast<uint64_t>((T1.tv_sec - T0.tv_sec) * 1000000000ll +
                               (T1.tv_nsec - T0.tv_nsec));
}

/// One detector-enabled functional run; returns the flag list plus the
/// serialized form the determinism matrix byte-compares (the same
/// "site:slope:live:first;" shape the fuzz oracle uses).
struct DetectResult {
  std::vector<obs::Tracer::LeakFlag> Flags;
  std::string Serialized;
  uint64_t Collections = 0;
  std::string Output;
};

DetectResult runDetect(const vm::Program &Prog, size_t HeapBytes, bool Gen,
                       size_t NurseryBytes, vm::DispatchTier Tier,
                       uint32_t Window, uint64_t MinBytes) {
  vm::VMOptions VO;
  VO.HeapBytes = HeapBytes;
  VO.StackWords = 1u << 20;
  VO.GenGc = Gen;
  VO.NurseryBytes = Gen ? NurseryBytes : 0;
  VO.Dispatch = Tier;
  vm::VM M(Prog, VO);
  gc::installPreciseCollector(M);

  obs::TracerConfig TC;
  TC.Sites = &Prog.SiteTab;
  TC.GenGc = Gen;
  TC.Leak.Enabled = true;
  TC.Leak.Window = Window;
  TC.Leak.MinBytes = MinBytes;
  obs::Tracer Tracer(std::move(TC));
  Tracer.enable(/*Stream=*/nullptr);
  M.Tracer = &Tracer;

  if (!M.run()) {
    std::fprintf(stderr, "leak: %s: detection run failed: %s\n",
                 Prog.Name.c_str(), M.Error.c_str());
    std::exit(1);
  }

  DetectResult R;
  R.Flags = Tracer.leakFlags();
  for (const obs::Tracer::LeakFlag &F : R.Flags) {
    R.Serialized += std::to_string(F.Site);
    R.Serialized += ':';
    R.Serialized += std::to_string(F.SlopeBytes);
    R.Serialized += ':';
    R.Serialized += std::to_string(F.LiveBytes);
    R.Serialized += ':';
    R.Serialized += std::to_string(F.FirstFlagged);
    R.Serialized += ';';
  }
  R.Collections = M.Stats.Collections;
  R.Output = M.Out;
  return R;
}

/// The site ids whose allocation lives in function \p FuncName.
std::vector<uint32_t> sitesInFunc(const vm::Program &Prog,
                                  const char *FuncName) {
  std::vector<uint32_t> Ids;
  for (uint32_t Id = 0; Id != Prog.SiteTab.Sites.size(); ++Id) {
    uint32_t F = Prog.SiteTab.Sites[Id].Func;
    if (F < Prog.Funcs.size() && Prog.Funcs[F].Name == FuncName)
      Ids.push_back(Id);
  }
  return Ids;
}

void jf(std::string &Out, const char *Key, double V, bool First = false) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%s\"%s\":%.3f", First ? "" : ",", Key, V);
  Out += Buf;
}

void ji(std::string &Out, const char *Key, uint64_t V, bool First = false) {
  if (!First)
    Out += ',';
  Out += '"';
  Out += Key;
  Out += "\":";
  Out += std::to_string(V);
}

} // namespace

int main() {
  int Runs = 7;
  if (const char *E = std::getenv("MGC_LEAK_RUNS"))
    Runs = std::atoi(E);
  if (Runs < 1)
    Runs = 1;

  constexpr double OnLimitPct = 3.0;
  constexpr double OffLimitPct = 1.0;
  constexpr uint32_t Window = 8; // K: the detection-latency bound.

  bool AllPass = true;
  std::string Json = "{\"provenance\":";
  Json += support::provenanceJson();
  ji(Json, "runs", static_cast<uint64_t>(Runs));
  ji(Json, "window", Window);

  //===--- 1. Overhead ------------------------------------------------------===

  struct Compiled {
    std::unique_ptr<vm::Program> TwoSpace, Gen;
  };
  std::vector<Compiled> Progs;
  for (const Workload &W : workloads()) {
    driver::CompilerOptions CO;
    CO.OptLevel = 2;
    Compiled C;
    CO.WriteBarriers = false;
    C.TwoSpace = bench::compileOrDie(W.Name, W.Source.c_str(), CO);
    CO.WriteBarriers = true;
    C.Gen = bench::compileOrDie(W.Name, W.Source.c_str(), CO);
    Progs.push_back(std::move(C));
  }

  Json += ",\"modes\":[";
  bool GatePass = true;
  double GenOffPct = 0, GenOnPct = 0;

  for (bool Gen : {true, false}) {
    size_t NW = workloads().size();
    std::vector<std::vector<uint64_t>> Min(
        NW, std::vector<uint64_t>(3, UINT64_MAX));

    for (size_t I = 0; I != NW; ++I)
      runTimed(Gen ? *Progs[I].Gen : *Progs[I].TwoSpace, workloads()[I], Gen,
               Config::Base);
    auto Round = [&] {
      for (size_t I = 0; I != NW; ++I)
        for (Config C : {Config::Base, Config::Off, Config::On}) {
          uint64_t Nanos = runTimed(Gen ? *Progs[I].Gen : *Progs[I].TwoSpace,
                                    workloads()[I], Gen, C);
          uint64_t &M = Min[I][static_cast<size_t>(C)];
          if (Nanos < M)
            M = Nanos;
        }
    };
    for (int R = 0; R != Runs; ++R)
      Round();

    uint64_t TotBase = 0, TotOff = 0, TotOn = 0;
    auto Totals = [&] {
      TotBase = TotOff = TotOn = 0;
      for (size_t I = 0; I != NW; ++I) {
        TotBase += Min[I][0];
        TotOff += Min[I][1];
        TotOn += Min[I][2];
      }
    };
    Totals();
    auto OffPctOf = [&] {
      return 100.0 * (static_cast<double>(TotOff) - TotBase) / TotBase;
    };
    auto OnPctOf = [&] {
      return 100.0 * (static_cast<double>(TotOn) - TotBase) / TotBase;
    };
    if (Gen) {
      // Minima only tighten with more samples: buy bounded extra rounds
      // before concluding a gate overage is real overhead, not noise.
      for (int Extra = 0;
           (OffPctOf() > OffLimitPct || OnPctOf() > OnLimitPct) &&
           Extra < 3 * Runs;
           ++Extra) {
        Round();
        Totals();
      }
      GenOffPct = OffPctOf();
      GenOnPct = OnPctOf();
      if (GenOffPct > OffLimitPct || GenOnPct > OnLimitPct)
        GatePass = false;
    }
    double OffPct = OffPctOf(), OnPct = OnPctOf();

    if (Gen)
      Json += "{";
    else
      Json += ",{";
    Json += "\"mode\":\"";
    Json += Gen ? "gen" : "two-space";
    Json += "\",\"workloads\":[";
    for (size_t I = 0; I != NW; ++I) {
      if (I)
        Json += ',';
      Json += "{\"name\":\"";
      Json += workloads()[I].Name;
      Json += '"';
      ji(Json, "wall_base_ns", Min[I][0]);
      ji(Json, "wall_off_ns", Min[I][1]);
      ji(Json, "wall_on_ns", Min[I][2]);
      Json += '}';
    }
    Json += ']';
    ji(Json, "total_base_ns", TotBase);
    ji(Json, "total_off_ns", TotOff);
    ji(Json, "total_on_ns", TotOn);
    jf(Json, "overhead_off_pct", OffPct);
    jf(Json, "overhead_on_pct", OnPct);
    Json += '}';

    std::printf("leak[%s]: base %.3f ms, detector-off %.3f ms (%+.2f%%), "
                "detector-on %.3f ms (%+.2f%%)\n",
                Gen ? "gen" : "two-space", static_cast<double>(TotBase) / 1e6,
                static_cast<double>(TotOff) / 1e6, OffPct,
                static_cast<double>(TotOn) / 1e6, OnPct);
  }
  Json += ']';
  if (!GatePass)
    AllPass = false;

  //===--- 2. Detection on the injected leak --------------------------------===

  driver::CompilerOptions LeakCO;
  LeakCO.OptLevel = 2;
  LeakCO.WriteBarriers = false;
  auto LeakProg = bench::compileOrDie("leakbench", LeakSource, LeakCO);
  LeakCO.WriteBarriers = true;
  auto LeakProgWB = bench::compileOrDie("leakbench", LeakSource, LeakCO);

  std::vector<uint32_t> GrowSites = sitesInFunc(*LeakProg, "Grow");
  if (GrowSites.size() != 1) {
    std::fprintf(stderr, "leak: expected exactly 1 site in Grow, got %zu\n",
                 GrowSites.size());
    return 1;
  }

  // Two-space, small heap: every collection is full (one detector sample
  // each), churn forces one every few dozen iterations, and the chain is
  // past MinBytes=64 by the first sample — so the earliest possible flag
  // is the Window-th collection, and "within K collections" is exact.
  DetectResult D = runDetect(*LeakProg, 32u << 10, /*Gen=*/false, 0,
                             vm::DispatchTier::Threaded, Window,
                             /*MinBytes=*/64);
  bool DetectPass = true;
  if (D.Flags.size() != 1 || D.Flags[0].Site != GrowSites[0]) {
    DetectPass = false;
    std::fprintf(stderr,
                 "leak: FAIL: expected exactly the Grow site (%u) flagged, "
                 "got %zu flag(s)%s\n",
                 GrowSites[0], D.Flags.size(),
                 D.Flags.empty()
                     ? ""
                     : (" first site " + std::to_string(D.Flags[0].Site))
                           .c_str());
  } else if (D.Flags[0].FirstFlagged > Window) {
    DetectPass = false;
    std::fprintf(stderr,
                 "leak: FAIL: injected leak flagged at collection %llu, "
                 "bound is K=%u\n",
                 static_cast<unsigned long long>(D.Flags[0].FirstFlagged),
                 Window);
  } else {
    std::printf("leak: injected leak flagged at site %u, collection %llu/%llu "
                "(K=%u), slope %+lld B/gc\n",
                D.Flags[0].Site,
                static_cast<unsigned long long>(D.Flags[0].FirstFlagged),
                static_cast<unsigned long long>(D.Collections), Window,
                static_cast<long long>(D.Flags[0].SlopeBytes));
  }
  if (!DetectPass)
    AllPass = false;

  Json += ",\"detect\":{";
  ji(Json, "grow_site", GrowSites[0], /*First=*/true);
  ji(Json, "flags", D.Flags.size());
  ji(Json, "first_flagged", D.Flags.empty() ? 0 : D.Flags[0].FirstFlagged);
  ji(Json, "collections", D.Collections);
  Json += ",\"pass\":";
  Json += DetectPass ? "true" : "false";
  Json += '}';

  //===--- 3. Leak-free suite: zero flags ------------------------------------===

  bool CleanPass = true;
  Json += ",\"leak_free\":[";
  bool FirstClean = true;
  for (const programs::NamedProgram &P : programs::All) {
    driver::CompilerOptions CO;
    CO.OptLevel = 2;
    auto Prog = bench::compileOrDie(P.Name, P.Source, CO);
    // 64 KiB (bench/pause's sizing) keeps every program collecting
    // mid-run; takl's tiny live set never collects, which trivially (and
    // correctly) produces zero flags.
    DetectResult R = runDetect(*Prog, 64u << 10, /*Gen=*/false, 0,
                               vm::DispatchTier::Threaded, Window,
                               /*MinBytes=*/4096);
    if (!R.Flags.empty()) {
      CleanPass = false;
      std::fprintf(stderr,
                   "leak: FAIL: leak-free program %s flagged %zu site(s), "
                   "first site %u slope %+lld B/gc\n",
                   P.Name, R.Flags.size(), R.Flags[0].Site,
                   static_cast<long long>(R.Flags[0].SlopeBytes));
    }
    if (!FirstClean)
      Json += ',';
    FirstClean = false;
    Json += "{\"name\":\"";
    Json += P.Name;
    Json += '"';
    ji(Json, "collections", R.Collections);
    ji(Json, "flags", R.Flags.size());
    Json += '}';
  }
  Json += ']';
  if (CleanPass)
    std::printf("leak: leak-free suite clean (0 flags on all %zu programs)\n",
                std::size(programs::All));
  else
    AllPass = false;

  //===--- 4. Determinism across tiers ----------------------------------------===

  // Within one collector mode the collection schedule is fixed, so the
  // detector's serialized flags must be byte-identical across dispatch
  // tiers.  (Across modes the schedules differ, so gen and two-space are
  // each their own equivalence class.)
  bool DetPass = true;
  uint64_t Variants = 0;
  for (bool Gen : {false, true}) {
    std::string Ref;
    bool HaveRef = false;
    std::string RefOut;
    for (vm::DispatchTier Tier :
         {vm::DispatchTier::Threaded, vm::DispatchTier::Switch}) {
      DetectResult R = runDetect(Gen ? *LeakProgWB : *LeakProg, 32u << 10, Gen,
                                 4u << 10, Tier, Window, /*MinBytes=*/64);
      ++Variants;
      if (!HaveRef) {
        Ref = R.Serialized;
        RefOut = R.Output;
        HaveRef = true;
        if (Gen && R.Flags.empty()) {
          // The gen run must still catch the leak (samples come from
          // full collections only; the growing chain forces them).
          DetPass = false;
          std::fprintf(stderr,
                       "leak: FAIL: gen-mode detection run flagged "
                       "nothing\n");
        }
        continue;
      }
      if (R.Serialized != Ref || R.Output != RefOut) {
        DetPass = false;
        std::fprintf(stderr,
                     "leak: FAIL: nondeterministic flags (%s, %s tier):\n"
                     "  ref  \"%s\"\n  got  \"%s\"\n",
                     Gen ? "gen" : "two-space", vm::dispatchTierName(Tier),
                     Ref.c_str(), R.Serialized.c_str());
      }
    }
  }
  if (DetPass)
    std::printf("leak: flags byte-identical across %llu tier variants\n",
                static_cast<unsigned long long>(Variants));
  else
    AllPass = false;

  Json += ",\"determinism\":{";
  ji(Json, "variants", Variants, /*First=*/true);
  Json += ",\"pass\":";
  Json += DetPass ? "true" : "false";
  Json += '}';

  //===--- Gate summary ------------------------------------------------------===

  Json += ",\"gate\":{";
  jf(Json, "off_limit_pct", OffLimitPct, /*First=*/true);
  jf(Json, "on_limit_pct", OnLimitPct);
  jf(Json, "gen_off_pct", GenOffPct);
  jf(Json, "gen_on_pct", GenOnPct);
  Json += ",\"overhead_pass\":";
  Json += GatePass ? "true" : "false";
  Json += ",\"pass\":";
  Json += AllPass ? "true" : "false";
  Json += "}}\n";

  if (std::FILE *F = std::fopen("BENCH_leak.json", "w")) {
    std::fputs(Json.c_str(), F);
    std::fclose(F);
  } else {
    std::fprintf(stderr, "leak: cannot write BENCH_leak.json\n");
    return 1;
  }

  if (!GatePass)
    std::fprintf(stderr,
                 "leak: FAIL: generational-mode overhead detector-off "
                 "%.2f%% (limit %.1f%%), detector-on %.2f%% (limit %.1f%%)\n",
                 GenOffPct, OffLimitPct, GenOnPct, OnLimitPct);
  if (!AllPass)
    return 1;
  std::printf("leak: ok (gen off %+.2f%% <= %.1f%%, on %+.2f%% <= %.1f%%; "
              "detect + leak-free + determinism pass)\n",
              GenOffPct, OffLimitPct, GenOnPct, OnLimitPct);
  return 0;
}
