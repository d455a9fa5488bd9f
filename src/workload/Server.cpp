//===- workload/Server.cpp - Server-workload request harness --------------===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//

#include "workload/Server.h"

#include "fuzz/Rng.h"
#include "gc/Collector.h"
#include "obs/Trace.h"
#include "support/Percentile.h"

#include <algorithm>
#include <chrono>

using namespace mgc;
using namespace mgc::workload;

//===----------------------------------------------------------------------===//
// Program generation
//===----------------------------------------------------------------------===//

std::string workload::generateServerProgram(const ServerProgramConfig &C) {
  // Per-seed workload constants: request-size spread, session-cache
  // geometry, and churn period.  Drawn from the shared splitmix stream so
  // distinct seeds give visibly different allocation graphs while equal
  // seeds reproduce the program byte for byte.
  fuzz::Rng R(C.Seed * 0x9e3779b97f4a7c15ULL + 1);
  const long Mult = 2 * R.range(1, 3) + 1;   // 3, 5, or 7
  const long Spread = R.range(5, 11);        // list length spread
  const long Slots = R.range(8, 32);         // session-cache slots
  const long Churn = R.range(3, 6);          // evict every Nth request

  std::string S;
  S += "MODULE Srv;\n";
  S += "TYPE\n";
  S += "  Cell = REF CellRec;\n";
  S += "  CellRec = RECORD v: INTEGER; next: Cell END;\n";
  S += "  Sess = REF ARRAY OF Cell;\n";
  S += "VAR\n";
  S += "  sess: Sess;\n";
  S += "  sink, r, n: INTEGER;\n";
  S += "  done: BOOLEAN;\n";
  S += "\n";
  S += "PROCEDURE BuildReq(n: INTEGER): Cell;\n";
  S += "VAR l, c: Cell; i: INTEGER;\n";
  S += "BEGIN\n";
  S += "  l := NIL;\n";
  S += "  FOR i := 1 TO n DO\n";
  S += "    c := NEW(Cell);\n";
  S += "    c^.v := i;\n";
  S += "    c^.next := l;\n";
  S += "    l := c\n";
  S += "  END;\n";
  S += "  RETURN l\n";
  S += "END BuildReq;\n";
  S += "\n";
  S += "PROCEDURE SumReq(l: Cell): INTEGER;\n";
  S += "VAR s: INTEGER;\n";
  S += "BEGIN\n";
  S += "  s := 0;\n";
  S += "  WHILE l # NIL DO\n";
  S += "    s := (s + l^.v) MOD 1000000007;\n";
  S += "    l := l^.next\n";
  S += "  END;\n";
  S += "  RETURN s\n";
  S += "END SumReq;\n";
  if (C.Spin) {
    S += "\n";
    S += "PROCEDURE Spin();\n";
    S += "VAR i: INTEGER;\n";
    S += "BEGIN\n";
    S += "  i := 0;\n";
    S += "  WHILE NOT done DO INC(i) END\n";
    S += "END Spin;\n";
  }
  S += "\n";
  S += "BEGIN\n";
  S += "  done := FALSE;\n";
  S += "  sink := 0;\n";
  S += "  sess := NEW(Sess, " + std::to_string(Slots) + ");\n";
  S += "  FOR r := 1 TO " + std::to_string(C.Requests) + " DO\n";
  S += "    n := 3 + ((r * " + std::to_string(Mult) + ") MOD " +
       std::to_string(Spread) + ");\n";
  S += "    sess[r MOD " + std::to_string(Slots) + "] := BuildReq(n);\n";
  S += "    sink := (sink + SumReq(sess[r MOD " + std::to_string(Slots) +
       "])) MOD 1000000007;\n";
  S += "    IF r MOD " + std::to_string(Churn) + " = 0 THEN\n";
  S += "      sess[(r * 7) MOD " + std::to_string(Slots) + "] := NIL\n";
  S += "    END;\n";
  S += "    ReqDone()\n";
  S += "  END;\n";
  S += "  done := TRUE;\n";
  S += "  PutInt(sink); PutLn()\n";
  S += "END Srv.\n";
  return S;
}

//===----------------------------------------------------------------------===//
// Arrival schedules
//===----------------------------------------------------------------------===//

std::vector<uint64_t> workload::arrivalSchedule(const ScheduleConfig &C,
                                                size_t N) {
  std::vector<uint64_t> A;
  A.reserve(N);
  fuzz::Rng R(C.Seed * 0x2545f4914f6cdd1dULL + 7);
  const uint64_t Mean = std::max<uint64_t>(C.MeanGapInstrs, 1);
  uint64_t T = 0;
  if (C.Kind == ArrivalKind::Uniform) {
    // Jitter uniformly in [Mean/2, 3*Mean/2] — mean preserved.
    for (size_t I = 0; I != N; ++I) {
      uint64_t Lo = Mean / 2;
      T += Lo + static_cast<uint64_t>(
                    R.range(0, static_cast<long>(Mean - Lo + Mean / 2)));
      A.push_back(T);
    }
  } else {
    // Bursts of BurstLen back-to-back arrivals separated by idle gaps
    // sized so the long-run mean gap still equals Mean.
    const unsigned Len = std::max(1u, C.BurstLen);
    const uint64_t IdleGap = Mean * Len;
    for (size_t I = 0; I != N; ++I) {
      if (I != 0 && I % Len == 0)
        T += IdleGap / 2 +
             static_cast<uint64_t>(R.range(0, static_cast<long>(IdleGap)));
      A.push_back(T);
    }
  }
  return A;
}

//===----------------------------------------------------------------------===//
// Running
//===----------------------------------------------------------------------===//

ServerRunResult workload::runServer(const vm::Program &Prog,
                                    const ServerRunConfig &Config) {
  using Clock = std::chrono::steady_clock;
  ServerRunResult R;

  vm::VM M(Prog, Config.VO);
  gc::installPreciseCollector(M);

  if (Config.SpinThreads) {
    unsigned SpinFunc = 0;
    bool Found = false;
    for (unsigned I = 0; I != Prog.Funcs.size(); ++I)
      if (Prog.Funcs[I].Name == "Spin") {
        SpinFunc = I;
        Found = true;
      }
    if (!Found) {
      R.Error = "server program has no Spin() procedure to spawn";
      return R;
    }
    for (unsigned I = 0; I != Config.SpinThreads; ++I)
      M.spawnThread(SpinFunc);
  }

  // The tracer supplies the GC attribution ground truth: per-event
  // TotalNanos accumulated via PostGcHook (exact regardless of the event
  // ring's capacity), and per-request aggregation via recordRequest.
  obs::TracerConfig TC;
  TC.ProgramName = "server";
  TC.Seed = Config.Sched.Seed;
  obs::Tracer Tr(TC);
  Tr.enable(nullptr);
  M.Tracer = &Tr;

  std::unique_ptr<obs::Profiler> Prof;
  if (Config.Profile) {
    obs::ProfilerConfig PC;
    PC.IntervalInstrs = Config.ProfileInterval;
    PC.Seed = Config.Sched.Seed;
    Prof = std::make_unique<obs::Profiler>(Prog, PC);
    M.Profiler = Prof.get();
  }
  M.PostGcHook = [&](vm::VM &) {
    if (const obs::GcEvent *Ev = Tr.lastCommitted())
      R.TracerGcNanosTotal += Ev->TotalNanos;
  };
  M.RequestHook = [&](vm::VM &, const vm::VM::ReqSample &Smp) {
    R.ServiceInstrs.push_back(Smp.Instrs);
    R.GcNanos.push_back(Smp.GcNanos);
    R.Collections.push_back(Smp.Collections);
  };

  Clock::time_point T0 = Clock::now();
  bool Ok = M.run();
  R.WallNanos = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - T0)
          .count());
  R.Out = M.Out;
  R.Stats = M.Stats;
  if (Prof) {
    Prof->finish(Ok, M.Error, M.Stats.Instrs);
    R.Prof = Prof->buildProfile();
    R.HasProf = true;
  }
  R.HeapGrowths = M.TheHeap.HeapGrowths;
  R.NurseryResizes = M.TheHeap.NurseryResizes;
  R.FinalHeapBytes = M.TheHeap.capacityBytes();
  if (!Ok) {
    R.Error = M.Error;
    return R;
  }
  R.Ok = true;

  uint64_t AttributedGc = 0;
  for (uint64_t G : R.GcNanos)
    AttributedGc += G;
  R.UnattributedGcNanos = R.TracerGcNanosTotal > AttributedGc
                              ? R.TracerGcNanosTotal - AttributedGc
                              : 0;

  // Open-loop queueing overlay in virtual time: seeded arrivals, FIFO
  // service at the measured per-request cost.
  const size_t N = R.ServiceInstrs.size();
  std::vector<uint64_t> Arrivals = arrivalSchedule(Config.Sched, N);
  R.LatencyInstrs.reserve(N);
  uint64_t Completion = 0;
  for (size_t I = 0; I != N; ++I) {
    uint64_t Start = std::max(Arrivals[I], Completion);
    Completion = Start + R.ServiceInstrs[I];
    R.LatencyInstrs.push_back(Completion - Arrivals[I]);
  }

  // Wall-time conversion: ns/instr from the run's mutator span, plus the
  // request's own GC nanos on top of its virtual latency.
  const uint64_t MutatorNanos = R.WallNanos > R.TracerGcNanosTotal
                                    ? R.WallNanos - R.TracerGcNanosTotal
                                    : 0;
  const double NsPerInstr =
      R.Stats.Instrs ? static_cast<double>(MutatorNanos) /
                           static_cast<double>(R.Stats.Instrs)
                     : 0.0;
  std::vector<uint64_t> LatNs;
  LatNs.reserve(N);
  for (size_t I = 0; I != N; ++I)
    LatNs.push_back(static_cast<uint64_t>(
                        static_cast<double>(R.LatencyInstrs[I]) * NsPerInstr) +
                    R.GcNanos[I]);
  R.LatP50Ns = support::percentile(LatNs, 0.50);
  R.LatP99Ns = support::percentile(LatNs, 0.99);
  R.LatMaxNs = support::percentile(LatNs, 1.0);
  R.LatP50Instr = support::percentile(R.LatencyInstrs, 0.50);
  R.LatP99Instr = support::percentile(R.LatencyInstrs, 0.99);
  R.LatMaxInstr = support::percentile(R.LatencyInstrs, 1.0);

  if (R.WallNanos) {
    R.Rps = static_cast<double>(N) * 1e9 / static_cast<double>(R.WallNanos);
    R.Utilization = 1.0 - static_cast<double>(R.TracerGcNanosTotal) /
                              static_cast<double>(R.WallNanos);
    if (R.Utilization < 0)
      R.Utilization = 0;
  }
  return R;
}
