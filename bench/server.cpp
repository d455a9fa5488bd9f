//===- bench/server.cpp - Server-workload benchmark gate ------------------===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives generated MG server programs (src/workload) to steady state and
/// reports requests/sec, per-request latency percentiles (p50/p99/max,
/// with GC pause attribution from the tracer's per-phase nanos), and
/// mutator utilization, swept across heap-sizing policies x both dispatch
/// tiers.  Writes BENCH_server.json.
///
/// Everything gated is virtual-time deterministic (instruction counts,
/// outputs, collection counts); wall-clock figures are reported only.
/// Correctness gates (always enforced, exit 1 on failure):
///  - within one (workload, policy) cell, both dispatch tiers agree on
///    output, request count, per-request service instructions, and
///    collection count;
///  - across policies, program output is identical, and for workloads
///    without spin threads the service samples are too (policies only
///    move collections, never retired instructions, single-threaded);
///  - per-request GC attribution plus the unattributed tail equals the
///    tracer's total across events, in every cell;
///  - a run under --gc-crosscheck agrees;
///  - a same-seed rerun is bit-identical (no wall-clock leakage into the
///    virtual-time samples).
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "workload/Server.h"

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

using namespace mgc;
using namespace mgc::workload;

namespace {

constexpr uint64_t ProgramSeed = 20260808; ///< Server-program shape seed.
constexpr uint64_t ScheduleSeed = 41;      ///< Arrival-schedule seed.
constexpr unsigned RequestCount = 2000;
constexpr size_t HeapBytes = 32u << 10; ///< Small: collections must happen.

struct BenchWorkload {
  std::string Name;
  ServerProgramConfig PC;
  ScheduleConfig Sched;
  unsigned SpinThreads = 0;
  std::unique_ptr<vm::Program> Prog;
};

struct BenchPolicy {
  std::string Name;
  bool GenGc = false;
  unsigned GrowthPct = 0;
  size_t MaxBytes = 0;
  bool NurseryAuto = false;
};

ServerRunConfig cellConfig(const BenchWorkload &W, const BenchPolicy &P,
                           vm::DispatchTier Tier, bool CrossCheck = false) {
  ServerRunConfig C;
  C.VO.HeapBytes = HeapBytes;
  C.VO.GenGc = P.GenGc;
  C.VO.HeapGrowthPct = P.GrowthPct;
  C.VO.HeapMaxBytes = P.MaxBytes;
  C.VO.NurseryAuto = P.NurseryAuto;
  C.VO.Dispatch = Tier;
  C.VO.CrossCheck = CrossCheck;
  C.Sched = W.Sched;
  C.SpinThreads = W.SpinThreads;
  return C;
}

ServerRunResult runOrDie(const BenchWorkload &W, const ServerRunConfig &C,
                         const char *What) {
  ServerRunResult R = runServer(*W.Prog, C);
  if (!R.Ok) {
    std::fprintf(stderr, "server: %s (%s): run failed: %s\n", W.Name.c_str(),
                 What, R.Error.c_str());
    std::exit(1);
  }
  return R;
}

bool sameVirtual(const ServerRunResult &A, const ServerRunResult &B) {
  return A.Out == B.Out && A.Stats.Requests == B.Stats.Requests &&
         A.Stats.Collections == B.Stats.Collections &&
         A.ServiceInstrs == B.ServiceInstrs &&
         A.LatencyInstrs == B.LatencyInstrs;
}

bool attributionExact(const ServerRunResult &R) {
  uint64_t Attributed = 0;
  for (uint64_t G : R.GcNanos)
    Attributed += G;
  return Attributed + R.UnattributedGcNanos == R.TracerGcNanosTotal;
}

} // namespace

int main() {
  constexpr int Runs = 2;

  // --- Workloads: uniform arrivals, bursty arrivals, and a spin-thread
  // mix (two allocation-free mutator threads raising rendezvous cost).
  std::vector<BenchWorkload> Work;
  {
    BenchWorkload W;
    W.Name = "uniform";
    W.PC.Seed = ProgramSeed;
    W.PC.Requests = RequestCount;
    W.Sched.Kind = ArrivalKind::Uniform;
    W.Sched.Seed = ScheduleSeed;
    Work.push_back(std::move(W));
  }
  {
    BenchWorkload W;
    W.Name = "bursty";
    W.PC.Seed = ProgramSeed + 1;
    W.PC.Requests = RequestCount;
    W.Sched.Kind = ArrivalKind::Bursty;
    W.Sched.Seed = ScheduleSeed + 1;
    Work.push_back(std::move(W));
  }
  {
    BenchWorkload W;
    W.Name = "spinmix";
    W.PC.Seed = ProgramSeed + 2;
    W.PC.Requests = RequestCount;
    W.PC.Spin = true;
    W.Sched.Kind = ArrivalKind::Uniform;
    W.Sched.Seed = ScheduleSeed + 2;
    W.SpinThreads = 2;
    Work.push_back(std::move(W));
  }
  for (BenchWorkload &W : Work) {
    driver::CompilerOptions CO;
    CO.OptLevel = 2;
    CO.WriteBarriers = true; // No-op under two-space: one program, all cells.
    CO.ThreadedPolls = W.PC.Spin;
    std::string Src = generateServerProgram(W.PC);
    W.Prog = bench::compileOrDie(W.Name.c_str(), Src.c_str(), CO);
  }

  const BenchPolicy Policies[] = {
      {"two-fixed", false, 0, 0, false},
      {"two-growth", false, 70, HeapBytes * 8, false},
      {"gen-fixed", true, 0, 0, false},
      {"gen-auto", true, 70, HeapBytes * 8, true},
  };
  const vm::DispatchTier Tiers[] = {vm::DispatchTier::Threaded,
                                    vm::DispatchTier::Switch};

  // --- Correctness gates ---------------------------------------------------
  for (const BenchWorkload &W : Work) {
    ServerRunResult PolicyRef; // two-fixed reference for cross-policy gates.
    for (const BenchPolicy &P : Policies) {
      ServerRunResult CellRef;
      bool HaveRef = false;
      for (vm::DispatchTier Tier : Tiers) {
        ServerRunResult R = runOrDie(W, cellConfig(W, P, Tier), P.Name.c_str());
        if (R.Stats.Requests != RequestCount) {
          std::fprintf(stderr,
                       "server: FAIL: %s/%s: %llu requests completed, "
                       "expected %u\n",
                       W.Name.c_str(), P.Name.c_str(),
                       static_cast<unsigned long long>(R.Stats.Requests),
                       RequestCount);
          return 1;
        }
        if (!attributionExact(R)) {
          std::fprintf(stderr,
                       "server: FAIL: %s/%s: GC attribution does not sum "
                       "to the tracer total\n",
                       W.Name.c_str(), P.Name.c_str());
          return 1;
        }
        if (!HaveRef) {
          CellRef = R;
          HaveRef = true;
          // Same-seed rerun: bit-identical virtual-time samples.
          ServerRunResult Again = runOrDie(W, cellConfig(W, P, Tier), "rerun");
          if (!sameVirtual(R, Again)) {
            std::fprintf(stderr,
                         "server: FAIL: %s/%s: same-seed rerun diverged\n",
                         W.Name.c_str(), P.Name.c_str());
            return 1;
          }
        } else if (!sameVirtual(R, CellRef)) {
          std::fprintf(stderr,
                       "server: FAIL: %s/%s: switch tier diverges\n",
                       W.Name.c_str(), P.Name.c_str());
          return 1;
        }
      }
      // Crosscheck run: every decode audited against the reference decoder.
      ServerRunResult XC = runOrDie(
          W, cellConfig(W, P, vm::DispatchTier::Threaded, /*CrossCheck=*/true),
          "crosscheck");
      if (!sameVirtual(XC, CellRef)) {
        std::fprintf(stderr, "server: FAIL: %s/%s: crosscheck run diverged\n",
                     W.Name.c_str(), P.Name.c_str());
        return 1;
      }
      if (PolicyRef.ServiceInstrs.empty()) {
        PolicyRef = CellRef;
      } else {
        if (CellRef.Out != PolicyRef.Out) {
          std::fprintf(stderr,
                       "server: FAIL: %s: policy %s changes program output\n",
                       W.Name.c_str(), P.Name.c_str());
          return 1;
        }
        // Policies only move collections; with no spin threads the retired
        // instruction stream (and so every service sample) is invariant.
        if (W.SpinThreads == 0 &&
            CellRef.ServiceInstrs != PolicyRef.ServiceInstrs) {
          std::fprintf(stderr,
                       "server: FAIL: %s: policy %s changes service "
                       "samples\n",
                       W.Name.c_str(), P.Name.c_str());
          return 1;
        }
      }
    }
  }
  std::printf("server: identity/attribution/crosscheck gates ok (%zu "
              "workloads x %zu policies x 2 tiers)\n",
              Work.size(), std::size(Policies));

  // --- Timing: best (max rps) per (workload, policy) over rounds, threaded
  // tier (the switch tier is identity-gated above and not separately timed
  // into the report cells).
  struct Cell {
    double Rps = 0, Utilization = 0;
    uint64_t P50Ns = 0, P99Ns = 0, MaxNs = 0;
    uint64_t P50Instr = 0, P99Instr = 0, MaxInstr = 0;
    uint64_t Collections = 0, HeapGrowths = 0, NurseryResizes = 0,
             FinalHeapBytes = 0, UnattributedGcNs = 0, GcNs = 0;
  };
  const size_t NP = std::size(Policies);
  std::vector<std::vector<Cell>> Cells(Work.size(), std::vector<Cell>(NP));
  for (int Round = 0; Round != Runs; ++Round)
    for (size_t WI = 0; WI != Work.size(); ++WI)
      for (size_t PI = 0; PI != NP; ++PI) {
        ServerRunResult R = runOrDie(
            Work[WI],
            cellConfig(Work[WI], Policies[PI], vm::DispatchTier::Threaded),
            "timing");
        Cell &C = Cells[WI][PI];
        if (R.Rps <= C.Rps)
          continue;
        C.Rps = R.Rps;
        C.Utilization = R.Utilization;
        C.P50Ns = R.LatP50Ns;
        C.P99Ns = R.LatP99Ns;
        C.MaxNs = R.LatMaxNs;
        C.P50Instr = R.LatP50Instr;
        C.P99Instr = R.LatP99Instr;
        C.MaxInstr = R.LatMaxInstr;
        C.Collections = R.Stats.Collections;
        C.HeapGrowths = R.HeapGrowths;
        C.NurseryResizes = R.NurseryResizes;
        C.FinalHeapBytes = R.FinalHeapBytes;
        C.GcNs = R.TracerGcNanosTotal;
        C.UnattributedGcNs = R.UnattributedGcNanos;
      }

  // --- Report --------------------------------------------------------------
  // The header documents every seed so BENCH_server.json is reproducible
  // bit for bit on the virtual-time fields (wall-time fields vary).
  bench::BenchFile File(ProgramSeed);
  support::JsonWriter &J = File.J;
  J.uint("runs", Runs)
      .uint("program_seed", ProgramSeed)
      .uint("schedule_seed", ScheduleSeed)
      .uint("requests", RequestCount)
      .uint("heap_bytes", HeapBytes)
      .beginArray("workloads");
  for (size_t WI = 0; WI != Work.size(); ++WI) {
    J.beginObject()
        .str("name", Work[WI].Name)
        .str("arrivals",
             Work[WI].Sched.Kind == ArrivalKind::Bursty ? "bursty" : "uniform")
        .uint("spin_threads", Work[WI].SpinThreads)
        .beginArray("policies");
    for (size_t PI = 0; PI != NP; ++PI) {
      const Cell &C = Cells[WI][PI];
      J.beginObject()
          .str("name", Policies[PI].Name)
          .fixed("rps", C.Rps, 4)
          .fixed("utilization", C.Utilization, 4)
          .uint("lat_p50_ns", C.P50Ns)
          .uint("lat_p99_ns", C.P99Ns)
          .uint("lat_max_ns", C.MaxNs)
          .uint("lat_p50_instr", C.P50Instr)
          .uint("lat_p99_instr", C.P99Instr)
          .uint("lat_max_instr", C.MaxInstr)
          .uint("collections", C.Collections)
          .uint("gc_ns", C.GcNs)
          .uint("gc_unattributed_ns", C.UnattributedGcNs)
          .uint("heap_growths", C.HeapGrowths)
          .uint("nursery_resizes", C.NurseryResizes)
          .uint("final_heap_bytes", C.FinalHeapBytes)
          .endObject();
      std::printf("server[%s/%s]: %.0f rps, p50 %.1f us, p99 %.1f us, "
                  "max %.1f us, util %.3f, %llu collections%s\n",
                  Work[WI].Name.c_str(), Policies[PI].Name.c_str(), C.Rps,
                  static_cast<double>(C.P50Ns) / 1e3,
                  static_cast<double>(C.P99Ns) / 1e3,
                  static_cast<double>(C.MaxNs) / 1e3, C.Utilization,
                  static_cast<unsigned long long>(C.Collections),
                  C.HeapGrowths || C.NurseryResizes ? " (policy active)" : "");
    }
    J.endArray().endObject();
  }
  J.endArray().boolean("pass", true);
  if (!File.write("BENCH_server.json"))
    return 1;
  std::printf("server: ok\n");
  return 0;
}
