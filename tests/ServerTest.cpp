//===- tests/ServerTest.cpp - Server-workload harness tests ---------------===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The server-workload harness (src/workload) must be deterministic in
/// virtual time and honest about GC attribution:
///  - every completed request yields exactly one latency sample;
///  - per-request GC nanos plus the unattributed tail equal the tracer's
///    total across all collection events;
///  - the percentile math agrees with a from-scratch sorted reference;
///  - arrival schedules are seeded, sorted, and wall-clock free;
///  - request outputs and service-instruction samples are identical
///    across -O0/-O2, two-space/gen-gc, and both dispatch tiers;
///  - the heap-sizing policies (--heap-growth, --nursery-auto) never
///    shrink below the live set, respect the nursery floor/cap, keep
///    program outputs unchanged, and leave the oversize-allocation
///    diagnostic deterministic.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "support/Percentile.h"
#include "workload/Server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

using namespace mgc;
using namespace mgc::workload;

namespace {

std::unique_ptr<vm::Program> compileServer(const ServerProgramConfig &PC,
                                           int OptLevel = 2) {
  driver::CompilerOptions CO;
  CO.OptLevel = OptLevel;
  // Barriers are no-ops under two-space, so one compile serves both
  // collectors with an identical instruction stream; polls make spawned
  // Spin threads reach gc-points.
  CO.WriteBarriers = true;
  if (PC.Spin)
    CO.ThreadedPolls = true;
  auto R = driver::compile(generateServerProgram(PC), CO);
  EXPECT_TRUE(R.Prog != nullptr) << R.Diags.str();
  return std::move(R.Prog);
}

ServerRunConfig smallHeapConfig() {
  ServerRunConfig C;
  C.VO.HeapBytes = 16u << 10; // Collect mid-run: this is a GC harness.
  return C;
}

//===----------------------------------------------------------------------===//
// Harness invariants
//===----------------------------------------------------------------------===//

TEST(ServerHarnessTest, RequestsEqualLatencySamples) {
  ServerProgramConfig PC;
  PC.Seed = 3;
  PC.Requests = 200;
  auto Prog = compileServer(PC);
  ASSERT_TRUE(Prog);
  ServerRunResult R = runServer(*Prog, smallHeapConfig());
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Stats.Requests, 200u);
  EXPECT_EQ(R.ServiceInstrs.size(), 200u);
  EXPECT_EQ(R.GcNanos.size(), 200u);
  EXPECT_EQ(R.Collections.size(), 200u);
  EXPECT_EQ(R.LatencyInstrs.size(), 200u);
  // A queued request can never complete before its own service demand.
  for (size_t I = 0; I != R.ServiceInstrs.size(); ++I)
    EXPECT_GE(R.LatencyInstrs[I], R.ServiceInstrs[I]);
}

TEST(ServerHarnessTest, GcAttributionSumsToTracerTotal) {
  ServerProgramConfig PC;
  PC.Seed = 5;
  PC.Requests = 300;
  auto Prog = compileServer(PC);
  ASSERT_TRUE(Prog);
  ServerRunResult R = runServer(*Prog, smallHeapConfig());
  ASSERT_TRUE(R.Ok) << R.Error;
  ASSERT_GT(R.Stats.Collections, 0u) << "heap too large: nothing to attribute";
  uint64_t Attributed = 0, Colls = 0;
  for (size_t I = 0; I != R.GcNanos.size(); ++I) {
    Attributed += R.GcNanos[I];
    Colls += R.Collections[I];
  }
  // Every nanosecond the tracer charged to a collection event lands in
  // exactly one request window or in the post-final-marker tail.
  EXPECT_EQ(Attributed + R.UnattributedGcNanos, R.TracerGcNanosTotal);
  EXPECT_LE(Colls, R.Stats.Collections);
  EXPECT_GT(R.TracerGcNanosTotal, 0u);
}

TEST(ServerHarnessTest, PercentileMatchesSortedReference) {
  std::vector<uint64_t> V = {9, 2, 44, 7, 7, 100, 3, 15, 8, 1, 61};
  std::vector<uint64_t> Sorted = V;
  std::sort(Sorted.begin(), Sorted.end());
  for (double P : {0.0, 0.5, 0.9, 0.95, 0.99, 1.0}) {
    size_t I =
        static_cast<size_t>(P * static_cast<double>(Sorted.size() - 1) + 0.5);
    EXPECT_EQ(support::percentile(V, P),
              Sorted[std::min(I, Sorted.size() - 1)])
        << "P=" << P;
  }
  EXPECT_EQ(support::percentile({}, 0.5), 0u);
  EXPECT_EQ(support::percentile({42}, 0.99), 42u);
}

TEST(ServerHarnessTest, ArrivalScheduleDeterministicAndSorted) {
  for (ArrivalKind K : {ArrivalKind::Uniform, ArrivalKind::Bursty}) {
    ScheduleConfig C;
    C.Kind = K;
    C.Seed = 11;
    std::vector<uint64_t> A = arrivalSchedule(C, 500);
    std::vector<uint64_t> B = arrivalSchedule(C, 500);
    ASSERT_EQ(A.size(), 500u);
    EXPECT_EQ(A, B) << "same seed must give identical arrivals";
    EXPECT_TRUE(std::is_sorted(A.begin(), A.end()));
    C.Seed = 12;
    EXPECT_NE(arrivalSchedule(C, 500), A)
        << "different seed must move the arrivals";
  }
  // Bursty schedules really are bursty: back-to-back arrivals exist.
  ScheduleConfig C;
  C.Kind = ArrivalKind::Bursty;
  std::vector<uint64_t> A = arrivalSchedule(C, 64);
  bool SawZeroGap = false;
  for (size_t I = 1; I != A.size(); ++I)
    SawZeroGap |= A[I] == A[I - 1];
  EXPECT_TRUE(SawZeroGap);
}

//===----------------------------------------------------------------------===//
// Cross-mode identity
//===----------------------------------------------------------------------===//

TEST(ServerMatrixTest, IdenticalAcrossModes) {
  ServerProgramConfig PC;
  PC.Seed = 7;
  PC.Requests = 250;
  std::string RefOut;
  for (int Opt : {0, 2}) {
    auto Prog = compileServer(PC, Opt);
    ASSERT_TRUE(Prog);
    for (bool Gen : {false, true}) {
      // Virtual-time service demand is a compile-time artifact plus the
      // collector's gc-point schedule — never the dispatch tier's.  Within
      // one (opt, collector) cell the switch tier must match the threaded
      // run exactly.
      std::vector<uint64_t> RefService;
      for (vm::DispatchTier Tier :
           {vm::DispatchTier::Threaded, vm::DispatchTier::Switch}) {
        ServerRunConfig C = smallHeapConfig();
        C.VO.GenGc = Gen;
        C.VO.Dispatch = Tier;
        ServerRunResult R = runServer(*Prog, C);
        ASSERT_TRUE(R.Ok) << R.Error << " (gen=" << Gen << ")";
        if (RefOut.empty())
          RefOut = R.Out;
        EXPECT_EQ(R.Out, RefOut)
            << "output diverged (opt=" << Opt << " gen=" << Gen << ")";
        EXPECT_EQ(R.Stats.Requests, 250u);
        if (RefService.empty())
          RefService = R.ServiceInstrs;
        EXPECT_EQ(R.ServiceInstrs, RefService)
            << "service samples diverged (opt=" << Opt << " gen=" << Gen
            << " switch=" << (Tier == vm::DispatchTier::Switch) << ")";
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Heap-sizing policies
//===----------------------------------------------------------------------===//

TEST(ServerHeapPolicyTest, GrowthNeverShrinksAndCoversLive) {
  ServerProgramConfig PC;
  PC.Seed = 9;
  PC.Requests = 300;
  auto Prog = compileServer(PC);
  ASSERT_TRUE(Prog);

  // Reference: a fixed heap big enough to finish.
  ServerRunConfig Fixed;
  Fixed.VO.HeapBytes = 1u << 20;
  ServerRunResult FR = runServer(*Prog, Fixed);
  ASSERT_TRUE(FR.Ok) << FR.Error;

  // Policy run: start tiny, grow on the 70% occupancy trigger.
  vm::VMOptions VO;
  VO.HeapBytes = 16u << 10;
  VO.HeapGrowthPct = 70;
  VO.HeapMaxBytes = 1u << 20;
  vm::VM M(*Prog, VO);
  gc::installPreciseCollector(M);
  size_t LastCap = M.TheHeap.capacityBytes();
  M.PostGcHook = [&](vm::VM &V) {
    size_t Cap = V.TheHeap.capacityBytes();
    EXPECT_GE(Cap, LastCap) << "growth policy must never shrink the heap";
    EXPECT_GE(Cap, V.TheHeap.usedBytes());
    EXPECT_LE(Cap, size_t(1u << 20));
    LastCap = Cap;
  };
  ASSERT_TRUE(M.run()) << M.Error;
  EXPECT_EQ(M.Out, FR.Out) << "heap policy must not change program results";
  EXPECT_GT(M.TheHeap.HeapGrowths, 0u) << "a 16 KiB heap must have grown";
  EXPECT_GT(M.TheHeap.capacityBytes(), size_t(16u << 10));
}

TEST(ServerHeapPolicyTest, NurseryAutoRespectsFloorAndCap) {
  ServerProgramConfig PC;
  PC.Seed = 13;
  PC.Requests = 400;
  auto Prog = compileServer(PC);
  ASSERT_TRUE(Prog);

  ServerRunConfig Fixed;
  Fixed.VO.HeapBytes = 256u << 10;
  Fixed.VO.GenGc = true;
  ServerRunResult FR = runServer(*Prog, Fixed);
  ASSERT_TRUE(FR.Ok) << FR.Error;

  vm::VMOptions VO;
  VO.HeapBytes = 256u << 10;
  VO.GenGc = true;
  VO.NurseryBytes = 4u << 10; // Floor: auto-sizing may grow, never below.
  VO.NurseryAuto = true;
  vm::VM M(*Prog, VO);
  gc::installPreciseCollector(M);
  const size_t Floor = M.TheHeap.nurseryCapacityBytes();
  EXPECT_EQ(Floor, size_t(4u << 10)) << "--nursery-bytes sets the half size";
  const size_t Cap = std::max(Floor, (VO.HeapBytes / 4) & ~size_t(7));
  M.PostGcHook = [&](vm::VM &V) {
    size_t Half = V.TheHeap.nurseryCapacityBytes();
    EXPECT_GE(Half, Floor);
    EXPECT_LE(Half, Cap);
  };
  ASSERT_TRUE(M.run()) << M.Error;
  EXPECT_EQ(M.Out, FR.Out) << "nursery auto-sizing must not change results";
  EXPECT_GT(M.Stats.Collections, 0u);
  EXPECT_GT(M.TheHeap.NurseryResizes, 0u)
      << "an 8 KiB nursery under this churn must have resized";
}

TEST(ServerHeapPolicyTest, OversizeDiagnosticDeterministicUnderPolicies) {
  // An allocation over every policy's capacity cap must fail with the
  // same diagnostic regardless of policy and dispatch tier: the cap is a
  // run constant, so the failure cannot depend on when the heap grew.
  const char *Source = R"(
MODULE Big;
TYPE IArr = REF ARRAY OF INTEGER;
VAR a: IArr;
BEGIN
  a := NEW(IArr, 10000000);
  PutInt(NUMBER(a)); PutLn()
END Big.)";
  driver::CompilerOptions CO;
  CO.WriteBarriers = true;
  auto R = driver::compile(Source, CO);
  ASSERT_TRUE(R.Prog) << R.Diags.str();

  struct Policy {
    bool Gen;
    unsigned GrowthPct;
    bool NurAuto;
  };
  const Policy Policies[] = {
      {false, 0, false}, {false, 70, false}, {true, 0, false}, {true, 70, true}};
  std::string RefErr;
  for (const Policy &P : Policies)
    for (vm::DispatchTier Tier :
         {vm::DispatchTier::Threaded, vm::DispatchTier::Switch}) {
      vm::VMOptions VO;
      VO.HeapBytes = 64u << 10;
      VO.GenGc = P.Gen;
      VO.HeapGrowthPct = P.GrowthPct;
      VO.NurseryAuto = P.NurAuto;
      VO.Dispatch = Tier;
      vm::VM M(*R.Prog, VO);
      gc::installPreciseCollector(M);
      EXPECT_FALSE(M.run());
      EXPECT_NE(M.Error.find("out of memory"), std::string::npos) << M.Error;
      if (RefErr.empty())
        RefErr = M.Error;
      EXPECT_EQ(M.Error, RefErr)
          << "oversize diagnostic must not depend on policy/tier";
      EXPECT_TRUE(M.Out.empty());
    }
}

} // namespace
