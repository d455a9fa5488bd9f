//===- tests/ProfileTest.cpp - Sampling-profiler tests --------------------===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The gc-map-driven sampling profiler (obs/Profile.h) must be:
///  - deterministic: samples fire at instruction ordinals, so the encoded
///    profile *body* is byte-identical across dispatch tiers and the
///    indexed/reference decoders — on the §6 benchmarks and the frozen
///    fuzz corpus alike;
///  - verified: every sampled stack is decoded through the gc-map tables
///    and cross-checked against the incrementally maintained call chain —
///    zero walk errors anywhere in the matrix;
///  - accurate: a directed workload whose Work() procedure retires nearly
///    all instructions pins >=90% of the sampled weight to it;
///  - attributable: server runs yield one profile request row per ReqDone
///    marker, conserving the global sample counters;
///  - strict on disk: the codec round-trips every field, and truncation,
///    trailing bytes, bad magic/version, and out-of-range indices are
///    decode errors, never best-effort results; every prefix of a real
///    profile and a flipped bit in any of its bytes either fails with a
///    diagnostic or decodes to a profile that round-trips and renders;
///  - honest about failures: a crashed run still yields a profile, marked
///    RunOk=false with the VM error preserved.
///
//===----------------------------------------------------------------------===//

#include "Corpus.h"
#include "Programs.h"
#include "TestUtil.h"

#include "obs/Profile.h"
#include "workload/Server.h"

#include <gtest/gtest.h>

#include <memory>

using namespace mgc;
using namespace mgc::test;

namespace {

/// Hot-function ground-truth program: Work() allocates and folds every
/// iteration, the main body only loops and accumulates.
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
  FOR r := 1 TO 100 DO
    sink := (sink + Work(200)) MOD 1000000007
  END;
  PutInt(sink); PutLn()
END Hot.
)";

struct ProfOutcome {
  bool Ok = false;
  std::string Error;
  obs::Profile P;
  std::vector<uint8_t> Body;
};

/// Runs an already-compiled program with the profiler attached under one
/// configuration and returns the built profile plus its encoded body.
ProfOutcome runProfiled(const vm::Program &Prog, vm::VMOptions VO,
                        uint64_t Interval = 256, bool SpawnSpin = false) {
  vm::VM M(Prog, VO);
  gc::installPreciseCollector(M);
  if (SpawnSpin) {
    int Idx = -1;
    for (unsigned F = 0; F != Prog.Funcs.size(); ++F)
      if (Prog.Funcs[F].Name == "Spin")
        Idx = static_cast<int>(F);
    if (Idx >= 0)
      M.spawnThread(static_cast<unsigned>(Idx));
  }
  obs::ProfilerConfig PC;
  PC.IntervalInstrs = Interval;
  obs::Profiler Prof(Prog, PC);
  M.Profiler = &Prof;
  ProfOutcome O;
  O.Ok = M.run();
  O.Error = M.Error;
  Prof.finish(O.Ok, M.Error, M.Stats.Instrs);
  O.P = Prof.buildProfile();
  obs::encodeProfileBody(O.P, O.Body);
  return O;
}

/// Fraction of the sampled mutator weight whose leaf function is \p Func.
double leafWeightPct(const obs::Profile &P, const std::string &Func) {
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
  return Total
             ? 100.0 * static_cast<double>(Hot) / static_cast<double>(Total)
             : 0.0;
}

//===----------------------------------------------------------------------===//
// Determinism: bodies byte-identical across the whole execution matrix
//===----------------------------------------------------------------------===//

TEST(ProfIdentity, Sec6AcrossTiersThreadsAndDecoders) {
  for (const programs::NamedProgram &Prog : programs::All) {
    driver::CompilerOptions CO;
    CO.OptLevel = 2;
    CO.WriteBarriers = true;
    auto C = driver::compile(Prog.Source, CO);
    ASSERT_TRUE(C.Prog != nullptr) << Prog.Name << ": " << C.Diags.str();

    vm::VMOptions VO;
    VO.HeapBytes = 64u << 10;
    VO.GenGc = true;
    VO.NurseryBytes = 8u << 10;

    VO.Dispatch = vm::DispatchTier::Threaded;
    ProfOutcome Ref = runProfiled(*C.Prog, VO);
    ASSERT_TRUE(Ref.Ok) << Prog.Name << ": " << Ref.Error;
    EXPECT_EQ(Ref.P.WalkErrors, 0u) << Prog.Name;
    EXPECT_GT(Ref.P.Samples, 0u) << Prog.Name;

    auto Expect = [&](const ProfOutcome &O, const char *Ctx) {
      ASSERT_TRUE(O.Ok) << Prog.Name << " " << Ctx << ": " << O.Error;
      EXPECT_EQ(O.P.WalkErrors, 0u) << Prog.Name << " " << Ctx;
      EXPECT_EQ(O.Body, Ref.Body)
          << Prog.Name << ": profile body diverged under " << Ctx;
    };

    // Switch tier.
    vm::VMOptions V2 = VO;
    V2.Dispatch = vm::DispatchTier::Switch;
    Expect(runProfiled(*C.Prog, V2), "switch dispatch");

    // Reference (walk-from-start) decoder.
    vm::VMOptions V3 = VO;
    V3.UseMapIndex = false;
    Expect(runProfiled(*C.Prog, V3), "reference decoder");

    // Indexed decode cross-checked against the reference per sample (and
    // per collected frame); a disagreement aborts.
    vm::VMOptions V4 = VO;
    V4.CrossCheck = true;
    Expect(runProfiled(*C.Prog, V4), "decode crosscheck");
  }
}

TEST(ProfIdentity, CorpusCrossTier) {
  for (const CorpusProgram &CP : corpus()) {
    driver::CompilerOptions CO;
    CO.OptLevel = 2;
    CO.WriteBarriers = true;
    if (CP.HasSpin)
      CO.ThreadedPolls = true;
    auto C = driver::compile(CP.Source, CO);
    ASSERT_TRUE(C.Prog != nullptr) << CP.Name << ": " << C.Diags.str();

    vm::VMOptions VO;
    VO.HeapBytes = 1u << 20;
    VO.GenGc = true;
    VO.NurseryBytes = 16u << 10;
    VO.InstrBudget = 50'000'000;

    VO.Dispatch = vm::DispatchTier::Threaded;
    ProfOutcome Th = runProfiled(*C.Prog, VO, 128, CP.HasSpin);
    VO.Dispatch = vm::DispatchTier::Switch;
    ProfOutcome Sw = runProfiled(*C.Prog, VO, 128, CP.HasSpin);

    ASSERT_EQ(Th.Ok, Sw.Ok) << CP.Name;
    EXPECT_EQ(Th.Error, Sw.Error) << CP.Name;
    EXPECT_EQ(Th.P.WalkErrors, 0u) << CP.Name;
    EXPECT_EQ(Sw.P.WalkErrors, 0u) << CP.Name;
    EXPECT_EQ(Th.Body, Sw.Body)
        << CP.Name << ": profile body diverged across tiers";
  }
}

//===----------------------------------------------------------------------===//
// Accuracy: the known-hot function dominates the sampled weight
//===----------------------------------------------------------------------===//

TEST(ProfGroundTruth, HotFunctionDominates) {
  driver::CompilerOptions CO;
  CO.OptLevel = 2;
  auto C = driver::compile(HotSource, CO);
  ASSERT_TRUE(C.Prog != nullptr) << C.Diags.str();

  vm::VMOptions VO;
  VO.HeapBytes = 64u << 10;
  ProfOutcome O = runProfiled(*C.Prog, VO, /*Interval=*/512);
  ASSERT_TRUE(O.Ok) << O.Error;

  EXPECT_GE(O.P.Samples, 100u);
  EXPECT_EQ(O.P.WalkErrors, 0u);
  EXPECT_GT(O.P.FramesSampled, O.P.Samples); // stacks have >1 frame
  // Sampled weight covers the span between first and last sample — at
  // most the run, and with a 512-instr interval nearly all of it.
  EXPECT_LE(O.P.SampleWeight, O.P.TotalInstrs);
  EXPECT_GE(O.P.SampleWeight, O.P.TotalInstrs * 9 / 10);
  EXPECT_GE(leafWeightPct(O.P, "Work"), 90.0);
  // Every allocation happened in Work: the alloc rows must agree.
  ASSERT_FALSE(O.P.Alloc.empty());
  uint64_t Allocs = 0;
  for (const obs::Profile::AllocRow &R : O.P.Alloc)
    Allocs += R.Count;
  EXPECT_EQ(Allocs, O.P.Allocs);
  EXPECT_EQ(O.P.Allocs, 100u * 200u);
}

//===----------------------------------------------------------------------===//
// Per-request attribution through the server harness
//===----------------------------------------------------------------------===//

TEST(ProfRequests, ServerRowsConserveCounters) {
  workload::ServerProgramConfig SPC;
  SPC.Seed = 11;
  SPC.Requests = 120;
  driver::CompilerOptions CO;
  CO.OptLevel = 2;
  CO.WriteBarriers = true;
  auto C = driver::compile(workload::generateServerProgram(SPC), CO);
  ASSERT_TRUE(C.Prog != nullptr) << C.Diags.str();

  workload::ServerRunConfig RC;
  RC.VO.HeapBytes = 16u << 10;
  RC.Profile = true;
  RC.ProfileInterval = 128;
  workload::ServerRunResult R = workload::runServer(*C.Prog, RC);
  ASSERT_TRUE(R.Ok) << R.Error;
  ASSERT_TRUE(R.HasProf);

  // One profile row per completed request, in sequence order.
  ASSERT_EQ(R.Prof.Requests.size(), R.ServiceInstrs.size());
  uint64_t Samples = 0, Weight = 0, Allocs = 0;
  for (size_t I = 0; I != R.Prof.Requests.size(); ++I) {
    EXPECT_EQ(R.Prof.Requests[I].Seq, I + 1);
    Samples += R.Prof.Requests[I].Samples;
    Weight += R.Prof.Requests[I].Weight;
    Allocs += R.Prof.Requests[I].Allocs;
  }
  // Request rows partition the samples taken up to the last marker; the
  // tail after it stays in the global counters only.
  EXPECT_LE(Samples, R.Prof.Samples);
  EXPECT_LE(Weight, R.Prof.SampleWeight);
  EXPECT_LE(Allocs, R.Prof.Allocs);
  EXPECT_GT(Samples, 0u);
  EXPECT_GT(Allocs, 0u);
  EXPECT_EQ(R.Prof.RequestsDropped, 0u);

  // The profile is part of the run's determinism envelope: a switch-tier
  // re-run must reproduce the body bit for bit.
  workload::ServerRunConfig RC2 = RC;
  RC2.VO.Dispatch = vm::DispatchTier::Switch;
  workload::ServerRunResult R2 = workload::runServer(*C.Prog, RC2);
  ASSERT_TRUE(R2.Ok) << R2.Error;
  std::vector<uint8_t> A, B;
  obs::encodeProfileBody(R.Prof, A);
  obs::encodeProfileBody(R2.Prof, B);
  EXPECT_EQ(A, B);
}

//===----------------------------------------------------------------------===//
// Codec: round-trip + strict decode
//===----------------------------------------------------------------------===//

TEST(ProfCodec, RoundTripPreservesEverything) {
  driver::CompilerOptions CO;
  CO.OptLevel = 2;
  auto C = driver::compile(HotSource, CO);
  ASSERT_TRUE(C.Prog != nullptr) << C.Diags.str();
  vm::VMOptions VO;
  VO.HeapBytes = 64u << 10;
  ProfOutcome O = runProfiled(*C.Prog, VO);
  ASSERT_TRUE(O.Ok) << O.Error;

  std::vector<uint8_t> Blob;
  obs::encodeProfile(O.P, Blob);
  obs::Profile D;
  std::string Err;
  ASSERT_TRUE(obs::decodeProfile(Blob, D, Err)) << Err;

  EXPECT_EQ(D.ToolVersion, O.P.ToolVersion);
  EXPECT_EQ(D.BuildFlags, O.P.BuildFlags);
  EXPECT_EQ(D.Seed, O.P.Seed);
  EXPECT_EQ(D.Program, O.P.Program);
  EXPECT_EQ(D.RunOk, O.P.RunOk);
  EXPECT_EQ(D.Samples, O.P.Samples);
  EXPECT_EQ(D.SampleWeight, O.P.SampleWeight);
  EXPECT_EQ(D.Allocs, O.P.Allocs);
  EXPECT_EQ(D.AllocBytes, O.P.AllocBytes);
  EXPECT_EQ(D.FuncNames, O.P.FuncNames);
  EXPECT_EQ(D.Mutator.size(), O.P.Mutator.size());
  EXPECT_EQ(D.Alloc.size(), O.P.Alloc.size());
  EXPECT_EQ(D.Stacks.size(), O.P.Stacks.size());
  EXPECT_EQ(D.Frames.size(), O.P.Frames.size());
  // The decoded profile re-encodes to the same body (full fidelity) and
  // the same digest (what the fuzz oracle compares).
  std::vector<uint8_t> Body2;
  obs::encodeProfileBody(D, Body2);
  EXPECT_EQ(Body2, O.Body);
  EXPECT_EQ(obs::profileSummary(D), obs::profileSummary(O.P));
  // Rendering a decoded profile works without the live program.
  EXPECT_NE(obs::renderProfile(D, 5).find("Work"), std::string::npos);
  EXPECT_NE(obs::renderFolded(D, false).find("Work"), std::string::npos);
}

TEST(ProfCodec, StrictDecodeRejectsMalformedInput) {
  driver::CompilerOptions CO;
  auto C = driver::compile(HotSource, CO);
  ASSERT_TRUE(C.Prog != nullptr) << C.Diags.str();
  vm::VMOptions VO;
  VO.HeapBytes = 64u << 10;
  ProfOutcome O = runProfiled(*C.Prog, VO);
  std::vector<uint8_t> Blob;
  obs::encodeProfile(O.P, Blob);

  obs::Profile D;
  std::string Err;

  // Bad magic.
  {
    std::vector<uint8_t> B = Blob;
    B[0] ^= 0xFF;
    EXPECT_FALSE(obs::decodeProfile(B, D, Err));
  }
  // Bad version.
  {
    std::vector<uint8_t> B = Blob;
    B[4] ^= 0x01;
    EXPECT_FALSE(obs::decodeProfile(B, D, Err));
  }
  // Truncation at every eighth prefix length (cheap but thorough).
  for (size_t Len = 0; Len < Blob.size(); Len += 8) {
    std::vector<uint8_t> B(Blob.begin(), Blob.begin() + Len);
    EXPECT_FALSE(obs::decodeProfile(B, D, Err)) << "prefix " << Len;
  }
  // Trailing garbage.
  {
    std::vector<uint8_t> B = Blob;
    B.push_back(0);
    EXPECT_FALSE(obs::decodeProfile(B, D, Err));
  }
  // Out-of-range stack id in a mutator row: rebuild a tiny profile by
  // hand so the offset is known.
  {
    obs::Profile P;
    P.Program = "t";
    P.FuncNames = {"f"};
    P.Frames.push_back({2, 0});
    P.Stacks.push_back({0, 0}); // overflow bucket
    P.Stacks.push_back({0, 1});
    P.Mutator.push_back({7, 1, 1}); // stack id 7 does not exist
    std::vector<uint8_t> B;
    obs::encodeProfile(P, B);
    EXPECT_FALSE(obs::decodeProfile(B, D, Err));
    EXPECT_NE(Err.find("stack"), std::string::npos) << Err;
  }
}

TEST(ProfCodec, StrictOnMutation) {
  // typereg's profile (about 8 KiB) has hundreds of stacks and allocation
  // rows.
  driver::CompilerOptions CO;
  CO.OptLevel = 2;
  auto C = driver::compile(programs::TypeRegSource, CO);
  ASSERT_TRUE(C.Prog != nullptr) << C.Diags.str();
  vm::VMOptions VO;
  VO.HeapBytes = 64u << 10;
  ProfOutcome O = runProfiled(*C.Prog, VO, /*Interval=*/8192);
  ASSERT_TRUE(O.Ok) << O.Error;
  std::vector<uint8_t> Blob;
  obs::encodeProfile(O.P, Blob);

  // Every truncation is rejected with a diagnostic, never a crash.
  for (size_t Len = 0; Len < Blob.size(); ++Len) {
    std::vector<uint8_t> B(Blob.begin(), Blob.begin() + Len);
    obs::Profile D;
    std::string Err;
    EXPECT_FALSE(obs::decodeProfile(B, D, Err)) << "prefix " << Len;
    EXPECT_FALSE(Err.empty()) << "prefix " << Len;
  }
  // A flipped bit in any byte either fails with a diagnostic or yields a
  // profile that re-encodes to one that decodes equal, and renders.
  for (size_t I = 0; I < Blob.size(); ++I) {
    std::vector<uint8_t> B = Blob;
    B[I] ^= 0x40;
    obs::Profile M;
    std::string Err;
    if (!obs::decodeProfile(B, M, Err)) {
      EXPECT_FALSE(Err.empty()) << "byte " << I;
      continue;
    }
    std::vector<uint8_t> Re, Re2;
    obs::encodeProfile(M, Re);
    obs::Profile M2;
    ASSERT_TRUE(obs::decodeProfile(Re, M2, Err)) << "byte " << I << ": "
                                                  << Err;
    obs::encodeProfile(M2, Re2);
    EXPECT_EQ(Re2, Re) << "byte " << I;
    EXPECT_EQ(obs::profileSummary(M2), obs::profileSummary(M)) << "byte " << I;
    EXPECT_FALSE(obs::renderProfile(M2, 5).empty()) << "byte " << I;
    obs::renderFolded(M2, /*Alloc=*/false);
    obs::renderFolded(M2, /*Alloc=*/true);
  }
}

//===----------------------------------------------------------------------===//
// Failure paths: partial profiles survive VM errors
//===----------------------------------------------------------------------===//

TEST(ProfError, FailedRunYieldsPartialProfile) {
  const char *Src = R"(MODULE M;
TYPE R = REF RECORD x: INTEGER END;
VAR r: R; i, s: INTEGER;
PROCEDURE Burn(n: INTEGER): INTEGER;
VAR a: R; j, t: INTEGER;
BEGIN
  t := 0;
  FOR j := 1 TO n DO a := NEW(R); a^.x := j; t := t + a^.x END;
  RETURN t
END Burn;
BEGIN
  s := 0;
  FOR i := 1 TO 50 DO s := s + Burn(100) END;
  r := NIL;
  PutInt(r^.x)
END M.)";
  driver::CompilerOptions CO;
  CO.OptLevel = 2;
  auto C = driver::compile(Src, CO);
  ASSERT_TRUE(C.Prog != nullptr) << C.Diags.str();

  vm::VMOptions VO;
  VO.HeapBytes = 64u << 10;
  ProfOutcome O = runProfiled(*C.Prog, VO, /*Interval=*/128);
  ASSERT_FALSE(O.Ok);

  // The profile survived the crash, carries the failure, and round-trips.
  EXPECT_FALSE(O.P.RunOk);
  EXPECT_NE(O.P.RunError.find("NIL"), std::string::npos) << O.P.RunError;
  EXPECT_GT(O.P.Samples, 0u);
  EXPECT_GT(O.P.Allocs, 0u);
  EXPECT_EQ(O.P.WalkErrors, 0u);
  std::vector<uint8_t> Blob;
  obs::encodeProfile(O.P, Blob);
  obs::Profile D;
  std::string Err;
  ASSERT_TRUE(obs::decodeProfile(Blob, D, Err)) << Err;
  EXPECT_FALSE(D.RunOk);
  EXPECT_EQ(D.RunError, O.P.RunError);
  // The report self-describes the partial data.
  EXPECT_NE(obs::renderProfile(D, 5).find("FAILED"), std::string::npos);
}

} // namespace
