//===- tests/FuzzRegressionTest.cpp - Differential fuzzer regression -------===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fuzzer as a regression suite: the checked-in corpus runs through
/// the full differential mode matrix, the campaign is bit-for-bit
/// deterministic, the generator keeps producing valid programs, and —
/// the end-to-end self-test — an intentionally injected gc-table bug is
/// caught by the oracle and reduced to a small repro.
///
//===----------------------------------------------------------------------===//

#include "Corpus.h"

#include "fuzz/Fuzzer.h"
#include "fuzz/Generator.h"
#include "fuzz/Oracle.h"
#include "fuzz/Reducer.h"
#include "support/ByteCodec.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

using namespace mgc;
using namespace mgc::test;
using namespace mgc::fuzz;

namespace {

//===----------------------------------------------------------------------===//
// Corpus through the oracle matrix
//===----------------------------------------------------------------------===//

class FuzzCorpus : public ::testing::TestWithParam<std::string> {};

TEST_P(FuzzCorpus, OracleMatrixAgrees) {
  const CorpusProgram &P = corpusProgram(GetParam());
  OracleResult Res = checkSource(P.Source, P.HasSpin);
  EXPECT_FALSE(Res.RefFailed) << P.Name << " no longer compiles/runs:\n"
                              << Res.Report;
  EXPECT_FALSE(Res.Diverged) << P.Name << " diverged:\n" << Res.Report;
}

INSTANTIATE_TEST_SUITE_P(Corpus, FuzzCorpus,
                         ::testing::ValuesIn(corpusNames()),
                         [](const ::testing::TestParamInfo<std::string> &I) {
                           return I.param;
                         });

// The steady-state cell must not be vacuous: a server-loop program has to
// actually reach the third ReqDone marker and snapshot a non-empty
// globals-reachable graph there.  Guards against the matrix "agreeing"
// only because every cell silently recorded zeros.
TEST(FuzzOracle, MidRunSnapshotCapturesServerLoop) {
  const CorpusProgram &P = corpusProgram("seed126");
  ASSERT_NE(P.Source.find("ReqDone()"), std::string::npos)
      << "seed126 lost its server loop";
  std::vector<RunSpec> Matrix = buildMatrix(P.HasSpin);
  ASSERT_TRUE(Matrix.front().IsRef);
  driver::CompileResult C =
      std::move(driver::compileBatch(P.Source, {Matrix.front().CO}).front());
  ASSERT_TRUE(C.Prog) << C.Diags.str();
  RunOutcome O = runSandboxed(*C.Prog, Matrix.front());
  ASSERT_EQ(O.St, RunOutcome::Ok) << O.Error;
  EXPECT_FALSE(O.MidViolation) << O.MidError;
  EXPECT_GE(O.MidRequests, 3u);
  EXPECT_GT(O.MidNodes, 0u);
  EXPECT_GT(O.MidBytes, 0u);
}

//===----------------------------------------------------------------------===//
// The child-to-parent payload
//===----------------------------------------------------------------------===//

// Every field set to a distinct non-default value: strings holding newlines
// and NUL bytes, counters with both 32-bit halves set.
RunOutcome fullOutcome(RunOutcome::Status St) {
  using namespace std::string_literals;
  uint64_t N = 0;
  auto Next = [&N] { return N += 0x100000001ull; };
  RunOutcome O;
  O.St = St;
  O.Signal = 11;
  O.Out = "line 1\nline 2\0tail\n"s;
  O.Error = "\0error\n"s;
  O.Collections = Next();
  O.MinorCollections = Next();
  O.RootsTraced = Next();
  O.DerivedAdjusted = Next();
  O.FramesTraced = Next();
  O.WriteBarriersRun = Next();
  O.BytesCopied = Next();
  O.ObjectsCopied = Next();
  O.Instrs = Next();
  O.ConservativeViolation = true;
  O.ConservativeReached = Next();
  O.PreciseLive = Next();
  O.SnapViolation = true;
  O.SnapNodes = Next();
  O.SnapBytes = Next();
  O.SnapError = "snap\0\n"s;
  O.MidViolation = true;
  O.MidRequests = Next();
  O.MidNodes = Next();
  O.MidBytes = Next();
  O.MidOutLen = Next();
  O.MidError = "mid\n\0"s;
  O.LeakSummary = "3:64:128:2;\n"s;
  O.ProfSummary = "1:2:3:4:5:0:\0ff"s;
  return O;
}

TEST(FuzzOracle, OutcomePayloadRoundTrips) {
  for (RunOutcome::Status St : {RunOutcome::Ok, RunOutcome::RuntimeError,
                                RunOutcome::CompileError,
                                RunOutcome::Crashed}) {
    SCOPED_TRACE(static_cast<int>(St));
    RunOutcome O = fullOutcome(St);
    std::vector<uint8_t> Payload;
    encodeFields(O, Payload);
    RunOutcome Back;
    std::string Err;
    ASSERT_TRUE(decodeFields(Payload, Back, Err)) << Err;
    EXPECT_TRUE(Back == O);
  }
}

// The parent reports a payload that does not decode exactly as a crash, so
// a child killed mid-write, or one that wrote too much, is a crash.
TEST(FuzzOracle, OutcomePayloadRejectsPrefixesAndTrailingBytes) {
  std::vector<uint8_t> Payload;
  encodeFields(fullOutcome(RunOutcome::RuntimeError), Payload);
  RunOutcome Back;
  std::string Err;
  for (size_t Len = 0; Len != Payload.size(); ++Len) {
    std::vector<uint8_t> Prefix(Payload.begin(), Payload.begin() + Len);
    EXPECT_FALSE(decodeFields(Prefix, Back, Err)) << "prefix " << Len;
  }
  Payload.push_back(0);
  EXPECT_FALSE(decodeFields(Payload, Back, Err));
  EXPECT_EQ(Err, "trailing bytes after record");
}

//===----------------------------------------------------------------------===//
// Generator validity
//===----------------------------------------------------------------------===//

TEST(FuzzGenerator, ProducesValidPrograms) {
  // Seeds disjoint from the corpus range: every generated program must
  // compile at both optimization levels.
  for (uint64_t Seed = 60; Seed != 80; ++Seed) {
    GProgram P = generateProgram(Seed);
    std::string Source = P.render();
    for (int Opt : {0, 2}) {
      driver::CompilerOptions CO;
      CO.OptLevel = Opt;
      CO.ThreadedPolls = P.HasSpin;
      auto C = driver::compile(Source, CO);
      ASSERT_TRUE(C.Prog) << "seed " << Seed << " -O" << Opt << ":\n"
                          << C.Diags.str() << "\n"
                          << Source;
    }
  }
}

TEST(FuzzGenerator, RenderIsDeterministic) {
  for (uint64_t Seed : {1u, 7u, 19u, 42u}) {
    EXPECT_EQ(generateProgram(Seed).render(), generateProgram(Seed).render())
        << "seed " << Seed;
  }
}

//===----------------------------------------------------------------------===//
// Campaign determinism
//===----------------------------------------------------------------------===//

std::map<std::string, std::string> readDir(const std::filesystem::path &D) {
  std::map<std::string, std::string> Files;
  for (const auto &E : std::filesystem::directory_iterator(D)) {
    std::ifstream In(E.path(), std::ios::binary);
    std::ostringstream Buf;
    Buf << In.rdbuf();
    Files[E.path().filename().string()] = Buf.str();
  }
  return Files;
}

TEST(FuzzCampaign, DeterministicAcrossRuns) {
  namespace fs = std::filesystem;
  fs::path A = fs::temp_directory_path() / "mgc-fuzz-det-a";
  fs::path B = fs::temp_directory_path() / "mgc-fuzz-det-b";
  fs::remove_all(A);
  fs::remove_all(B);

  FuzzOptions Opts;
  Opts.Seed = 1;
  Opts.Count = 5;
  Opts.DumpAll = true;
  FuzzSummary S1, S2;
  Opts.OutDir = A.string();
  S1 = runFuzz(Opts);
  Opts.OutDir = B.string();
  S2 = runFuzz(Opts);

  // The log (everything except wall-clock timing, which lives only in
  // the JSON) and every artifact byte must match.
  EXPECT_EQ(S1.Log, S2.Log);
  EXPECT_EQ(S1.Divergences, 0u) << S1.Log;
  EXPECT_EQ(S1.GeneratorDefects, 0u) << S1.Log;
  EXPECT_EQ(readDir(A), readDir(B));

  fs::remove_all(A);
  fs::remove_all(B);
}

//===----------------------------------------------------------------------===//
// Injected-bug self-test
//===----------------------------------------------------------------------===//

TEST(FuzzSelfTest, InjectedDeltaBitBugCaughtAndReduced) {
  // MGC_FUZZ_DROP_DELTA_BIT makes the table emitter clear the highest set
  // bit of each gc-point's last delta byte: a live root silently vanishes
  // from the maps.  Both decoders read the same broken table, so only
  // behavioral divergence can catch it — which is exactly the fuzzer's
  // job.  Forked oracle children inherit the variable.
  GProgram P = generateProgram(1);
  std::string Source = P.render();

  // Sanity: the program is clean without the bug.
  OracleResult Clean = checkSource(Source, P.HasSpin);
  ASSERT_FALSE(Clean.RefFailed) << Clean.Report;
  ASSERT_FALSE(Clean.Diverged) << Clean.Report;

  ASSERT_EQ(setenv("MGC_FUZZ_DROP_DELTA_BIT", "1", 1), 0);
  OracleResult Broken = checkSource(Source, P.HasSpin);
  EXPECT_FALSE(Broken.RefFailed) << Broken.Report;
  EXPECT_TRUE(Broken.Diverged)
      << "the injected table bug must produce a divergence";

  GProgram Reduced = P;
  if (Broken.Diverged) {
    ReduceStats RS;
    Reduced = reduceDivergence(P, Broken, 1500, &RS);
    std::string Repro = Reduced.render();
    unsigned Lines = 0;
    for (char C : Repro)
      Lines += C == '\n';
    EXPECT_LE(Lines, 30u) << "reduced repro too large:\n" << Repro;
    EXPECT_GT(RS.Accepted, 0u);
  }
  ASSERT_EQ(unsetenv("MGC_FUZZ_DROP_DELTA_BIT"), 0);

  // With the flag gone the reduced program must be clean again: the
  // divergence was the injected bug, not a generator artifact.
  OracleResult After = checkSource(Reduced.render(), Reduced.HasSpin);
  EXPECT_FALSE(After.Diverged) << After.Report;
}

} // namespace
