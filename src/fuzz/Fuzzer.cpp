//===- fuzz/Fuzzer.cpp - Fuzzing campaign driver --------------------------===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//

#include "fuzz/Fuzzer.h"
#include "fuzz/Generator.h"
#include "fuzz/Oracle.h"
#include "fuzz/Reducer.h"
#include "support/Provenance.h"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace mgc;
using namespace mgc::fuzz;

namespace {

void writeFile(const std::string &Path, const std::string &Content) {
  std::ofstream Out(Path, std::ios::binary);
  Out << Content;
}

unsigned countLines(const std::string &S) {
  unsigned N = 0;
  for (char C : S)
    if (C == '\n')
      ++N;
  return N;
}

/// Repro command lines for the configs that diverged.
std::string reproText(const std::string &ReducedPath,
                      const OracleResult &Res, bool HasSpin) {
  std::ostringstream R;
  R << "# mgc-fuzz divergence repro\n";
  R << "# reduced source: " << ReducedPath << "\n";
  R << "# oracle report:\n" << Res.Report;
  R << "# reproduce each failing configuration with:\n";
  std::vector<RunSpec> Matrix = buildMatrix(HasSpin);
  for (const std::string &Name : Res.FailingConfigs)
    for (const RunSpec &S : Matrix)
      if (S.Name == Name)
        R << "build/tools/mgc " << ReducedPath << " " << S.CliFlags << "  # "
          << Name << "\n";
  return R.str();
}

} // namespace

FuzzSummary fuzz::runFuzz(const FuzzOptions &Opts) {
  auto Start = std::chrono::steady_clock::now();
  FuzzSummary S;
  std::ostringstream Log;
  std::filesystem::create_directories(Opts.OutDir);

  Log << "mgc-fuzz: seed " << Opts.Seed << " count " << Opts.Count << "\n";

  for (uint64_t Seed = Opts.Seed; Seed != Opts.Seed + Opts.Count; ++Seed) {
    GProgram P = generateProgram(Seed);
    ++S.Programs;
    S.CovDerivedAcrossCall += P.Cov.DerivedAcrossCall;
    S.CovAmbiguous += P.Cov.Ambiguous;
    S.CovThreads += P.Cov.Threads;
    S.CovOpenArrays += P.Cov.OpenArrays;
    S.CovWithBinding += P.Cov.WithBinding;
    S.CovRecursion += P.Cov.Recursion;
    S.CovRefChains += P.Cov.RefChains;
    S.CovVarParams += P.Cov.VarParams;
    S.CovServerLoop += P.Cov.ServerLoop;
    S.CovLeakBias += P.Cov.LeakBias;

    std::string Source = P.render();
    std::string Tag = "seed" + std::to_string(Seed);
    if (Opts.DumpAll)
      writeFile(Opts.OutDir + "/" + Tag + ".mg", Source);

    OracleResult Res = checkSource(Source, P.HasSpin);
    if (Res.RefFailed) {
      ++S.GeneratorDefects;
      Log << Tag << ": generator defect\n" << Res.Report;
      writeFile(Opts.OutDir + "/" + Tag + ".mg", Source);
      continue;
    }
    if (!Res.Diverged)
      continue;

    ++S.Divergences;
    Log << Tag << ": DIVERGENCE\n" << Res.Report;
    writeFile(Opts.OutDir + "/" + Tag + ".mg", Source);

    GProgram Reduced = P;
    ReduceStats RS;
    if (Opts.Reduce)
      Reduced = reduceDivergence(P, Res, Opts.MaxReduceTries, &RS);
    std::string ReducedSource = Reduced.render();
    std::string ReducedPath = Opts.OutDir + "/" + Tag + ".reduced.mg";
    writeFile(ReducedPath, ReducedSource);

    OracleResult Final = checkSource(ReducedSource, Reduced.HasSpin);
    writeFile(Opts.OutDir + "/" + Tag + ".repro.txt",
              reproText(ReducedPath, Final.Diverged ? Final : Res,
                        Reduced.HasSpin));
    Log << "  reduced: " << countLines(ReducedSource) << " lines after "
        << RS.Tries << " tries -> " << ReducedPath << "\n";
  }

  Log << "summary: " << S.Programs << " programs, " << S.Divergences
      << " divergences, " << S.GeneratorDefects << " generator defects\n";
  Log << "coverage: derived-across-call " << S.CovDerivedAcrossCall << "/"
      << S.Programs << ", ambiguous " << S.CovAmbiguous << "/" << S.Programs
      << ", threads " << S.CovThreads << "/" << S.Programs
      << ", open-arrays " << S.CovOpenArrays << "/" << S.Programs
      << ", with " << S.CovWithBinding << "/" << S.Programs
      << ", recursion " << S.CovRecursion << "/" << S.Programs
      << ", ref-chains " << S.CovRefChains << "/" << S.Programs
      << ", var-params " << S.CovVarParams << "/" << S.Programs
      << ", server-loop " << S.CovServerLoop << "/" << S.Programs
      << ", leak-bias " << S.CovLeakBias << "/" << S.Programs << "\n";
  S.Log = Log.str();
  S.Seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();
  return S;
}

std::string fuzz::summaryJson(const FuzzOptions &Opts, const FuzzSummary &S) {
  auto Frac = [&](unsigned N) {
    std::ostringstream F;
    F << (S.Programs ? static_cast<double>(N) / S.Programs : 0.0);
    return F.str();
  };
  std::ostringstream J;
  J << "{\n";
  J << "  \"provenance\": " << support::provenanceJson(Opts.Seed) << ",\n";
  J << "  \"seed\": " << Opts.Seed << ",\n";
  J << "  \"count\": " << Opts.Count << ",\n";
  J << "  \"programs\": " << S.Programs << ",\n";
  J << "  \"divergences\": " << S.Divergences << ",\n";
  J << "  \"generator_defects\": " << S.GeneratorDefects << ",\n";
  J << "  \"seconds\": " << S.Seconds << ",\n";
  J << "  \"programs_per_sec\": "
    << (S.Seconds > 0 ? S.Programs / S.Seconds : 0.0) << ",\n";
  J << "  \"coverage\": {\n";
  J << "    \"derived_across_call\": " << Frac(S.CovDerivedAcrossCall)
    << ",\n";
  J << "    \"ambiguous\": " << Frac(S.CovAmbiguous) << ",\n";
  J << "    \"threads\": " << Frac(S.CovThreads) << ",\n";
  J << "    \"open_arrays\": " << Frac(S.CovOpenArrays) << ",\n";
  J << "    \"with_binding\": " << Frac(S.CovWithBinding) << ",\n";
  J << "    \"recursion\": " << Frac(S.CovRecursion) << ",\n";
  J << "    \"ref_chains\": " << Frac(S.CovRefChains) << ",\n";
  J << "    \"var_params\": " << Frac(S.CovVarParams) << ",\n";
  J << "    \"server_loop\": " << Frac(S.CovServerLoop) << ",\n";
  J << "    \"leak_bias\": " << Frac(S.CovLeakBias) << "\n";
  J << "  }\n";
  J << "}\n";
  return J.str();
}
