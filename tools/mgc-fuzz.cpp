//===- tools/mgc-fuzz.cpp - Differential GC fuzzer driver -----------------===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Command-line front end of the differential fuzzer (src/fuzz):
///
///   mgc-fuzz --seed 1 --count 200 [--out fuzz-artifacts]
///            [--json BENCH_fuzz.json] [--no-reduce] [--dump]
///
/// Generates `count` deterministic MG programs starting at `seed`, runs
/// each through the cross-mode oracle, and on divergence writes the
/// original source, a reduced repro, and the mgc command lines that
/// reproduce it to the artifact directory.  stdout is a pure function of
/// (seed, count); wall-clock throughput goes only to the JSON file.
/// Exits 1 if any divergence was found (a compiler/collector bug) or any
/// generated program was itself defective (a generator bug).
///
//===----------------------------------------------------------------------===//

#include "fuzz/Fuzzer.h"
#include "support/NumericArg.h"

#include <cstdio>
#include <cstring>
#include <fstream>

using namespace mgc;

namespace {
int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s [--seed N] [--count N] [--out DIR] [--json FILE] "
               "[--no-reduce] [--dump]\n",
               Argv0);
  return 2;
}
} // namespace

int main(int argc, char **argv) {
  fuzz::FuzzOptions Opts;
  std::string JsonPath;

  for (int A = 1; A < argc; ++A) {
    const char *Arg = argv[A];
    if (!std::strcmp(Arg, "--seed")) {
      if (++A == argc)
        return usage(argv[0]);
      if (!support::parseNumericArg("mgc-fuzz", Arg, argv[A], Opts.Seed))
        return 2;
    } else if (!std::strcmp(Arg, "--count")) {
      if (++A == argc)
        return usage(argv[0]);
      if (!support::parseNumericArg("mgc-fuzz", Arg, argv[A], Opts.Count))
        return 2;
    } else if (!std::strcmp(Arg, "--out")) {
      if (++A == argc)
        return usage(argv[0]);
      Opts.OutDir = argv[A];
    } else if (!std::strcmp(Arg, "--json")) {
      if (++A == argc)
        return usage(argv[0]);
      JsonPath = argv[A];
    } else if (!std::strcmp(Arg, "--no-reduce")) {
      Opts.Reduce = false;
    } else if (!std::strcmp(Arg, "--dump")) {
      Opts.DumpAll = true;
    } else {
      return usage(argv[0]);
    }
  }

  fuzz::FuzzSummary S = fuzz::runFuzz(Opts);
  std::fputs(S.Log.c_str(), stdout);

  if (!JsonPath.empty()) {
    std::ofstream Out(JsonPath);
    Out << fuzz::summaryJson(Opts, S);
  }
  return (S.Divergences || S.GeneratorDefects) ? 1 : 0;
}
