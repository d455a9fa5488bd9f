//===- tools/mgc-prof.cpp - Profile analyzer -------------------------------===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Renders binary profiles written by `mgc --profile` (obs/Profile.h).
///
///   mgc-prof [options] FILE.prof
///
///   --top N        rows per table (default 10)
///   --folded       folded flamegraph lines ("main;f;g weight") instead of
///                  the report — pipe into standard flamegraph tooling;
///                  mutator weight by default
///   --alloc        with --folded: allocation profile (weight = bytes)
///   --diff B.prof  mutator-weight diff (B - FILE), keyed by folded stack
///   --summary      one-line digest (counts + body hash) — the fuzz
///                  oracle's twin-comparison form
///
//===----------------------------------------------------------------------===//

#include "obs/Profile.h"
#include "support/NumericArg.h"

#include <cstdio>
#include <cstring>

using namespace mgc;

namespace {
int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s [--top N] [--folded] [--alloc] [--diff B.prof] "
               "[--summary] FILE.prof\n",
               Argv0);
  return 2;
}
} // namespace

int main(int argc, char **argv) {
  const char *Path = nullptr;
  const char *DiffPath = nullptr;
  size_t TopN = 10;
  bool Folded = false, Alloc = false, Summary = false;

  for (int A = 1; A < argc; ++A) {
    const char *Arg = argv[A];
    if (!std::strcmp(Arg, "--top")) {
      if (++A == argc)
        return usage(argv[0]);
      if (!support::parseNumericArg("mgc-prof", Arg, argv[A], TopN,
                                    /*Min=*/1))
        return 2;
    } else if (!std::strcmp(Arg, "--folded")) {
      Folded = true;
    } else if (!std::strcmp(Arg, "--alloc")) {
      Alloc = true;
    } else if (!std::strcmp(Arg, "--summary")) {
      Summary = true;
    } else if (!std::strcmp(Arg, "--diff")) {
      if (++A == argc)
        return usage(argv[0]);
      DiffPath = argv[A];
    } else if (Arg[0] == '-') {
      return usage(argv[0]);
    } else {
      Path = Arg;
    }
  }
  if (!Path)
    return usage(argv[0]);

  obs::Profile P;
  std::string Err;
  if (!obs::readProfileFile(Path, P, Err)) {
    std::fprintf(stderr, "mgc-prof: %s: %s\n", Path, Err.c_str());
    return 1;
  }

  if (DiffPath) {
    obs::Profile B;
    if (!obs::readProfileFile(DiffPath, B, Err)) {
      std::fprintf(stderr, "mgc-prof: %s: %s\n", DiffPath, Err.c_str());
      return 1;
    }
    if (P.ToolVersion != B.ToolVersion || P.BuildFlags != B.BuildFlags)
      std::fprintf(stderr,
                   "mgc-prof: warning: profiles come from different builds "
                   "(%s / %s vs %s / %s)\n",
                   P.ToolVersion.c_str(), P.BuildFlags.c_str(),
                   B.ToolVersion.c_str(), B.BuildFlags.c_str());
    std::fputs(obs::renderDiff(P, B, TopN).c_str(), stdout);
    return 0;
  }
  if (Summary) {
    std::printf("%s\n", obs::profileSummary(P).c_str());
    return 0;
  }
  if (Folded) {
    std::fputs(obs::renderFolded(P, Alloc).c_str(), stdout);
    return 0;
  }
  std::fputs(obs::renderProfile(P, TopN).c_str(), stdout);
  return 0;
}
