//===- tools/mgc-heapsnap.cpp - Heap snapshot analyzer ---------------------===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Analyze heap snapshots written by `mgc --heap-snapshot`.
///
///   mgc-heapsnap [--top N] file.snap
///       Full analysis: totals, dominator-based retained sizes, top-N by
///       shallow/retained bytes grouped by allocation site and by type,
///       age histogram.
///
///   mgc-heapsnap --path-to NODE file.snap
///       All retaining paths to a node id (ids as printed by the
///       analysis), ranked by the retained bytes of each path's root.
///
///   mgc-heapsnap --diff old.snap new.snap [--top N]
///       Per-site growth between two snapshots of the same program.
///
///   mgc-heapsnap --watch base.snap [--top N]
///   mgc-heapsnap --watch s1.snap s2.snap ... [--top N]
///       Continuous watch over a `--snapshot-every N` stream: with one
///       argument, auto-discovers base.snap.1, base.snap.2, ... plus the
///       at-exit base.snap; with several, uses them in the given order.
///       Reports per-snapshot crosschecked totals, incremental and
///       cumulative per-site growth, and retaining-path churn.  Exits 1
///       if any snapshot fails its internal crosscheck, and 2 (a usage
///       error) when the stream has fewer than 2 snapshots.
///
/// Any truncated or corrupt snapshot file is a one-line diagnostic and a
/// non-zero exit — never a partial report.
///
//===----------------------------------------------------------------------===//

#include "obs/HeapSnapshot.h"
#include "support/NumericArg.h"

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace mgc;

namespace {
int usage() {
  std::fprintf(stderr,
               "usage: mgc-heapsnap [--top N] file.snap\n"
               "       mgc-heapsnap --path-to NODE file.snap\n"
               "       mgc-heapsnap --diff old.snap new.snap [--top N]\n"
               "       mgc-heapsnap --watch base.snap [--top N]\n"
               "       mgc-heapsnap --watch s1.snap s2.snap ... [--top N]\n");
  return 2;
}

bool load(const char *Path, obs::HeapSnapshot &S) {
  std::string Err;
  if (!obs::readSnapshotFile(Path, S, Err)) {
    std::fprintf(stderr, "mgc-heapsnap: %s: %s\n", Path, Err.c_str());
    return false;
  }
  return true;
}
} // namespace

int main(int argc, char **argv) {
  size_t TopN = 10;
  bool Diff = false;
  bool Watch = false;
  bool HavePath = false;
  unsigned long long PathNode = 0;
  std::vector<const char *> Files;

  for (int A = 1; A < argc; ++A) {
    const char *Arg = argv[A];
    if (!std::strcmp(Arg, "--top")) {
      if (++A == argc)
        return usage();
      if (!support::parseNumericArg("mgc-heapsnap", Arg, argv[A], TopN))
        return 2;
    } else if (!std::strcmp(Arg, "--diff")) {
      Diff = true;
    } else if (!std::strcmp(Arg, "--watch")) {
      Watch = true;
    } else if (!std::strcmp(Arg, "--path-to")) {
      if (++A == argc)
        return usage();
      HavePath = true;
      if (!support::parseNumericArg("mgc-heapsnap", Arg, argv[A], PathNode))
        return 2;
    } else if (Arg[0] == '-') {
      return usage();
    } else {
      Files.push_back(Arg);
    }
  }

  if (Watch) {
    if (Files.empty() || HavePath || Diff)
      return usage();
    std::vector<obs::HeapSnapshot> Stream;
    if (Files.size() == 1) {
      // A --snapshot-every stream: base.1, base.2, ... in collection
      // order, then the at-exit snapshot at the base path itself.
      for (unsigned long long Seq = 1;; ++Seq) {
        std::string Part = std::string(Files[0]) + "." + std::to_string(Seq);
        std::FILE *Probe = std::fopen(Part.c_str(), "rb");
        if (!Probe)
          break;
        std::fclose(Probe);
        Stream.emplace_back();
        if (!load(Part.c_str(), Stream.back()))
          return 1;
      }
      Stream.emplace_back();
      if (!load(Files[0], Stream.back()))
        return 1;
    } else {
      for (const char *F : Files) {
        Stream.emplace_back();
        if (!load(F, Stream.back()))
          return 1;
      }
    }
    // A run that never collected leaves only the at-exit file: there is
    // nothing to watch, which is a usage error, not a failed crosscheck.
    if (Stream.size() < 2) {
      std::fprintf(stderr,
                   "mgc-heapsnap: --watch needs at least 2 snapshots, "
                   "found %zu\n",
                   Stream.size());
      return 2;
    }
    bool CrosscheckOk = false;
    std::string Out = obs::watchSnapshots(Stream, TopN, CrosscheckOk);
    std::fputs(Out.c_str(), stdout);
    if (!CrosscheckOk) {
      std::fprintf(stderr, "mgc-heapsnap: watch crosscheck FAILED\n");
      return 1;
    }
    return 0;
  }

  if (Diff) {
    if (Files.size() != 2 || HavePath)
      return usage();
    obs::HeapSnapshot Old, New;
    if (!load(Files[0], Old) || !load(Files[1], New))
      return 1;
    if (Old.ToolVersion != New.ToolVersion ||
        Old.BuildFlags != New.BuildFlags)
      std::fprintf(stderr,
                   "mgc-heapsnap: warning: snapshots come from different "
                   "builds (%s / %s vs %s / %s)\n",
                   Old.ToolVersion.c_str(), Old.BuildFlags.c_str(),
                   New.ToolVersion.c_str(), New.BuildFlags.c_str());
    std::fputs(obs::diffSnapshots(Old, New, TopN).c_str(), stdout);
    return 0;
  }

  if (Files.size() != 1)
    return usage();
  obs::HeapSnapshot S;
  if (!load(Files[0], S))
    return 1;
  if (HavePath) {
    std::fputs(
        obs::renderPathTo(S, static_cast<uint32_t>(PathNode)).c_str(),
        stdout);
    return 0;
  }
  std::fputs(obs::renderSnapshot(S, TopN).c_str(), stdout);
  return 0;
}
