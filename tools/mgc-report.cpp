//===- tools/mgc-report.cpp - Render a JSONL gc trace ---------------------===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Aggregates a trace produced by `mgc --trace out.jsonl` into
/// human-readable tables: per-phase pause percentiles, copy/promotion
/// volume, decode-cache efficiency, and the top allocation sites by bytes
/// and by first-collection survival.
///
///   mgc-report [--top N] [--json] [--leaks] trace.jsonl
///
///   --json    machine-readable mirror of every rendered section
///   --leaks   print only the suspected-leak table (from the trace's leak
///             records — no snapshot file needed); with --json the full
///             JSON is printed, whose "leaks" array carries the same data
///
/// Exits non-zero on any parse error: the trace format round-trips
/// losslessly or not at all.
///
//===----------------------------------------------------------------------===//

#include "obs/Report.h"
#include "support/NumericArg.h"

#include <cstdio>
#include <cstring>
#include <fstream>

using namespace mgc;

int main(int argc, char **argv) {
  size_t TopN = 10;
  bool Json = false, LeaksOnly = false;
  const char *Path = nullptr;
  for (int A = 1; A < argc; ++A) {
    if (!std::strcmp(argv[A], "--top")) {
      if (++A == argc) {
        std::fprintf(stderr, "mgc-report: --top needs a value\n");
        return 2;
      }
      if (!support::parseNumericArg("mgc-report", "--top", argv[A], TopN))
        return 2;
    } else if (!std::strcmp(argv[A], "--json")) {
      Json = true;
    } else if (!std::strcmp(argv[A], "--leaks")) {
      LeaksOnly = true;
    } else if (argv[A][0] == '-') {
      std::fprintf(stderr, "usage: %s [--top N] [--json] [--leaks] "
                           "trace.jsonl\n",
                   argv[0]);
      return 2;
    } else {
      Path = argv[A];
    }
  }
  if (!Path) {
    std::fprintf(stderr, "usage: %s [--top N] [--json] [--leaks] "
                         "trace.jsonl\n",
                 argv[0]);
    return 2;
  }

  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "mgc-report: cannot open %s\n", Path);
    return 1;
  }

  obs::TraceReport Report;
  std::string Err;
  if (!obs::readTrace(In, Report, Err)) {
    std::fprintf(stderr, "mgc-report: %s: %s\n", Path, Err.c_str());
    return 1;
  }
  if (Report.LinesRead == 0) {
    std::fprintf(stderr, "mgc-report: %s: empty trace\n", Path);
    return 1;
  }

  if (Json)
    std::fputs(obs::renderReportJson(Report, TopN).c_str(), stdout);
  else if (LeaksOnly)
    std::fputs(obs::renderLeaks(Report, TopN).c_str(), stdout);
  else
    std::fputs(obs::renderReport(Report, TopN).c_str(), stdout);
  return 0;
}
