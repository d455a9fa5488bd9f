//===- obs/Report.h - Trace reading and mgc-report's views ------*- C++ -*-===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reads a JSONL trace back into the records the tracer wrote (the record
/// types and their keys are obs/TraceFormat.h's) and renders mgc-report's
/// three views of it: the text report, its JSON mirror and the leak table.
/// Every line decodes through the format's key lists; any deviation is a
/// parse error, which the round-trip tests require to be zero on every
/// corpus program.  Each view builds one model of the report's sections
/// (pauses per kind and phase, volume, requests, hot stacks, the two site
/// tables, live-at-finish, ages) and only formats it, so the views agree.
///
//===----------------------------------------------------------------------===//

#ifndef MGC_OBS_REPORT_H
#define MGC_OBS_REPORT_H

#include "obs/TraceFormat.h"

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace mgc {
namespace obs {

/// A fully-read trace file: the records of each type, in stream order.
struct TraceReport {
  MetaRecord Meta;

  /// A site record and the counters of its site_stats record (zero when
  /// the site never allocated).
  struct Site {
    SiteRecord Info;
    SiteCounters Stats;
  };
  std::vector<Site> Sites; ///< Indexed by site id.

  std::vector<GcEvent> Events;
  std::vector<RequestRecord> Requests;
  std::vector<SiteLiveRecord> LiveSites;
  std::vector<AgeRecord> AgeHist;
  std::vector<LeakRecord> Leaks;
  std::vector<HotStack> HotStacks;

  bool HasRun = false; ///< A run record was present.
  RunRecord Run;

  size_t LinesRead = 0;
};

/// Reads a whole trace stream.  Returns false on the first malformed line
/// (\p Err names it), and when the meta record's site count differs from
/// the number of site records.
bool readTrace(std::istream &In, TraceReport &Report, std::string &Err);

/// Renders the human-readable report: per-phase pause breakdown with
/// percentiles, top sites by bytes and by survival, decode-cache
/// efficiency, and (when present) the suspected-leak table.  \p TopN
/// bounds the site tables.
std::string renderReport(const TraceReport &Report, size_t TopN = 10);

/// Renders only the suspected-leak table (the same section renderReport
/// embeds), or a "no suspected leak sites" line when the trace carries no
/// leak records.  \p TopN bounds the table.
std::string renderLeaks(const TraceReport &Report, size_t TopN = 10);

/// Machine-readable mirror of renderReport: one JSON object covering every
/// rendered section (meta, pause percentiles per kind and phase, volume,
/// requests, site tables, live-at-finish, age histogram, leaks).
std::string renderReportJson(const TraceReport &Report, size_t TopN = 10);

} // namespace obs
} // namespace mgc

#endif // MGC_OBS_REPORT_H
