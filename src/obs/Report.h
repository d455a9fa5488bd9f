//===- obs/Report.h - Trace file reading and aggregation --------*- C++ -*-===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reads the JSONL trace stream written by obs::Tracer back into structured
/// form and renders the human-readable report (tools/mgc-report).  The
/// parser handles exactly the flat-object subset the tracer emits; any
/// deviation is a parse error, which the round-trip tests require to be
/// zero on every corpus program.
///
//===----------------------------------------------------------------------===//

#ifndef MGC_OBS_REPORT_H
#define MGC_OBS_REPORT_H

#include "obs/Trace.h"

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace mgc {
namespace obs {

/// One parsed JSONL record: flat string->scalar maps.
struct TraceRecord {
  std::string Type;
  std::map<std::string, int64_t> Ints;
  std::map<std::string, std::string> Strs;

  int64_t getInt(const std::string &Key, int64_t Default = 0) const {
    auto It = Ints.find(Key);
    return It == Ints.end() ? Default : It->second;
  }
  std::string getStr(const std::string &Key) const {
    auto It = Strs.find(Key);
    return It == Strs.end() ? std::string() : It->second;
  }
};

/// Parses one JSONL line (a flat JSON object of string/integer values).
/// Returns false and sets \p Err on malformed input.
bool parseTraceLine(const std::string &Line, TraceRecord &Rec,
                    std::string &Err);

/// A fully-read trace file.
struct TraceReport {
  // meta
  std::string Program;
  bool GenGc = false;
  uint64_t SiteTableBytes = 0;

  struct Site {
    uint32_t Id = 0;
    std::string Func;
    uint32_t Line = 0;
    uint32_t Col = 0;
    uint32_t Desc = 0;
    // From the trailing site_stats records (zero when never allocated).
    uint64_t Count = 0;
    uint64_t Bytes = 0;
    uint64_t Survived = 0;
    uint64_t SurvivedBytes = 0;
  };
  std::vector<Site> Sites; ///< Indexed by site id.

  std::vector<GcEvent> Events; ///< Every gc record, in order.

  /// req records: one per server-workload request boundary (ReqDone),
  /// carrying the instructions retired and GC time attributed to that
  /// request. Present only for programs that call ReqDone().
  struct Request {
    uint64_t Seq = 0;
    uint64_t Instrs = 0;
    uint64_t GcNanos = 0;
    uint64_t Collections = 0;
  };
  std::vector<Request> Requests;

  /// Trailing site_live records: objects still live at trace finish,
  /// attributed by allocation site (Id == -1 pools the NoSite objects).
  /// Present only when the tracer ran with persistent attribution.
  struct LiveSite {
    int64_t Id = -1;
    uint64_t Objects = 0;
    uint64_t Bytes = 0;
  };
  std::vector<LiveSite> LiveSites;

  /// Trailing age_hist records: live objects bucketed by the number of
  /// collections they were evacuated through.
  struct AgeBucket {
    uint32_t Age = 0;
    uint64_t Objects = 0;
    uint64_t Bytes = 0;
  };
  std::vector<AgeBucket> AgeHist;

  /// Trailing leak records: allocation sites the online growth detector
  /// flagged (monotone live-byte growth over its sliding window of full
  /// collections).  Present only when the run enabled leak detection.
  struct Leak {
    uint32_t Site = 0;
    int64_t SlopeBytes = 0;     ///< Least-squares slope numerator / window.
    uint64_t LiveBytes = 0;     ///< Live bytes at the newest sample.
    uint64_t FirstFlagged = 0;  ///< Collection ordinal of the first flag.
    uint32_t Window = 0;
  };
  std::vector<Leak> Leaks;

  /// Trailing prof_stack records: the sampling profiler's hottest stacks
  /// by mutator weight (folded root-first form, as `mgc-prof --folded`
  /// renders them).  Present only when the run enabled --profile alongside
  /// --trace; the full profile lives in the binary .prof file.
  struct HotStack {
    uint64_t Rank = 0;
    uint64_t Samples = 0;
    uint64_t Weight = 0; ///< Instructions attributed to this stack.
    std::string Stack;   ///< Semicolon-folded, root first.
  };
  std::vector<HotStack> HotStacks;

  bool HasRun = false; ///< A trailing run record was present.
  bool RunOk = false;
  std::string RunError;
  TraceRecord Run; ///< The raw run record (summary counters).

  size_t LinesRead = 0;
};

/// Reads a whole trace stream.  Returns false on the first parse error
/// (\p Err names the offending line).
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
/// Tables use the same ordering as the rendered report, so the two views
/// always agree.
std::string renderReportJson(const TraceReport &Report, size_t TopN = 10);

} // namespace obs
} // namespace mgc

#endif // MGC_OBS_REPORT_H
