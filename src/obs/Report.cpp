//===- obs/Report.cpp -----------------------------------------------------===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//

#include "obs/Report.h"

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <istream>
#include <optional>
#include <span>

using namespace mgc;
using namespace mgc::obs;

//===----------------------------------------------------------------------===//
// Parsing
//===----------------------------------------------------------------------===//

namespace {

struct Cursor {
  const std::string &S;
  size_t I = 0;

  bool done() const { return I >= S.size(); }
  char peek() const { return S[I]; }
  bool eat(char C) {
    if (done() || S[I] != C)
      return false;
    ++I;
    return true;
  }
};

bool fail(std::string &Err, std::string Msg) {
  Err = std::move(Msg);
  return false;
}

bool parseString(Cursor &C, std::string &Out, std::string &Err) {
  if (!C.eat('"'))
    return fail(Err, "expected '\"'");
  // The escapes support::appendJsonString writes, and \/.
  static const char From[] = "\"\\/ntr", To[] = "\"\\/\n\t\r";
  Out.clear();
  while (!C.done() && C.peek() != '"') {
    char Ch = C.S[C.I++];
    if (Ch != '\\') {
      Out += Ch;
      continue;
    }
    if (C.done())
      return fail(Err, "dangling escape");
    char E = C.S[C.I++];
    if (const void *P = std::memchr(From, E, sizeof(From) - 1)) {
      Out += To[static_cast<const char *>(P) - From];
      continue;
    }
    if (E != 'u')
      return fail(Err, std::string("unknown escape '\\") + E + "'");
    if (C.I + 4 > C.S.size())
      return fail(Err, "truncated \\u escape");
    unsigned V = 0;
    const char *Hex = C.S.data() + C.I;
    if (std::from_chars(Hex, Hex + 4, V, 16).ptr != Hex + 4)
      return fail(Err, "bad \\u digit");
    C.I += 4;
    // The tracer only escapes control characters; anything else is kept
    // as a replacement byte rather than attempting UTF-8 encoding.
    Out += V < 0x80 ? static_cast<char>(V) : '?';
  }
  if (!C.eat('"'))
    return fail(Err, "unterminated string");
  return true;
}

bool parseInt(Cursor &C, int64_t &Out, std::string &Err) {
  const char *First = C.S.data() + C.I;
  auto [End, Ec] = std::from_chars(First, C.S.data() + C.S.size(), Out);
  if (Ec == std::errc::invalid_argument)
    return fail(Err, "expected integer");
  if (Ec == std::errc::result_out_of_range)
    return fail(Err, "integer out of range");
  C.I += static_cast<size_t>(End - First);
  return true;
}

} // namespace

bool obs::parseTraceLine(const std::string &Line, TraceRecord &Rec,
                         std::string &Err) {
  Rec = TraceRecord();
  Cursor C{Line};
  if (!C.eat('{'))
    return fail(Err, "expected '{'");
  bool First = true;
  while (!C.eat('}')) {
    if (!First && !C.eat(','))
      return fail(Err, "expected ',' between fields");
    First = false;
    std::string Key;
    if (!parseString(C, Key, Err))
      return false;
    if (!C.eat(':'))
      return fail(Err, "expected ':' after key");
    if (!C.done() && C.peek() == '"') {
      std::string V;
      if (!parseString(C, V, Err))
        return false;
      if (Key == "type")
        Rec.Type = V;
      else
        Rec.Strs[Key] = V;
    } else {
      int64_t V;
      if (!parseInt(C, V, Err))
        return false;
      Rec.Ints[Key] = V;
    }
  }
  if (!C.done())
    return fail(Err, "trailing characters after '}'");
  if (Rec.Type.empty())
    return fail(Err, "record has no \"type\" field");
  return true;
}

//===----------------------------------------------------------------------===//
// Reading
//===----------------------------------------------------------------------===//

namespace {

/// Files each decoded record into the report, checking its site ids
/// against the site records read so far.
struct Filer {
  TraceReport &R;
  std::string &Err;

  template <typename T> bool add(std::vector<T> &To, T &V) {
    To.push_back(std::move(V));
    return true;
  }

  bool operator()(MetaRecord &M) {
    R.Meta = std::move(M);
    return true;
  }
  bool operator()(SiteRecord &S) {
    // The table grows per site record, never from meta's claimed count.
    if (S.Id >= R.Meta.Sites)
      return fail(Err, "site id out of range");
    if (S.Id != R.Sites.size())
      return fail(Err, "site id out of order");
    R.Sites.push_back({std::move(S), {}});
    return true;
  }
  bool operator()(GcEvent &E) { return add(R.Events, E); }
  bool operator()(RequestRecord &Q) { return add(R.Requests, Q); }
  bool operator()(SiteStatsRecord &S) {
    if (S.Id >= R.Sites.size())
      return fail(Err, "site_stats id out of range");
    R.Sites[S.Id].Stats = S.Counters;
    return true;
  }
  bool operator()(SiteLiveRecord &L) {
    if (L.Id >= 0 && static_cast<uint64_t>(L.Id) >= R.Sites.size())
      return fail(Err, "site_live id out of range");
    return add(R.LiveSites, L);
  }
  bool operator()(AgeRecord &A) { return add(R.AgeHist, A); }
  bool operator()(LeakRecord &L) {
    if (L.Flag.Site >= R.Sites.size())
      return fail(Err, "leak site out of range");
    return add(R.Leaks, L);
  }
  bool operator()(RunRecord &Run) {
    R.HasRun = true;
    R.Run = std::move(Run);
    return true;
  }
  bool operator()(HotStack &H) { return add(R.HotStacks, H); }
};

} // namespace

bool obs::readTrace(std::istream &In, TraceReport &R, std::string &Err) {
  std::string Line;
  size_t LineNo = 0, MetaLine = 0;
  Filer File{R, Err};
  while (std::getline(In, Line)) {
    ++LineNo;
    if (Line.empty())
      continue;
    TraceRecord Rec;
    bool Ok = parseTraceLine(Line, Rec, Err);
    if (Ok) {
      ++R.LinesRead;
      bool Known = false;
      forEachRecordType([&]<typename T>() {
        if (Known || Rec.Type != T::Type)
          return;
        Known = true;
        T V;
        Ok = decodeRecord(Rec, V, Err) && File(V);
      });
      if (!Known)
        Ok = fail(Err, "unknown record type \"" + Rec.Type + "\"");
      if (Rec.Type == MetaRecord::Type)
        MetaLine = LineNo;
    }
    if (!Ok) {
      Err = "line " + std::to_string(LineNo) + ": " + Err;
      return false;
    }
  }
  if (R.Sites.size() != R.Meta.Sites) {
    Err = "line " + std::to_string(MetaLine) + ": meta record claims " +
          std::to_string(R.Meta.Sites) + " sites, the trace lists " +
          std::to_string(R.Sites.size());
    return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// The report model
//===----------------------------------------------------------------------===//

namespace {

/// The rows of a pause table: the total, then each phase in pipeline
/// order.
struct Phase {
  const char *Label; ///< Text view.
  const char *Key;   ///< JSON view.
  uint64_t PhaseNanos::*Nanos; ///< Null for the total.
};

const Phase Phases[] = {
    {"total", "total", nullptr},
    {"rendezvous", "rendezvous", &PhaseNanos::Rendezvous},
    {"stack-trace", "stack_trace", &PhaseNanos::StackTrace},
    {"underive", "underive", &PhaseNanos::Underive},
    {"copy", "copy", &PhaseNanos::Copy},
    {"remset", "remset", &PhaseNanos::RemsetRebuild}, // Minor only.
    {"rederive", "rederive", &PhaseNanos::Rederive},
};

struct PhaseRow {
  const Phase *Of;
  support::Percentiles P; ///< Over the kind's collections.
};

/// The pauses of one collection kind; the total row counts them.
struct PauseTable {
  bool Minor = false;
  std::vector<PhaseRow> Rows;
};

using TopSites = std::vector<const TraceReport::Site *>;

/// mgc-report's sections, built once per render; each view formats the
/// ones it shows.
struct ReportModel {
  std::vector<PauseTable> Pauses; ///< Minor, then full; kinds that ran.
  /// The events' copy, promotion, frame and decode-cache counters summed;
  /// when any collection ran.
  std::optional<GcEvent> Vol;
  /// Instructions per request, and the collection work attributed to
  /// requests; when any request completed.
  std::optional<support::Percentiles> ReqInstrs;
  uint64_t ReqGcNanos = 0, ReqCollections = 0;
  std::span<const HotStack> Hot;  ///< The first TopN.
  /// The top sites by bytes allocated and by bytes surviving their first
  /// collection: key desc, then id; at most TopN and none with a zero
  /// key.  None when no site allocated.
  std::optional<TopSites> ByBytes, BySurvived;
  std::vector<const SiteLiveRecord *> Live; ///< Bytes desc, id; first TopN.
  std::span<const AgeRecord> Ages;
};

TopSites topSites(TopSites Active, size_t TopN,
                  uint64_t (*Key)(const TraceReport::Site &)) {
  // Tie-break equal keys by site id so the table order (and with it the
  // rendered report) is identical across dispatch tiers, not at the
  // mercy of std::sort's instability.
  std::stable_sort(
      Active.begin(), Active.end(),
      [&](const TraceReport::Site *A, const TraceReport::Site *B) {
        if (Key(*A) != Key(*B))
          return Key(*A) > Key(*B);
        return A->Info.Id < B->Info.Id;
      });
  size_t N = 0;
  while (N != std::min(TopN, Active.size()) && Key(*Active[N]) != 0)
    ++N;
  Active.resize(N);
  return Active;
}

ReportModel buildModel(const TraceReport &R, size_t TopN) {
  ReportModel M;
  for (bool Minor : {true, false}) {
    PauseTable T{Minor, {}};
    for (const Phase &Ph : Phases) {
      if (Ph.Nanos == &PhaseNanos::RemsetRebuild && !Minor)
        continue;
      std::vector<uint64_t> V;
      for (const GcEvent &E : R.Events)
        if (E.Minor == Minor)
          V.push_back(Ph.Nanos ? E.Phases.*Ph.Nanos : E.TotalNanos);
      T.Rows.push_back({&Ph, support::percentiles(std::move(V))});
    }
    if (T.Rows[0].P.Count)
      M.Pauses.push_back(std::move(T));
  }

  if (!R.Events.empty()) {
    GcEvent &V = M.Vol.emplace();
    for (const GcEvent &E : R.Events) {
      V.FramesTraced += E.FramesTraced;
      V.CacheHits += E.CacheHits;
      V.CacheMisses += E.CacheMisses;
      V.BytesCopied += E.BytesCopied;
      V.BytesPromoted += E.BytesPromoted;
      V.ObjectsCopied += E.ObjectsCopied;
    }
  }

  if (!R.Requests.empty()) {
    std::vector<uint64_t> Instrs;
    for (const RequestRecord &Q : R.Requests) {
      Instrs.push_back(Q.Instrs);
      M.ReqGcNanos += Q.GcNanos;
      M.ReqCollections += Q.Collections;
    }
    M.ReqInstrs = support::percentiles(std::move(Instrs));
  }

  M.Hot = std::span(R.HotStacks).first(std::min(TopN, R.HotStacks.size()));

  TopSites Active;
  for (const TraceReport::Site &S : R.Sites)
    if (S.Stats.Count)
      Active.push_back(&S);
  if (!Active.empty()) {
    M.ByBytes = topSites(Active, TopN, [](const TraceReport::Site &S) {
      return S.Stats.Bytes;
    });
    M.BySurvived = topSites(Active, TopN, [](const TraceReport::Site &S) {
      return S.Stats.SurvivedBytes;
    });
  }

  for (const SiteLiveRecord &L : R.LiveSites)
    M.Live.push_back(&L);
  std::sort(M.Live.begin(), M.Live.end(),
            [](const SiteLiveRecord *A, const SiteLiveRecord *B) {
              if (A->Live.Bytes != B->Live.Bytes)
                return A->Live.Bytes > B->Live.Bytes;
              return A->Id < B->Id;
            });
  M.Live.resize(std::min(TopN, M.Live.size()));

  M.Ages = R.AgeHist;
  return M;
}

std::string siteLabel(const SiteRecord &S) {
  std::string L = S.Func + ':' + std::to_string(S.Line);
  if (S.Col)
    L += ':' + std::to_string(S.Col);
  return L;
}

std::string liveLabel(const TraceReport &R, const SiteLiveRecord &L) {
  return L.Id < 0 ? "(no site)"
                  : siteLabel(R.Sites[static_cast<size_t>(L.Id)].Info);
}

/// The site record a leak names; null past the table.
const SiteRecord *leakSite(const TraceReport &R, const LeakRecord &L) {
  return L.Flag.Site < R.Sites.size() ? &R.Sites[L.Flag.Site].Info : nullptr;
}

//===----------------------------------------------------------------------===//
// Text views
//===----------------------------------------------------------------------===//

/// Appends printf-formatted text to \p Out; text past 255 bytes is cut.
[[gnu::format(printf, 2, 3)]] void appendf(std::string &Out, const char *Fmt,
                                           ...) {
  char Buf[256];
  va_list Args;
  va_start(Args, Fmt);
  std::vsnprintf(Buf, sizeof(Buf), Fmt, Args);
  va_end(Args);
  Out += Buf;
}

std::string fmtNanos(uint64_t Ns) {
  std::string S;
  if (Ns >= 1'000'000)
    appendf(S, "%.2f ms", static_cast<double>(Ns) / 1e6);
  else if (Ns >= 1'000)
    appendf(S, "%.2f us", static_cast<double>(Ns) / 1e3);
  else
    appendf(S, "%" PRIu64 " ns", Ns);
  return S;
}

std::string fmtBytes(uint64_t B) {
  std::string S;
  if (B >= 1u << 20)
    appendf(S, "%.2f MiB", static_cast<double>(B) / (1u << 20));
  else if (B >= 1u << 10)
    appendf(S, "%.2f KiB", static_cast<double>(B) / (1u << 10));
  else
    appendf(S, "%" PRIu64 " B", B);
  return S;
}

} // namespace

std::string obs::renderReport(const TraceReport &R, size_t TopN) {
  ReportModel M = buildModel(R, TopN);
  std::string Out;

  Out += "=== mgc trace report: " + R.Meta.Program + " ===\n";
  appendf(Out,
          "mode: %s   collections: %zu   sites: %zu   site table: %" PRIu64
          " bytes\n",
          R.Meta.GenGc ? "generational" : "two-space", R.Events.size(),
          R.Sites.size(), R.Meta.SiteTableBytes);
  if (R.HasRun && !R.Run.Ok)
    Out += "RUN FAILED: " + R.Run.Error.value_or("") + " (trace is partial)\n";
  // Ring overflow means the pause/volume sections below silently miss the
  // oldest collections — say so up front, not buried in the run record.
  if (uint64_t Dropped = R.Run.Summary.EventsDropped)
    appendf(Out,
            "WARNING: %" PRIu64 " gc events dropped from the ring buffer; "
            "pause/volume sections cover only the last %zu collections\n",
            Dropped, R.Events.size());
  // A run that never collected has no pause/volume/survival material: say
  // so instead of rendering a report of empty sections.
  if (R.Events.empty())
    Out += "no collections recorded\n";

  for (const PauseTable &T : M.Pauses) {
    appendf(Out, "\n-- %s pauses (%" PRIu64 " collections) --\n",
            T.Minor ? "minor" : "full", T.Rows[0].P.Count);
    for (const PhaseRow &Row : T.Rows)
      appendf(Out, "  %-12s p50 %12s   p95 %12s   max %12s   total %12s\n",
              Row.Of->Label, fmtNanos(Row.P.P50).c_str(),
              fmtNanos(Row.P.P95).c_str(), fmtNanos(Row.P.Max).c_str(),
              fmtNanos(Row.P.Sum).c_str());
  }

  if (M.Vol) {
    const GcEvent &V = *M.Vol;
    Out += "\n-- volume --\n";
    appendf(Out,
            "  copied %" PRIu64 " objects / %s; promoted %s; %" PRIu64
            " frames traced\n",
            V.ObjectsCopied, fmtBytes(V.BytesCopied).c_str(),
            fmtBytes(V.BytesPromoted).c_str(), V.FramesTraced);
    if (uint64_t Decodes = V.CacheHits + V.CacheMisses)
      appendf(Out,
              "  decode cache: %" PRIu64 " hits / %" PRIu64
              " misses (%.1f%% hit rate)\n",
              V.CacheHits, V.CacheMisses,
              100.0 * static_cast<double>(V.CacheHits) /
                  static_cast<double>(Decodes));
  }

  // Server-workload requests (programs that call ReqDone).
  if (M.ReqInstrs) {
    Out += "\n-- requests --\n";
    appendf(Out,
            "  %zu requests; instrs/req p50 %" PRIu64 "   p95 %" PRIu64
            "   max %" PRIu64 "\n",
            R.Requests.size(), M.ReqInstrs->P50, M.ReqInstrs->P95,
            M.ReqInstrs->Max);
    appendf(Out,
            "  gc attributed to requests: %s across %" PRIu64
            " collections\n",
            fmtNanos(M.ReqGcNanos).c_str(), M.ReqCollections);
  }

  if (!R.HotStacks.empty()) {
    Out += "\n-- hot stacks (sampling profiler, by mutator weight) --\n";
    appendf(Out, "  %4s %12s %10s  %s\n", "rank", "weight", "samples",
            "stack");
    for (const HotStack &H : M.Hot) {
      appendf(Out, "  %4" PRIu64 " %12" PRIu64 " %10" PRIu64 "  ", H.Rank,
              H.Weight, H.Samples);
      Out += H.Stack + '\n';
    }
  }

  auto Sites = [&](const char *Title, const std::optional<TopSites> &T) {
    if (!T)
      return;
    appendf(Out, "\n-- %s --\n", Title);
    appendf(Out, "  %-28s %12s %12s %12s %9s\n", "site", "allocs", "bytes",
            "survived", "surv%");
    for (const TraceReport::Site *S : *T) {
      const SiteCounters &C = S->Stats;
      appendf(Out, "  %-28s %12" PRIu64 " %12s %12" PRIu64 " %8.1f%%\n",
              siteLabel(S->Info).c_str(), C.Count, fmtBytes(C.Bytes).c_str(),
              C.Survived,
              C.Count ? 100.0 * static_cast<double>(C.Survived) /
                            static_cast<double>(C.Count)
                      : 0.0);
    }
  };
  Sites("top sites by bytes allocated", M.ByBytes);
  Sites("top sites by bytes surviving first collection", M.BySurvived);

  if (!R.Leaks.empty()) {
    Out += '\n';
    Out += renderLeaks(R, TopN);
  }

  if (!R.LiveSites.empty()) {
    Out += "\n-- live at finish by site --\n";
    appendf(Out, "  %-28s %12s %12s\n", "site", "objects", "bytes");
    for (const SiteLiveRecord *L : M.Live)
      appendf(Out, "  %-28s %12" PRIu64 " %12s\n", liveLabel(R, *L).c_str(),
              L->Live.Objects, fmtBytes(L->Live.Bytes).c_str());
  }

  // How many collections did the live objects survive?
  if (!M.Ages.empty()) {
    uint64_t MaxObjects = 1;
    for (const AgeRecord &A : M.Ages)
      MaxObjects = std::max(MaxObjects, A.Live.Objects);
    Out += "\n-- live object ages (collections survived) --\n";
    for (const AgeRecord &A : M.Ages) {
      size_t Bar = static_cast<size_t>(30.0 *
                                       static_cast<double>(A.Live.Objects) /
                                       static_cast<double>(MaxObjects));
      appendf(Out, "  age %3u %10" PRIu64 " obj %12s  %s\n", A.Age,
              A.Live.Objects, fmtBytes(A.Live.Bytes).c_str(),
              std::string(Bar, '#').c_str());
    }
  }
  return Out;
}

std::string obs::renderLeaks(const TraceReport &R, size_t TopN) {
  if (R.Leaks.empty())
    return "no suspected leak sites\n";
  // Records arrive pre-sorted by (slope desc, site asc) from the tracer.
  std::string Out = "-- suspected leak sites --\n";
  appendf(Out, "  %-28s %14s %12s %14s\n", "site", "slope B/gc", "live",
          "first flagged");
  size_t N = std::min(TopN, R.Leaks.size());
  for (const LeakRecord &L : std::span(R.Leaks).first(N)) {
    const SiteRecord *S = leakSite(R, L);
    appendf(Out, "  %-28s %+14" PRId64 " %12s %11" PRIu64 "/gc\n",
            (S ? siteLabel(*S) : "(site " + std::to_string(L.Flag.Site) + ")")
                .c_str(),
            L.Flag.SlopeBytes, fmtBytes(L.Flag.LiveBytes).c_str(),
            L.Flag.FirstFlagged);
  }
  if (R.Leaks.size() > N)
    appendf(Out, "  ... %zu more\n", R.Leaks.size() - N);
  return Out;
}

//===----------------------------------------------------------------------===//
// JSON view
//===----------------------------------------------------------------------===//

std::string obs::renderReportJson(const TraceReport &R, size_t TopN) {
  ReportModel M = buildModel(R, TopN);
  std::string Out;
  support::JsonWriter J(Out);
  J.beginObject()
      .str("program", R.Meta.Program)
      .str("mode", R.Meta.GenGc ? "generational" : "two-space")
      .uint("collections", R.Events.size())
      .uint("sites", R.Sites.size())
      .uint("site_table_bytes", R.Meta.SiteTableBytes);
  if (R.HasRun) {
    J.uint("run_ok", R.Run.Ok ? 1 : 0);
    if (!R.Run.Ok)
      J.str("run_error", R.Run.Error.value_or(""));
    J.uint("events_dropped_from_ring", R.Run.Summary.EventsDropped);
  }

  for (const PauseTable &T : M.Pauses) {
    J.beginObject(T.Minor ? "minor_pauses" : "full_pauses")
        .uint("collections", T.Rows[0].P.Count);
    for (const PhaseRow &Row : T.Rows)
      J.beginObject(Row.Of->Key)
          .uint("p50_ns", Row.P.P50)
          .uint("p95_ns", Row.P.P95)
          .uint("max_ns", Row.P.Max)
          .uint("total_ns", Row.P.Sum)
          .endObject();
    J.endObject();
  }

  if (M.Vol)
    J.beginObject("volume")
        .uint("objects_copied", M.Vol->ObjectsCopied)
        .uint("bytes_copied", M.Vol->BytesCopied)
        .uint("bytes_promoted", M.Vol->BytesPromoted)
        .uint("frames_traced", M.Vol->FramesTraced)
        .uint("cache_hits", M.Vol->CacheHits)
        .uint("cache_misses", M.Vol->CacheMisses)
        .endObject();

  if (M.ReqInstrs)
    J.beginObject("requests")
        .uint("count", R.Requests.size())
        .uint("instrs_p50", M.ReqInstrs->P50)
        .uint("instrs_p95", M.ReqInstrs->P95)
        .uint("instrs_max", M.ReqInstrs->Max)
        .uint("gc_ns", M.ReqGcNanos)
        .uint("gc_collections", M.ReqCollections)
        .endObject();

  // The hot-stack and age objects carry their trace records' keys.
  if (!R.HotStacks.empty()) {
    J.beginArray("hot_stacks");
    for (const HotStack &H : M.Hot) {
      J.beginObject();
      writeKeys(J, H);
      J.endObject();
    }
    J.endArray();
  }

  auto Sites = [&](const char *Key, const std::optional<TopSites> &T) {
    if (!T)
      return;
    J.beginArray(Key);
    for (const TraceReport::Site *S : *T)
      J.beginObject()
          .uint("id", S->Info.Id)
          .str("site", siteLabel(S->Info))
          .uint("allocs", S->Stats.Count)
          .uint("bytes", S->Stats.Bytes)
          .uint("survived", S->Stats.Survived)
          .uint("survived_bytes", S->Stats.SurvivedBytes)
          .endObject();
    J.endArray();
  };
  Sites("top_sites_by_bytes", M.ByBytes);
  Sites("top_sites_by_survived_bytes", M.BySurvived);

  if (!R.Leaks.empty()) {
    J.beginArray("leaks");
    for (const LeakRecord &L : R.Leaks) {
      J.beginObject().uint("site", L.Flag.Site);
      if (const SiteRecord *S = leakSite(R, L))
        J.str("label", siteLabel(*S));
      J.sint("slope_bytes", L.Flag.SlopeBytes)
          .uint("live_bytes", L.Flag.LiveBytes)
          .uint("first_flagged", L.Flag.FirstFlagged)
          .uint("window", L.Window)
          .endObject();
    }
    J.endArray();
  }

  if (!R.LiveSites.empty()) {
    J.beginArray("live_by_site");
    for (const SiteLiveRecord *L : M.Live)
      J.beginObject()
          .sint("id", L->Id)
          .str("site", liveLabel(R, *L))
          .uint("objects", L->Live.Objects)
          .uint("bytes", L->Live.Bytes)
          .endObject();
    J.endArray();
  }

  if (!M.Ages.empty()) {
    J.beginArray("age_hist");
    for (const AgeRecord &A : M.Ages) {
      J.beginObject();
      writeKeys(J, A);
      J.endObject();
    }
    J.endArray();
  }

  J.endObject();
  Out += '\n';
  return Out;
}
