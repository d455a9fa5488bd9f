//===- obs/TraceFormat.h - The JSONL trace records --------------*- C++ -*-===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one definition of the JSONL trace (`mgc --trace`): one flat JSON
/// object per line, {"type":T,...}, of the ten record types in
/// TraceRecordTypes.  Each is a struct the tracer fills and readTrace
/// returns, with its Type name and one `keys(IO &F, Rec &V)` function that
/// lists its keys once, in stream order; GcEvent, SiteCounters, LiveAgg
/// and Tracer::LeakFlag (obs/Trace.h) carry theirs the same way.  The
/// tracer writes every record through that list (writeRecord), readTrace
/// reads every line back through it (decodeRecord), and the round-trip
/// test walks it, so a new field is one line.
///
/// Per member a list calls one of these on its IO:
///   F.num(Key, X)            an integer, or a bool as 0/1
///   F.str(Key, X)            a string; an empty std::optional is left out
///   F.name(Key, X, Yes, No)  a bool as the string Yes or No
///   F.site(Key, X)           a site id, NoSite as -1
///   F.group(X)               a std::optional struct; left out when empty
/// and listKeys(F, X) (support/ByteCodec.h, whose binary records share the
/// protocol) for a member struct's own list.  The reader leaves
/// a member whose key is missing at its default, and rejects a number
/// that does not fit its member.
///
//===----------------------------------------------------------------------===//

#ifndef MGC_OBS_TRACEFORMAT_H
#define MGC_OBS_TRACEFORMAT_H

#include "obs/Trace.h"
#include "support/ByteCodec.h"
#include "support/Json.h"

#include <cstdint>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>

namespace mgc {
namespace obs {

using mgc::listKeys;

//===----------------------------------------------------------------------===//
// Record types
//===----------------------------------------------------------------------===//

/// First line: the run's provenance and the site-table size.
struct MetaRecord {
  static constexpr const char *Type = "meta";
  std::string Program, ToolVersion, BuildFlags;
  uint64_t Seed = 0;
  std::optional<std::string> Dispatch; ///< Left out when unreported.
  bool GenGc = false;
  uint64_t Sites = 0; ///< The number of site records that follow.
  uint64_t SiteTableBytes = 0;
  template <typename IO, typename T> static void keys(IO &F, T &V) {
    F.str("program", V.Program);
    F.str("tool_version", V.ToolVersion);
    F.str("build_flags", V.BuildFlags);
    F.num("seed", V.Seed);
    F.str("dispatch", V.Dispatch);
    F.num("gen_gc", V.GenGc);
    F.num("sites", V.Sites);
    F.num("site_table_bytes", V.SiteTableBytes);
  }
};

/// One allocation site, after meta; ids run 0, 1, ... in order.
struct SiteRecord {
  static constexpr const char *Type = "site";
  uint64_t Id = 0;
  std::string Func;
  uint32_t Line = 0, Col = 0, Desc = 0;
  template <typename IO, typename T> static void keys(IO &F, T &V) {
    F.num("id", V.Id);
    F.str("func", V.Func);
    F.num("line", V.Line);
    F.num("col", V.Col);
    F.num("desc", V.Desc);
  }
};

/// One completed request (a ReqDone marker): its service demand in
/// instructions and the collection work attributed to it.
struct RequestRecord {
  static constexpr const char *Type = "req";
  uint64_t Seq = 0, Instrs = 0, GcNanos = 0, Collections = 0;
  template <typename IO, typename T> static void keys(IO &F, T &V) {
    F.num("seq", V.Seq);
    F.num("instrs", V.Instrs);
    F.num("gc_ns", V.GcNanos);
    F.num("collections", V.Collections);
  }
};

/// A site's counters at finish (sites that allocated).
struct SiteStatsRecord {
  static constexpr const char *Type = "site_stats";
  uint64_t Id = 0;
  SiteCounters Counters;
  template <typename IO, typename T> static void keys(IO &F, T &V) {
    F.num("id", V.Id);
    listKeys(F, V.Counters);
  }
};

/// Objects live at finish, per site; Id -1 pools those with no site.
struct SiteLiveRecord {
  static constexpr const char *Type = "site_live";
  int64_t Id = -1;
  LiveAgg Live;
  template <typename IO, typename T> static void keys(IO &F, T &V) {
    F.num("id", V.Id);
    listKeys(F, V.Live);
  }
};

/// Objects live at finish, per evacuation-count age.
struct AgeRecord {
  static constexpr const char *Type = "age_hist";
  uint32_t Age = 0;
  LiveAgg Live;
  template <typename IO, typename T> static void keys(IO &F, T &V) {
    F.num("age", V.Age);
    listKeys(F, V.Live);
  }
};

/// A site the leak detector flags at finish, in (slope desc, site asc)
/// order.
struct LeakRecord {
  static constexpr const char *Type = "leak";
  Tracer::LeakFlag Flag;
  uint32_t Window = 0; ///< The detector's window, in full collections.
  template <typename IO, typename T> static void keys(IO &F, T &V) {
    listKeys(F, V.Flag);
    F.num("window", V.Window);
  }
};

/// The tracer's aggregates: the run record's counters, and --stats-json's.
struct RunSummary {
  uint64_t Events = 0, EventsRetained = 0, EventsDropped = 0;
  uint64_t UnattributedAllocs = 0, UnattributedBytes = 0;
  /// Pauses of every, minor and full collection (P99 is not written).
  Tracer::Percentiles All, Minor, Full;
  struct Requests {
    uint64_t Count = 0, Dropped = 0, GcNanos = 0, Collections = 0;
    Tracer::Percentiles Instrs; ///< Service demand (P95 is not written).
    template <typename IO, typename T> static void keys(IO &F, T &V) {
      F.num("requests", V.Count);
      F.num("requests_dropped", V.Dropped);
      F.num("req_gc_ns", V.GcNanos);
      F.num("req_collections", V.Collections);
      F.num("req_instr_p50", V.Instrs.P50);
      F.num("req_instr_p99", V.Instrs.P99);
      F.num("req_instr_max", V.Instrs.Max);
    }
  };
  std::optional<Requests> Reqs; ///< When the run completed a request.
  struct Leak {
    uint64_t Scans = 0, Samples = 0, SitesFlagged = 0;
    template <typename IO, typename T> static void keys(IO &F, T &V) {
      F.num("leak_scans", V.Scans);
      F.num("leak_samples", V.Samples);
      F.num("leak_sites_flagged", V.SitesFlagged);
    }
  };
  std::optional<Leak> Leaks; ///< When the leak detector ran.
  template <typename IO, typename T> static void keys(IO &F, T &V) {
    F.num("events", V.Events);
    F.num("events_retained", V.EventsRetained);
    F.num("events_dropped_from_ring", V.EventsDropped);
    F.num("unattributed_allocs", V.UnattributedAllocs);
    F.num("unattributed_bytes", V.UnattributedBytes);
    F.num("pause_p50_ns", V.All.P50);
    F.num("pause_p95_ns", V.All.P95);
    F.num("pause_max_ns", V.All.Max);
    F.num("minor_pause_p50_ns", V.Minor.P50);
    F.num("minor_pause_p95_ns", V.Minor.P95);
    F.num("minor_pause_max_ns", V.Minor.Max);
    F.num("full_pause_p50_ns", V.Full.P50);
    F.num("full_pause_p95_ns", V.Full.P95);
    F.num("full_pause_max_ns", V.Full.Max);
    F.group(V.Reqs);
    F.group(V.Leaks);
  }
};

/// The run's outcome and summary, after the other finish-time records.
struct RunRecord {
  static constexpr const char *Type = "run";
  bool Ok = false;
  std::optional<std::string> Error; ///< Written when the run failed.
  RunSummary Summary;
  template <typename IO, typename T> static void keys(IO &F, T &V) {
    F.name("exit", V.Ok, "ok", "error");
    F.str("error", V.Error);
    listKeys(F, V.Summary);
  }
};

/// One of the profile's ten heaviest mutator stacks, by weight then stack
/// id, after the run record (runs with --profile).
struct HotStack {
  static constexpr const char *Type = "prof_stack";
  uint64_t Rank = 0, Samples = 0;
  uint64_t Weight = 0; ///< Instructions attributed to this stack.
  std::string Stack;   ///< Semicolon-folded, root first.
  template <typename IO, typename T> static void keys(IO &F, T &V) {
    F.num("rank", V.Rank);
    F.num("samples", V.Samples);
    F.num("weight", V.Weight);
    F.str("stack", V.Stack);
  }
};

/// Every record type, in the order a trace lists them.
using TraceRecordTypes =
    std::tuple<MetaRecord, SiteRecord, GcEvent, RequestRecord,
               SiteStatsRecord, SiteLiveRecord, AgeRecord, LeakRecord,
               RunRecord, HotStack>;

/// Calls \p F.template operator()<T>() for each record type T.
template <typename Fn> void forEachRecordType(Fn &&F) {
  [&]<typename... Ts>(std::tuple<Ts...> *) {
    (F.template operator()<Ts>(), ...);
  }(static_cast<TraceRecordTypes *>(nullptr));
}

//===----------------------------------------------------------------------===//
// Writing
//===----------------------------------------------------------------------===//

/// Writes each key as a member of the object \c J has open.
struct KeyWriter {
  support::JsonWriter &J;

  template <typename T> void num(const char *Key, T V) {
    if constexpr (std::is_signed_v<T>)
      J.sint(Key, V);
    else
      J.uint(Key, V);
  }
  void str(const char *Key, const std::string &V) { J.str(Key, V); }
  void str(const char *Key, const std::optional<std::string> &V) {
    if (V)
      J.str(Key, *V);
  }
  void name(const char *Key, bool V, const char *Yes, const char *No) {
    J.str(Key, V ? Yes : No);
  }
  void site(const char *Key, uint32_t V) {
    J.sint(Key, V == NoSite ? -1 : int64_t(V));
  }
  template <typename T> void group(const std::optional<T> &V) {
    if (V)
      listKeys(*this, *V);
  }
};

/// Writes \p V's keys as members of the object \p J has open.
template <typename T> void writeKeys(support::JsonWriter &J, const T &V) {
  KeyWriter W{J};
  listKeys(W, V);
}

/// Streams \p V as one trace line.
template <typename T> void writeRecord(std::ostream &OS, const T &V) {
  std::string L;
  support::JsonWriter J(L);
  J.beginObject().str("type", T::Type);
  writeKeys(J, V);
  J.endObject();
  L += '\n';
  OS << L;
}

//===----------------------------------------------------------------------===//
// Reading
//===----------------------------------------------------------------------===//

/// One parsed JSONL line: flat string->scalar maps.
struct TraceRecord {
  std::string Type;
  std::map<std::string, int64_t> Ints;
  std::map<std::string, std::string> Strs;
};

/// Parses one JSONL line (a flat JSON object of string/integer values).
/// Returns false and sets \p Err on malformed input.
bool parseTraceLine(const std::string &Line, TraceRecord &Rec,
                    std::string &Err);

/// Reads each key back out of a parsed line.
class KeyReader {
public:
  explicit KeyReader(const TraceRecord &Rec) : Rec(Rec) {}

  template <typename T> void num(const char *Key, T &V) {
    const int64_t *X = find(Rec.Ints, Key);
    if (!X)
      return;
    if constexpr (std::is_same_v<T, bool>)
      V = *X != 0;
    else if (std::in_range<T>(*X))
      V = static_cast<T>(*X);
    else if (Error.empty())
      Error = std::string("\"") + Key + "\" out of range";
  }
  template <typename T> void str(const char *Key, T &V) {
    if (const std::string *S = find(Rec.Strs, Key))
      V = *S;
  }
  void name(const char *Key, bool &V, const char *Yes, const char *) {
    if (const std::string *S = find(Rec.Strs, Key))
      V = *S == Yes;
  }
  void site(const char *Key, uint32_t &V) {
    if (const int64_t *X = find(Rec.Ints, Key); X && *X < 0)
      V = NoSite;
    else
      num(Key, V);
  }
  template <typename T> void group(std::optional<T> &V) {
    size_t Before = Found;
    T G;
    listKeys(*this, G);
    if (Found != Before)
      V = std::move(G);
  }

  std::string Error; ///< The first number that did not fit; empty if none.

private:
  template <typename M>
  const typename M::mapped_type *find(const M &Map, const char *Key) {
    auto It = Map.find(Key);
    if (It == Map.end())
      return nullptr;
    ++Found;
    return &It->second;
  }

  const TraceRecord &Rec;
  size_t Found = 0; ///< Keys present so far: a group is present if any is.
};

/// Reads \p V's keys out of \p Rec.  Returns false and sets \p Err when a
/// number does not fit its member.
template <typename T>
bool decodeRecord(const TraceRecord &Rec, T &V, std::string &Err) {
  KeyReader R(Rec);
  listKeys(R, V);
  Err = R.Error;
  return Err.empty();
}

} // namespace obs
} // namespace mgc

#endif // MGC_OBS_TRACEFORMAT_H
