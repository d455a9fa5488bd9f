//===- obs/Report.cpp -----------------------------------------------------===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//

#include "obs/Report.h"

#include <algorithm>
#include <cstdio>
#include <istream>

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

bool parseString(Cursor &C, std::string &Out, std::string &Err) {
  if (!C.eat('"')) {
    Err = "expected '\"'";
    return false;
  }
  Out.clear();
  while (!C.done() && C.peek() != '"') {
    char Ch = C.S[C.I++];
    if (Ch != '\\') {
      Out += Ch;
      continue;
    }
    if (C.done()) {
      Err = "dangling escape";
      return false;
    }
    char E = C.S[C.I++];
    switch (E) {
    case '"':
      Out += '"';
      break;
    case '\\':
      Out += '\\';
      break;
    case '/':
      Out += '/';
      break;
    case 'n':
      Out += '\n';
      break;
    case 't':
      Out += '\t';
      break;
    case 'r':
      Out += '\r';
      break;
    case 'u': {
      if (C.I + 4 > C.S.size()) {
        Err = "truncated \\u escape";
        return false;
      }
      unsigned V = 0;
      for (int K = 0; K != 4; ++K) {
        char H = C.S[C.I++];
        V <<= 4;
        if (H >= '0' && H <= '9')
          V |= static_cast<unsigned>(H - '0');
        else if (H >= 'a' && H <= 'f')
          V |= static_cast<unsigned>(H - 'a' + 10);
        else if (H >= 'A' && H <= 'F')
          V |= static_cast<unsigned>(H - 'A' + 10);
        else {
          Err = "bad \\u digit";
          return false;
        }
      }
      // The tracer only escapes control characters; anything else is kept
      // as a replacement byte rather than attempting UTF-8 encoding.
      Out += V < 0x80 ? static_cast<char>(V) : '?';
      break;
    }
    default:
      Err = std::string("unknown escape '\\") + E + "'";
      return false;
    }
  }
  if (!C.eat('"')) {
    Err = "unterminated string";
    return false;
  }
  return true;
}

bool parseInt(Cursor &C, int64_t &Out, std::string &Err) {
  size_t Start = C.I;
  if (!C.done() && C.peek() == '-')
    ++C.I;
  while (!C.done() && C.peek() >= '0' && C.peek() <= '9')
    ++C.I;
  if (C.I == Start || (C.S[Start] == '-' && C.I == Start + 1)) {
    Err = "expected integer";
    return false;
  }
  // Accumulate the magnitude unsigned, refusing any digit that would take
  // it past INT64_MAX (or INT64_MIN's magnitude for a negative value).
  bool Neg = C.S[Start] == '-';
  uint64_t Limit = Neg ? uint64_t(INT64_MAX) + 1 : uint64_t(INT64_MAX);
  uint64_t Mag = 0;
  for (size_t K = Start + (Neg ? 1 : 0); K != C.I; ++K) {
    uint64_t D = static_cast<uint64_t>(C.S[K] - '0');
    if (Mag > (Limit - D) / 10) {
      Err = "integer out of range";
      return false;
    }
    Mag = Mag * 10 + D;
  }
  Out = static_cast<int64_t>(Neg ? 0 - Mag : Mag);
  return true;
}

} // namespace

bool obs::parseTraceLine(const std::string &Line, TraceRecord &Rec,
                         std::string &Err) {
  Rec = TraceRecord();
  Cursor C{Line};
  if (!C.eat('{')) {
    Err = "expected '{'";
    return false;
  }
  bool First = true;
  while (!C.eat('}')) {
    if (!First && !C.eat(',')) {
      Err = "expected ',' between fields";
      return false;
    }
    First = false;
    std::string Key;
    if (!parseString(C, Key, Err))
      return false;
    if (!C.eat(':')) {
      Err = "expected ':' after key";
      return false;
    }
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
  if (!C.done()) {
    Err = "trailing characters after '}'";
    return false;
  }
  if (Rec.Type.empty()) {
    Err = "record has no \"type\" field";
    return false;
  }
  return true;
}

bool obs::readTrace(std::istream &In, TraceReport &R, std::string &Err) {
  std::string Line;
  size_t LineNo = 0;
  while (std::getline(In, Line)) {
    ++LineNo;
    if (Line.empty())
      continue;
    TraceRecord Rec;
    std::string E;
    if (!parseTraceLine(Line, Rec, E)) {
      Err = "line " + std::to_string(LineNo) + ": " + E;
      return false;
    }
    ++R.LinesRead;
    if (Rec.Type == "meta") {
      R.Program = Rec.getStr("program");
      R.GenGc = Rec.getInt("gen_gc") != 0;
      R.SiteTableBytes = static_cast<uint64_t>(Rec.getInt("site_table_bytes"));
      R.Sites.resize(static_cast<size_t>(Rec.getInt("sites")));
      for (size_t I = 0; I != R.Sites.size(); ++I)
        R.Sites[I].Id = static_cast<uint32_t>(I);
    } else if (Rec.Type == "site") {
      size_t Id = static_cast<size_t>(Rec.getInt("id"));
      if (Id >= R.Sites.size()) {
        Err = "line " + std::to_string(LineNo) + ": site id out of range";
        return false;
      }
      TraceReport::Site &S = R.Sites[Id];
      S.Func = Rec.getStr("func");
      S.Line = static_cast<uint32_t>(Rec.getInt("line"));
      S.Col = static_cast<uint32_t>(Rec.getInt("col"));
      S.Desc = static_cast<uint32_t>(Rec.getInt("desc"));
    } else if (Rec.Type == "gc") {
      GcEvent Ev;
      Ev.Seq = static_cast<uint64_t>(Rec.getInt("seq"));
      Ev.Minor = Rec.getStr("kind") == "minor";
      int64_t Trig = Rec.getInt("trigger_site", -1);
      Ev.TriggerSite = Trig < 0 ? NoSite : static_cast<uint32_t>(Trig);
      Ev.Phases.Rendezvous = static_cast<uint64_t>(Rec.getInt("rendezvous_ns"));
      Ev.Phases.StackTrace =
          static_cast<uint64_t>(Rec.getInt("stack_trace_ns"));
      Ev.Phases.Underive = static_cast<uint64_t>(Rec.getInt("underive_ns"));
      Ev.Phases.Copy = static_cast<uint64_t>(Rec.getInt("copy_ns"));
      Ev.Phases.RemsetRebuild = static_cast<uint64_t>(Rec.getInt("remset_ns"));
      Ev.Phases.Rederive = static_cast<uint64_t>(Rec.getInt("rederive_ns"));
      Ev.TotalNanos = static_cast<uint64_t>(Rec.getInt("total_ns"));
      Ev.HeapBeforeBytes = static_cast<uint64_t>(Rec.getInt("heap_before"));
      Ev.HeapAfterBytes = static_cast<uint64_t>(Rec.getInt("heap_after"));
      Ev.FramesTraced = static_cast<uint64_t>(Rec.getInt("frames"));
      Ev.RootsTraced = static_cast<uint64_t>(Rec.getInt("roots"));
      Ev.ObjectsCopied = static_cast<uint64_t>(Rec.getInt("objects_copied"));
      Ev.BytesCopied = static_cast<uint64_t>(Rec.getInt("bytes_copied"));
      Ev.ObjectsPromoted =
          static_cast<uint64_t>(Rec.getInt("objects_promoted"));
      Ev.BytesPromoted = static_cast<uint64_t>(Rec.getInt("bytes_promoted"));
      Ev.DerivedAdjusted =
          static_cast<uint64_t>(Rec.getInt("derived_adjusted"));
      Ev.RendezvousSteps =
          static_cast<uint64_t>(Rec.getInt("rendezvous_steps"));
      Ev.CacheHits = static_cast<uint64_t>(Rec.getInt("cache_hits"));
      Ev.CacheMisses = static_cast<uint64_t>(Rec.getInt("cache_misses"));
      R.Events.push_back(Ev);
    } else if (Rec.Type == "req") {
      TraceReport::Request Q;
      Q.Seq = static_cast<uint64_t>(Rec.getInt("seq"));
      Q.Instrs = static_cast<uint64_t>(Rec.getInt("instrs"));
      Q.GcNanos = static_cast<uint64_t>(Rec.getInt("gc_ns"));
      Q.Collections = static_cast<uint64_t>(Rec.getInt("collections"));
      R.Requests.push_back(Q);
    } else if (Rec.Type == "site_stats") {
      size_t Id = static_cast<size_t>(Rec.getInt("id"));
      if (Id >= R.Sites.size()) {
        Err = "line " + std::to_string(LineNo) + ": site_stats id out of range";
        return false;
      }
      TraceReport::Site &S = R.Sites[Id];
      S.Count = static_cast<uint64_t>(Rec.getInt("count"));
      S.Bytes = static_cast<uint64_t>(Rec.getInt("bytes"));
      S.Survived = static_cast<uint64_t>(Rec.getInt("survived"));
      S.SurvivedBytes = static_cast<uint64_t>(Rec.getInt("survived_bytes"));
    } else if (Rec.Type == "site_live") {
      int64_t Id = Rec.getInt("id", -1);
      if (Id >= 0 && static_cast<size_t>(Id) >= R.Sites.size()) {
        Err = "line " + std::to_string(LineNo) + ": site_live id out of range";
        return false;
      }
      TraceReport::LiveSite L;
      L.Id = Id;
      L.Objects = static_cast<uint64_t>(Rec.getInt("objects"));
      L.Bytes = static_cast<uint64_t>(Rec.getInt("bytes"));
      R.LiveSites.push_back(L);
    } else if (Rec.Type == "age_hist") {
      TraceReport::AgeBucket B;
      B.Age = static_cast<uint32_t>(Rec.getInt("age"));
      B.Objects = static_cast<uint64_t>(Rec.getInt("objects"));
      B.Bytes = static_cast<uint64_t>(Rec.getInt("bytes"));
      R.AgeHist.push_back(B);
    } else if (Rec.Type == "leak") {
      size_t Id = static_cast<size_t>(Rec.getInt("site"));
      if (Id >= R.Sites.size()) {
        Err = "line " + std::to_string(LineNo) + ": leak site out of range";
        return false;
      }
      TraceReport::Leak L;
      L.Site = static_cast<uint32_t>(Id);
      L.SlopeBytes = Rec.getInt("slope_bytes");
      L.LiveBytes = static_cast<uint64_t>(Rec.getInt("live_bytes"));
      L.FirstFlagged = static_cast<uint64_t>(Rec.getInt("first_flagged"));
      L.Window = static_cast<uint32_t>(Rec.getInt("window"));
      R.Leaks.push_back(L);
    } else if (Rec.Type == "prof_stack") {
      TraceReport::HotStack H;
      H.Rank = static_cast<uint64_t>(Rec.getInt("rank"));
      H.Samples = static_cast<uint64_t>(Rec.getInt("samples"));
      H.Weight = static_cast<uint64_t>(Rec.getInt("weight"));
      H.Stack = Rec.getStr("stack");
      R.HotStacks.push_back(H);
    } else if (Rec.Type == "run") {
      R.HasRun = true;
      R.RunOk = Rec.getStr("exit") == "ok";
      R.RunError = Rec.getStr("error");
      R.Run = Rec;
    } else {
      Err = "line " + std::to_string(LineNo) + ": unknown record type \"" +
            Rec.Type + "\"";
      return false;
    }
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Rendering
//===----------------------------------------------------------------------===//

namespace {

std::string fmtNanos(uint64_t Ns) {
  char Buf[64];
  if (Ns >= 1'000'000)
    std::snprintf(Buf, sizeof(Buf), "%.2f ms",
                  static_cast<double>(Ns) / 1e6);
  else if (Ns >= 1'000)
    std::snprintf(Buf, sizeof(Buf), "%.2f us",
                  static_cast<double>(Ns) / 1e3);
  else
    std::snprintf(Buf, sizeof(Buf), "%llu ns",
                  static_cast<unsigned long long>(Ns));
  return Buf;
}

std::string fmtBytes(uint64_t B) {
  char Buf[64];
  if (B >= 1u << 20)
    std::snprintf(Buf, sizeof(Buf), "%.2f MiB",
                  static_cast<double>(B) / (1u << 20));
  else if (B >= 1u << 10)
    std::snprintf(Buf, sizeof(Buf), "%.2f KiB",
                  static_cast<double>(B) / (1u << 10));
  else
    std::snprintf(Buf, sizeof(Buf), "%llu B",
                  static_cast<unsigned long long>(B));
  return Buf;
}

struct Pcts {
  uint64_t P50 = 0, P95 = 0, Max = 0;
};

Pcts pcts(std::vector<uint64_t> V) {
  Pcts R;
  if (V.empty())
    return R;
  std::sort(V.begin(), V.end());
  auto At = [&](double P) {
    size_t I =
        static_cast<size_t>(P * static_cast<double>(V.size() - 1) + 0.5);
    return V[std::min(I, V.size() - 1)];
  };
  R.P50 = At(0.50);
  R.P95 = At(0.95);
  R.Max = V.back();
  return R;
}

void line(std::string &Out, const char *Name, const Pcts &P, uint64_t Total) {
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf), "  %-12s p50 %12s   p95 %12s   max %12s   total %12s\n",
                Name, fmtNanos(P.P50).c_str(), fmtNanos(P.P95).c_str(),
                fmtNanos(P.Max).c_str(), fmtNanos(Total).c_str());
  Out += Buf;
}

std::string siteLabel(const TraceReport::Site &S) {
  std::string L = S.Func;
  L += ':';
  L += std::to_string(S.Line);
  if (S.Col)
    L += ':' + std::to_string(S.Col);
  return L;
}

} // namespace

std::string obs::renderReport(const TraceReport &R, size_t TopN) {
  std::string Out;
  char Buf[256];

  Out += "=== mgc trace report: " + R.Program + " ===\n";
  std::snprintf(Buf, sizeof(Buf),
                "mode: %s   collections: %zu   sites: %zu   "
                "site table: %llu bytes\n",
                R.GenGc ? "generational" : "two-space", R.Events.size(),
                R.Sites.size(),
                static_cast<unsigned long long>(R.SiteTableBytes));
  Out += Buf;
  if (R.HasRun && !R.RunOk)
    Out += "RUN FAILED: " + R.RunError + " (trace is partial)\n";
  // Ring overflow means the pause/volume sections below silently miss the
  // oldest collections — say so up front, not buried in the run record.
  if (uint64_t Dropped =
          static_cast<uint64_t>(R.Run.getInt("events_dropped_from_ring"))) {
    std::snprintf(Buf, sizeof(Buf),
                  "WARNING: %llu gc events dropped from the ring buffer; "
                  "pause/volume sections cover only the last %zu "
                  "collections\n",
                  static_cast<unsigned long long>(Dropped), R.Events.size());
    Out += Buf;
  }

  // A run that never collected has no pause/volume/survival material: say
  // so instead of rendering a report of empty sections (and keep the
  // percentile math away from zero-length inputs).
  if (R.Events.empty())
    Out += "no collections recorded\n";

  // --- Pause breakdown per collection kind and phase.
  auto Section = [&](const char *Title, bool Minor) {
    std::vector<uint64_t> Total, Rend, Trace, Und, Copy, Rem, Red;
    uint64_t SumTotal = 0, SumRend = 0, SumTrace = 0, SumUnd = 0,
             SumCopy = 0, SumRem = 0, SumRed = 0;
    for (const GcEvent &E : R.Events) {
      if (E.Minor != Minor)
        continue;
      Total.push_back(E.TotalNanos);
      Rend.push_back(E.Phases.Rendezvous);
      Trace.push_back(E.Phases.StackTrace);
      Und.push_back(E.Phases.Underive);
      Copy.push_back(E.Phases.Copy);
      Rem.push_back(E.Phases.RemsetRebuild);
      Red.push_back(E.Phases.Rederive);
      SumTotal += E.TotalNanos;
      SumRend += E.Phases.Rendezvous;
      SumTrace += E.Phases.StackTrace;
      SumUnd += E.Phases.Underive;
      SumCopy += E.Phases.Copy;
      SumRem += E.Phases.RemsetRebuild;
      SumRed += E.Phases.Rederive;
    }
    if (Total.empty())
      return;
    std::snprintf(Buf, sizeof(Buf), "\n-- %s pauses (%zu collections) --\n",
                  Title, Total.size());
    Out += Buf;
    line(Out, "total", pcts(Total), SumTotal);
    line(Out, "rendezvous", pcts(Rend), SumRend);
    line(Out, "stack-trace", pcts(Trace), SumTrace);
    line(Out, "underive", pcts(Und), SumUnd);
    line(Out, "copy", pcts(Copy), SumCopy);
    if (Minor)
      line(Out, "remset", pcts(Rem), SumRem);
    line(Out, "rederive", pcts(Red), SumRed);
  };
  Section("minor", true);
  Section("full", false);

  // --- Copy/promotion volume and decode cache efficiency.
  uint64_t Frames = 0, Hits = 0, Misses = 0, BytesCopied = 0,
           BytesPromoted = 0, ObjectsCopied = 0;
  for (const GcEvent &E : R.Events) {
    Frames += E.FramesTraced;
    Hits += E.CacheHits;
    Misses += E.CacheMisses;
    BytesCopied += E.BytesCopied;
    BytesPromoted += E.BytesPromoted;
    ObjectsCopied += E.ObjectsCopied;
  }
  if (!R.Events.empty()) {
    Out += "\n-- volume --\n";
    std::snprintf(Buf, sizeof(Buf),
                  "  copied %llu objects / %s; promoted %s; "
                  "%llu frames traced\n",
                  static_cast<unsigned long long>(ObjectsCopied),
                  fmtBytes(BytesCopied).c_str(),
                  fmtBytes(BytesPromoted).c_str(),
                  static_cast<unsigned long long>(Frames));
    Out += Buf;
    uint64_t Decodes = Hits + Misses;
    if (Decodes) {
      std::snprintf(Buf, sizeof(Buf),
                    "  decode cache: %llu hits / %llu misses (%.1f%% hit "
                    "rate)\n",
                    static_cast<unsigned long long>(Hits),
                    static_cast<unsigned long long>(Misses),
                    100.0 * static_cast<double>(Hits) /
                        static_cast<double>(Decodes));
      Out += Buf;
    }
  }

  // --- Server-workload requests (programs that call ReqDone).
  if (!R.Requests.empty()) {
    std::vector<uint64_t> Instrs;
    uint64_t GcNs = 0, Colls = 0;
    for (const TraceReport::Request &Q : R.Requests) {
      Instrs.push_back(Q.Instrs);
      GcNs += Q.GcNanos;
      Colls += Q.Collections;
    }
    Pcts P = pcts(Instrs);
    Out += "\n-- requests --\n";
    std::snprintf(Buf, sizeof(Buf),
                  "  %zu requests; instrs/req p50 %llu   p95 %llu   max "
                  "%llu\n",
                  R.Requests.size(), static_cast<unsigned long long>(P.P50),
                  static_cast<unsigned long long>(P.P95),
                  static_cast<unsigned long long>(P.Max));
    Out += Buf;
    std::snprintf(Buf, sizeof(Buf),
                  "  gc attributed to requests: %s across %llu "
                  "collections\n",
                  fmtNanos(GcNs).c_str(),
                  static_cast<unsigned long long>(Colls));
    Out += Buf;
  }

  // --- Hot stacks from the sampling profiler (runs with --profile).
  if (!R.HotStacks.empty()) {
    Out += "\n-- hot stacks (sampling profiler, by mutator weight) --\n";
    std::snprintf(Buf, sizeof(Buf), "  %4s %12s %10s  %s\n", "rank",
                  "weight", "samples", "stack");
    Out += Buf;
    size_t N = std::min(TopN, R.HotStacks.size());
    for (size_t I = 0; I != N; ++I) {
      const TraceReport::HotStack &H = R.HotStacks[I];
      std::snprintf(Buf, sizeof(Buf), "  %4llu %12llu %10llu  ",
                    static_cast<unsigned long long>(H.Rank),
                    static_cast<unsigned long long>(H.Weight),
                    static_cast<unsigned long long>(H.Samples));
      Out += Buf;
      Out += H.Stack;
      Out += '\n';
    }
  }

  // --- Top allocation sites.
  std::vector<const TraceReport::Site *> Active;
  for (const TraceReport::Site &S : R.Sites)
    if (S.Count)
      Active.push_back(&S);

  auto Table = [&](const char *Title, auto Key) {
    if (Active.empty())
      return;
    // Tie-break equal keys by site id so the table order (and with it the
    // rendered report) is identical across dispatch tiers, not at the
    // mercy of std::sort's instability.
    std::stable_sort(
        Active.begin(), Active.end(),
        [&](const TraceReport::Site *A, const TraceReport::Site *B) {
          if (Key(*A) != Key(*B))
            return Key(*A) > Key(*B);
          return A->Id < B->Id;
        });
    Out += "\n-- ";
    Out += Title;
    Out += " --\n";
    std::snprintf(Buf, sizeof(Buf), "  %-28s %12s %12s %12s %9s\n", "site",
                  "allocs", "bytes", "survived", "surv%");
    Out += Buf;
    size_t N = std::min(TopN, Active.size());
    for (size_t I = 0; I != N; ++I) {
      const TraceReport::Site &S = *Active[I];
      if (Key(S) == 0)
        break;
      double SurvPct = S.Count
                           ? 100.0 * static_cast<double>(S.Survived) /
                                 static_cast<double>(S.Count)
                           : 0.0;
      std::snprintf(Buf, sizeof(Buf), "  %-28s %12llu %12s %12llu %8.1f%%\n",
                    siteLabel(S).c_str(),
                    static_cast<unsigned long long>(S.Count),
                    fmtBytes(S.Bytes).c_str(),
                    static_cast<unsigned long long>(S.Survived), SurvPct);
      Out += Buf;
    }
  };
  Table("top sites by bytes allocated",
        [](const TraceReport::Site &S) { return S.Bytes; });
  Table("top sites by bytes surviving first collection",
        [](const TraceReport::Site &S) { return S.SurvivedBytes; });

  // --- Suspected leak sites (online growth detector).
  if (!R.Leaks.empty()) {
    Out += '\n';
    Out += renderLeaks(R, TopN);
  }

  // --- Live objects at trace finish by site (persistent attribution).
  if (!R.LiveSites.empty()) {
    std::vector<const TraceReport::LiveSite *> Live;
    for (const TraceReport::LiveSite &L : R.LiveSites)
      Live.push_back(&L);
    std::sort(Live.begin(), Live.end(),
              [](const TraceReport::LiveSite *A,
                 const TraceReport::LiveSite *B) {
                if (A->Bytes != B->Bytes)
                  return A->Bytes > B->Bytes;
                return A->Id < B->Id;
              });
    Out += "\n-- live at finish by site --\n";
    std::snprintf(Buf, sizeof(Buf), "  %-28s %12s %12s\n", "site", "objects",
                  "bytes");
    Out += Buf;
    size_t N = std::min(TopN, Live.size());
    for (size_t I = 0; I != N; ++I) {
      const TraceReport::LiveSite &L = *Live[I];
      std::string Label =
          L.Id < 0 ? "(no site)"
                   : siteLabel(R.Sites[static_cast<size_t>(L.Id)]);
      std::snprintf(Buf, sizeof(Buf), "  %-28s %12llu %12s\n", Label.c_str(),
                    static_cast<unsigned long long>(L.Objects),
                    fmtBytes(L.Bytes).c_str());
      Out += Buf;
    }
  }

  // --- Age histogram: how many collections did the live objects survive?
  if (!R.AgeHist.empty()) {
    uint64_t MaxObjects = 1;
    for (const TraceReport::AgeBucket &B : R.AgeHist)
      MaxObjects = std::max(MaxObjects, B.Objects);
    Out += "\n-- live object ages (collections survived) --\n";
    for (const TraceReport::AgeBucket &B : R.AgeHist) {
      size_t Bar = static_cast<size_t>(
          30.0 * static_cast<double>(B.Objects) /
          static_cast<double>(MaxObjects));
      std::snprintf(Buf, sizeof(Buf), "  age %3u %10llu obj %12s  %s\n",
                    B.Age, static_cast<unsigned long long>(B.Objects),
                    fmtBytes(B.Bytes).c_str(),
                    std::string(Bar, '#').c_str());
      Out += Buf;
    }
  }

  return Out;
}

std::string obs::renderLeaks(const TraceReport &R, size_t TopN) {
  if (R.Leaks.empty())
    return "no suspected leak sites\n";
  std::string Out;
  char Buf[256];
  // Records arrive pre-sorted by (slope desc, site asc) from the tracer.
  Out += "-- suspected leak sites --\n";
  std::snprintf(Buf, sizeof(Buf), "  %-28s %14s %12s %14s\n", "site",
                "slope B/gc", "live", "first flagged");
  Out += Buf;
  size_t N = std::min(TopN, R.Leaks.size());
  for (size_t I = 0; I != N; ++I) {
    const TraceReport::Leak &L = R.Leaks[I];
    std::string Label = static_cast<size_t>(L.Site) < R.Sites.size()
                            ? siteLabel(R.Sites[L.Site])
                            : "(site " + std::to_string(L.Site) + ")";
    std::snprintf(Buf, sizeof(Buf), "  %-28s %+14lld %12s %11llu/gc\n",
                  Label.c_str(), static_cast<long long>(L.SlopeBytes),
                  fmtBytes(L.LiveBytes).c_str(),
                  static_cast<unsigned long long>(L.FirstFlagged));
    Out += Buf;
  }
  if (R.Leaks.size() > N) {
    std::snprintf(Buf, sizeof(Buf), "  ... %zu more\n", R.Leaks.size() - N);
    Out += Buf;
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// JSON rendering
//===----------------------------------------------------------------------===//

namespace {

using support::JsonWriter;

void jpcts(JsonWriter &J, const char *Key, const Pcts &P, uint64_t Total) {
  J.beginObject(Key)
      .uint("p50_ns", P.P50)
      .uint("p95_ns", P.P95)
      .uint("max_ns", P.Max)
      .uint("total_ns", Total)
      .endObject();
}

} // namespace

std::string obs::renderReportJson(const TraceReport &R, size_t TopN) {
  std::string Out;
  JsonWriter J(Out);
  J.beginObject()
      .str("program", R.Program)
      .str("mode", R.GenGc ? "generational" : "two-space")
      .uint("collections", R.Events.size())
      .uint("sites", R.Sites.size())
      .uint("site_table_bytes", R.SiteTableBytes);
  if (R.HasRun) {
    J.uint("run_ok", R.RunOk ? 1 : 0);
    if (!R.RunOk)
      J.str("run_error", R.RunError);
    J.uint("events_dropped_from_ring",
           static_cast<uint64_t>(R.Run.getInt("events_dropped_from_ring")));
  }

  // --- Pause breakdown, mirroring Section().
  auto Pauses = [&](const char *Key, bool Minor) {
    std::vector<uint64_t> Total, Rend, Trace, Und, Copy, Rem, Red;
    uint64_t SumTotal = 0, SumRend = 0, SumTrace = 0, SumUnd = 0,
             SumCopy = 0, SumRem = 0, SumRed = 0;
    for (const GcEvent &E : R.Events) {
      if (E.Minor != Minor)
        continue;
      Total.push_back(E.TotalNanos);
      Rend.push_back(E.Phases.Rendezvous);
      Trace.push_back(E.Phases.StackTrace);
      Und.push_back(E.Phases.Underive);
      Copy.push_back(E.Phases.Copy);
      Rem.push_back(E.Phases.RemsetRebuild);
      Red.push_back(E.Phases.Rederive);
      SumTotal += E.TotalNanos;
      SumRend += E.Phases.Rendezvous;
      SumTrace += E.Phases.StackTrace;
      SumUnd += E.Phases.Underive;
      SumCopy += E.Phases.Copy;
      SumRem += E.Phases.RemsetRebuild;
      SumRed += E.Phases.Rederive;
    }
    if (Total.empty())
      return;
    J.beginObject(Key).uint("collections", Total.size());
    jpcts(J, "total", pcts(Total), SumTotal);
    jpcts(J, "rendezvous", pcts(Rend), SumRend);
    jpcts(J, "stack_trace", pcts(Trace), SumTrace);
    jpcts(J, "underive", pcts(Und), SumUnd);
    jpcts(J, "copy", pcts(Copy), SumCopy);
    if (Minor)
      jpcts(J, "remset", pcts(Rem), SumRem);
    jpcts(J, "rederive", pcts(Red), SumRed);
    J.endObject();
  };
  Pauses("minor_pauses", true);
  Pauses("full_pauses", false);

  // --- Volume and decode cache.
  if (!R.Events.empty()) {
    uint64_t Frames = 0, Hits = 0, Misses = 0, BytesCopied = 0,
             BytesPromoted = 0, ObjectsCopied = 0;
    for (const GcEvent &E : R.Events) {
      Frames += E.FramesTraced;
      Hits += E.CacheHits;
      Misses += E.CacheMisses;
      BytesCopied += E.BytesCopied;
      BytesPromoted += E.BytesPromoted;
      ObjectsCopied += E.ObjectsCopied;
    }
    J.beginObject("volume")
        .uint("objects_copied", ObjectsCopied)
        .uint("bytes_copied", BytesCopied)
        .uint("bytes_promoted", BytesPromoted)
        .uint("frames_traced", Frames)
        .uint("cache_hits", Hits)
        .uint("cache_misses", Misses)
        .endObject();
  }

  // --- Requests.
  if (!R.Requests.empty()) {
    std::vector<uint64_t> Instrs;
    uint64_t GcNs = 0, Colls = 0;
    for (const TraceReport::Request &Q : R.Requests) {
      Instrs.push_back(Q.Instrs);
      GcNs += Q.GcNanos;
      Colls += Q.Collections;
    }
    Pcts P = pcts(Instrs);
    J.beginObject("requests")
        .uint("count", R.Requests.size())
        .uint("instrs_p50", P.P50)
        .uint("instrs_p95", P.P95)
        .uint("instrs_max", P.Max)
        .uint("gc_ns", GcNs)
        .uint("gc_collections", Colls)
        .endObject();
  }

  // --- Hot stacks (sampling profiler; tracer order = weight desc).
  if (!R.HotStacks.empty()) {
    J.beginArray("hot_stacks");
    size_t N = std::min(TopN, R.HotStacks.size());
    for (size_t I = 0; I != N; ++I) {
      const TraceReport::HotStack &H = R.HotStacks[I];
      J.beginObject()
          .uint("rank", H.Rank)
          .uint("samples", H.Samples)
          .uint("weight", H.Weight)
          .str("stack", H.Stack)
          .endObject();
    }
    J.endArray();
  }

  // --- Site tables: same ordering contract as the rendered report
  // (key desc, site id asc, stable).
  std::vector<const TraceReport::Site *> Active;
  for (const TraceReport::Site &S : R.Sites)
    if (S.Count)
      Active.push_back(&S);
  auto SiteTable = [&](const char *Key, auto KeyFn) {
    if (Active.empty())
      return;
    std::stable_sort(
        Active.begin(), Active.end(),
        [&](const TraceReport::Site *A, const TraceReport::Site *B) {
          if (KeyFn(*A) != KeyFn(*B))
            return KeyFn(*A) > KeyFn(*B);
          return A->Id < B->Id;
        });
    J.beginArray(Key);
    size_t N = std::min(TopN, Active.size());
    for (size_t I = 0; I != N; ++I) {
      const TraceReport::Site &S = *Active[I];
      if (KeyFn(S) == 0)
        break;
      J.beginObject()
          .uint("id", S.Id)
          .str("site", siteLabel(S))
          .uint("allocs", S.Count)
          .uint("bytes", S.Bytes)
          .uint("survived", S.Survived)
          .uint("survived_bytes", S.SurvivedBytes)
          .endObject();
    }
    J.endArray();
  };
  SiteTable("top_sites_by_bytes",
            [](const TraceReport::Site &S) { return S.Bytes; });
  SiteTable("top_sites_by_survived_bytes",
            [](const TraceReport::Site &S) { return S.SurvivedBytes; });

  // --- Suspected leaks (tracer order: slope desc, site asc).
  if (!R.Leaks.empty()) {
    J.beginArray("leaks");
    for (const TraceReport::Leak &L : R.Leaks) {
      J.beginObject().uint("site", L.Site);
      if (static_cast<size_t>(L.Site) < R.Sites.size())
        J.str("label", siteLabel(R.Sites[L.Site]));
      J.sint("slope_bytes", L.SlopeBytes)
          .uint("live_bytes", L.LiveBytes)
          .uint("first_flagged", L.FirstFlagged)
          .uint("window", L.Window)
          .endObject();
    }
    J.endArray();
  }

  // --- Live at finish by site (bytes desc, id asc — as rendered).
  if (!R.LiveSites.empty()) {
    std::vector<const TraceReport::LiveSite *> Live;
    for (const TraceReport::LiveSite &L : R.LiveSites)
      Live.push_back(&L);
    std::sort(Live.begin(), Live.end(),
              [](const TraceReport::LiveSite *A,
                 const TraceReport::LiveSite *B) {
                if (A->Bytes != B->Bytes)
                  return A->Bytes > B->Bytes;
                return A->Id < B->Id;
              });
    J.beginArray("live_by_site");
    size_t N = std::min(TopN, Live.size());
    for (size_t I = 0; I != N; ++I) {
      const TraceReport::LiveSite &L = *Live[I];
      J.beginObject()
          .sint("id", L.Id)
          .str("site", L.Id < 0
                           ? std::string("(no site)")
                           : siteLabel(R.Sites[static_cast<size_t>(L.Id)]))
          .uint("objects", L.Objects)
          .uint("bytes", L.Bytes)
          .endObject();
    }
    J.endArray();
  }

  // --- Age histogram.
  if (!R.AgeHist.empty()) {
    J.beginArray("age_hist");
    for (const TraceReport::AgeBucket &B : R.AgeHist)
      J.beginObject()
          .uint("age", B.Age)
          .uint("objects", B.Objects)
          .uint("bytes", B.Bytes)
          .endObject();
    J.endArray();
  }

  J.endObject();
  Out += '\n';
  return Out;
}
