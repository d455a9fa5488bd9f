//===- obs/Trace.cpp ------------------------------------------------------===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//

#include "obs/Trace.h"

#include "obs/Profile.h"
#include "obs/TraceFormat.h"
#include "support/Provenance.h"
#include "vm/Heap.h"

#include <algorithm>
#include <cassert>
#include <ostream>

using namespace mgc;
using namespace mgc::obs;

using support::JsonWriter;

Tracer::Tracer(TracerConfig C) : Config(std::move(C)) {
  if (Config.Sites) {
    Counters.resize(Config.Sites->Sites.size());
    FirstCopies.assign(2 * Counters.size(), 0);
  }
  Ring.resize(std::max<size_t>(Config.RingCapacity, 1));
  PausesMinor.reserve(1024);
  PausesFull.reserve(1024);
  ReqInstrs.reserve(std::min<size_t>(TraceRequestCapacity, 1u << 12));
  if (Config.Leak.Enabled && !Counters.empty()) {
    // The least-squares denominator needs W >= 2; everything below is
    // preallocated so sampleCollection never allocates.
    if (Config.Leak.Window < 2)
      Config.Leak.Window = 2;
    LeakRing.assign(Counters.size() * size_t(Config.Leak.Window), 0);
    LeakAcc.assign(Counters.size(), 0);
    LeakFirst.assign(Counters.size(), 0);
  }
}

void Tracer::recordRequest(uint64_t Seq, uint64_t Instrs, uint64_t GcNanos,
                           uint64_t Collections) {
  if (!Enabled)
    return;
  ++ReqCount;
  ReqGcNanosTotal += GcNanos;
  ReqCollectionsTotal += Collections;
  if (ReqInstrs.size() < TraceRequestCapacity)
    ReqInstrs.push_back(Instrs);
  else
    ++DroppedRequests;
  if (Stream)
    writeRecord(*Stream, RequestRecord{Seq, Instrs, GcNanos, Collections});
}

void Tracer::enable(std::ostream *S) {
  Enabled = true;
  Stream = S;
  if (!Stream)
    return;
  writeRecord(*Stream,
              MetaRecord{.Program = Config.ProgramName,
                         .ToolVersion = support::ToolVersion,
                         .BuildFlags = support::buildFlags(),
                         .Seed = Config.Seed,
                         .Dispatch = Config.Dispatch.empty()
                                         ? std::nullopt
                                         : std::optional(Config.Dispatch),
                         .GenGc = Config.GenGc,
                         .Sites = Counters.size(),
                         .SiteTableBytes = Config.SiteTableBytes});
  if (!Config.Sites)
    return;
  for (size_t I = 0; I != Config.Sites->Sites.size(); ++I) {
    const gcmaps::AllocSite &S = Config.Sites->Sites[I];
    writeRecord(*Stream, SiteRecord{I,
                                    S.Func < Config.FuncNames.size()
                                        ? Config.FuncNames[S.Func]
                                        : std::to_string(S.Func),
                                    S.Line, S.Col, S.Desc});
  }
}

GcEvent &Tracer::beginEvent(uint64_t Seq, bool Minor, uint32_t TriggerSite) {
  assert(!CurActive && "nested collection events");
  Cur = GcEvent();
  Cur.Seq = Seq;
  Cur.Minor = Minor;
  Cur.TriggerSite = TriggerSite;
  CurActive = true;
  return Cur;
}

std::vector<SiteCounters> Tracer::siteCounters() const {
  std::vector<SiteCounters> Out = Counters;
  for (size_t I = 0; I != Out.size(); ++I) {
    Out[I].Survived = FirstCopies[2 * I];
    Out[I].SurvivedBytes = FirstCopies[2 * I + 1];
  }
  return Out;
}

namespace {

/// Evaluates one site's sliding window.  \p SiteRing points at the site's
/// W-slot circular span; \p Samples orders it (slot Samples % W is the
/// oldest).  Flagged iff every step is non-decreasing, the window shows
/// net growth, and the newest sample clears \p MinBytes.  \p Slope gets
/// the integer least-squares fit in bytes per full collection.
bool leakEval(const uint64_t *SiteRing, uint32_t W, uint64_t Samples,
              uint64_t MinBytes, int64_t &Slope, uint64_t &Newest) {
  Slope = 0;
  Newest = 0;
  if (Samples < W)
    return false;
  uint64_t Base = Samples % W;
  bool NonDecreasing = true;
  uint64_t Prev = 0, First = 0, Last = 0;
  int64_t SumY = 0, SumIY = 0;
  for (uint32_t J = 0; J != W; ++J) {
    uint64_t Y = SiteRing[(Base + J) % W];
    if (J == 0)
      First = Y;
    else if (Y < Prev)
      NonDecreasing = false;
    Prev = Y;
    Last = Y;
    SumY += static_cast<int64_t>(Y);
    SumIY += static_cast<int64_t>(J) * static_cast<int64_t>(Y);
  }
  // num/den is the least-squares slope over sample indices 0..W-1; the
  // denominator is a positive constant of W alone, so integer division
  // keeps the fit deterministic.
  int64_t SumI = int64_t(W) * (W - 1) / 2;
  int64_t SumI2 = int64_t(W) * (W - 1) * (2 * int64_t(W) - 1) / 6;
  int64_t Den = int64_t(W) * SumI2 - SumI * SumI;
  int64_t Num = int64_t(W) * SumIY - SumI * SumY;
  Slope = Num / Den;
  Newest = Last;
  return NonDecreasing && Last > First && Last >= MinBytes && Num > 0;
}

} // namespace

void Tracer::sampleCollection(uint64_t Collections, bool Minor) {
  if (!Enabled || LeakAcc.empty())
    return;
  ++LeakScans;
  // Minor collections never reclaim old space, so per-site live bytes ramp
  // monotonically between fulls; sampling there would flag every site.
  if (Minor)
    return;
  // Drain the in-copy accumulator into the window: a full collection
  // copies every live object exactly once, so the slab holds the
  // post-collection per-site live bytes.  Zeroing it here lets the next
  // full collection start from zero.
  size_t NSites = LeakAcc.size();
  uint32_t W = Config.Leak.Window;
  size_t Slot = static_cast<size_t>(LeakSampleCount % W);
  for (size_t S = 0; S != NSites; ++S) {
    LeakRing[S * W + Slot] = LeakAcc[S];
    LeakAcc[S] = 0;
  }
  ++LeakSampleCount;
  if (LeakSampleCount < W)
    return;
  for (size_t S = 0; S != NSites; ++S) {
    if (LeakFirst[S])
      continue; // the first-flag time is sticky
    int64_t Slope;
    uint64_t Newest;
    if (leakEval(&LeakRing[S * W], W, LeakSampleCount, Config.Leak.MinBytes,
                 Slope, Newest))
      LeakFirst[S] = Collections ? Collections : 1;
  }
}

std::vector<Tracer::LeakFlag> Tracer::leakFlags() const {
  std::vector<LeakFlag> Out;
  uint32_t W = Config.Leak.Window;
  for (size_t S = 0; S != LeakAcc.size(); ++S) {
    int64_t Slope;
    uint64_t Newest;
    if (!leakEval(&LeakRing[S * W], W, LeakSampleCount, Config.Leak.MinBytes,
                  Slope, Newest))
      continue;
    LeakFlag F;
    F.Site = static_cast<uint32_t>(S);
    F.SlopeBytes = Slope;
    F.LiveBytes = Newest;
    F.FirstFlagged = LeakFirst[S];
    Out.push_back(F);
  }
  std::stable_sort(Out.begin(), Out.end(),
                   [](const LeakFlag &A, const LeakFlag &B) {
                     if (A.SlopeBytes != B.SlopeBytes)
                       return A.SlopeBytes > B.SlopeBytes;
                     return A.Site < B.Site;
                   });
  return Out;
}

void Tracer::writeLeakJson(JsonWriter &J) const {
  J.uint("leak_window", Config.Leak.Window)
      .uint("leak_min_bytes", Config.Leak.MinBytes)
      .beginArray("leak_flags");
  for (const LeakFlag &F : leakFlags()) {
    J.beginObject();
    writeKeys(J, F);
    J.endObject();
  }
  J.endArray();
}

std::vector<LiveAgg> Tracer::liveBySite(const vm::Heap &H,
                                        LiveAgg &NoSiteAgg) const {
  std::vector<LiveAgg> Per(Counters.size());
  NoSiteAgg = LiveAgg();
  H.forEachObject([&](uint64_t P) {
    uint64_t Hd = *reinterpret_cast<const uint64_t *>(P);
    uint32_t Site = vm::Heap::headerSite(Hd);
    uint64_t Bytes = H.objectWords(P) * sizeof(uint64_t);
    LiveAgg &A = Site < Per.size() ? Per[Site] : NoSiteAgg;
    ++A.Objects;
    A.Bytes += Bytes;
  });
  return Per;
}

std::vector<LiveAgg> Tracer::ageHistogram(const vm::Heap &H) const {
  std::vector<LiveAgg> Hist;
  H.forEachObject([&](uint64_t P) {
    uint64_t Hd = *reinterpret_cast<const uint64_t *>(P);
    unsigned Age = vm::Heap::headerAge(Hd);
    if (Age >= Hist.size())
      Hist.resize(Age + 1);
    ++Hist[Age].Objects;
    Hist[Age].Bytes += H.objectWords(P) * sizeof(uint64_t);
  });
  return Hist;
}

void Tracer::writeLiveJson(JsonWriter &J, const vm::Heap &H) const {
  LiveAgg NoSiteAgg;
  std::vector<LiveAgg> Per = liveBySite(H, NoSiteAgg);
  auto BySite = [&](const char *Key, bool Bytes) {
    J.beginObject(Key);
    for (size_t I = 0; I != Per.size(); ++I)
      if (Per[I].Objects != 0)
        J.uint(std::to_string(I), Bytes ? Per[I].Bytes : Per[I].Objects);
    if (NoSiteAgg.Objects != 0)
      J.uint("nosite", Bytes ? NoSiteAgg.Bytes : NoSiteAgg.Objects);
    J.endObject();
  };
  BySite("live_objects_by_site", /*Bytes=*/false);
  BySite("live_bytes_by_site", /*Bytes=*/true);
  J.beginObject("live_age_hist");
  std::vector<LiveAgg> Hist = ageHistogram(H);
  for (size_t Age = 0; Age != Hist.size(); ++Age)
    if (Hist[Age].Objects != 0)
      J.uint(std::to_string(Age), Hist[Age].Bytes);
  J.endObject();
}

void Tracer::commitEvent() {
  assert(CurActive && "commit without a begun event");
  CurActive = false;
  Ring[static_cast<size_t>(TotalEvents % Ring.size())] = Cur;
  ++TotalEvents;
  (Cur.Minor ? PausesMinor : PausesFull).push_back(Cur.TotalNanos);
  if (Stream)
    writeRecord(*Stream, Cur);
}

std::vector<GcEvent> Tracer::retainedEvents() const {
  std::vector<GcEvent> Out;
  uint64_t N = std::min<uint64_t>(TotalEvents, Ring.size());
  Out.reserve(static_cast<size_t>(N));
  for (uint64_t I = TotalEvents - N; I != TotalEvents; ++I)
    Out.push_back(Ring[static_cast<size_t>(I % Ring.size())]);
  return Out;
}

Tracer::Percentiles Tracer::pausePercentiles(int Kind) const {
  std::vector<uint64_t> V;
  if (Kind == 0 || Kind == 1)
    V.insert(V.end(), PausesMinor.begin(), PausesMinor.end());
  if (Kind == 0 || Kind == 2)
    V.insert(V.end(), PausesFull.begin(), PausesFull.end());
  return support::percentiles(std::move(V));
}

RunSummary Tracer::summary() const {
  RunSummary S;
  S.Events = TotalEvents;
  S.EventsRetained = std::min<uint64_t>(TotalEvents, Ring.size());
  S.EventsDropped = eventsDropped();
  S.UnattributedAllocs = UnattributedCount;
  S.UnattributedBytes = UnattributedBytes;
  S.All = pausePercentiles(0);
  S.Minor = pausePercentiles(1);
  S.Full = pausePercentiles(2);
  // Server workloads only: per-request service demand (virtual time, in
  // instructions) and the GC work attributed to completed requests.
  if (ReqCount)
    S.Reqs = RunSummary::Requests{ReqCount, DroppedRequests, ReqGcNanosTotal,
                                  ReqCollectionsTotal,
                                  support::percentiles(ReqInstrs)};
  if (!LeakAcc.empty())
    S.Leaks = RunSummary::Leak{LeakScans, LeakSampleCount, leakFlags().size()};
  return S;
}

void Tracer::writeSummaryJson(JsonWriter &J) const { writeKeys(J, summary()); }

void Tracer::finish(bool Ok, const std::string &Error, const vm::Heap *H,
                    const Profile *Prof) {
  if (Finished || !Stream)
    return;
  Finished = true;
  std::vector<SiteCounters> Sites = siteCounters();
  for (size_t I = 0; I != Sites.size(); ++I)
    if (Sites[I].Count != 0)
      writeRecord(*Stream, SiteStatsRecord{I, Sites[I]});
  if (H) {
    // End-of-run view of the header-borne attribution: what is still live
    // (per site, and per collection-count age), from a final heap walk.
    LiveAgg NoSiteAgg;
    std::vector<LiveAgg> Per = liveBySite(*H, NoSiteAgg);
    auto WriteSiteLive = [&](int64_t Id, const LiveAgg &A) {
      if (A.Objects != 0)
        writeRecord(*Stream, SiteLiveRecord{Id, A});
    };
    for (size_t I = 0; I != Per.size(); ++I)
      WriteSiteLive(static_cast<int64_t>(I), Per[I]);
    WriteSiteLive(-1, NoSiteAgg);
    std::vector<LiveAgg> Hist = ageHistogram(*H);
    for (size_t Age = 0; Age != Hist.size(); ++Age)
      if (Hist[Age].Objects != 0)
        writeRecord(*Stream, AgeRecord{static_cast<uint32_t>(Age), Hist[Age]});
  }
  if (!LeakAcc.empty()) {
    // One record per currently flagged site, in (slope desc, site asc)
    // order, so mgc-report can render the leaks section without any
    // snapshot file.
    for (const LeakFlag &F : leakFlags())
      writeRecord(*Stream, LeakRecord{F, Config.Leak.Window});
  }
  RunRecord Run{Ok, std::nullopt, summary()};
  if (!Ok)
    Run.Error = Error;
  writeRecord(*Stream, Run);
  if (Prof) {
    // The profile's ten heaviest mutator stacks, by weight then stack id
    // (one row per stack), so mgc-report shows them next to the gc events.
    std::vector<Profile::MutRow> Hot = Prof->Mutator;
    size_t N = std::min<size_t>(Hot.size(), 10);
    std::partial_sort(Hot.begin(), Hot.begin() + N, Hot.end(),
                      [](const Profile::MutRow &A, const Profile::MutRow &B) {
                        if (A.Weight != B.Weight)
                          return A.Weight > B.Weight;
                        return A.StackId < B.StackId;
                      });
    for (size_t I = 0; I != N; ++I)
      writeRecord(*Stream, HotStack{I + 1, Hot[I].Samples, Hot[I].Weight,
                                    foldedStack(*Prof, Hot[I].StackId)});
  }
  Stream->flush();
}
