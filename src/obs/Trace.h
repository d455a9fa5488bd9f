//===- obs/Trace.h - GC event tracing and allocation profiling --*- C++ -*-===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The runtime observability subsystem: a preallocated ring-buffer event
/// tracer the VM and collector feed, plus per-allocation-site counters
/// keyed by the compiler-emitted site table (gcmaps/SiteTable.h).
///
/// Design constraints:
///
///  - The tracer is always compiled in; when disabled it must cost the
///    mutator a single predicted branch per allocation (the trace row of
///    bench/obs_overhead.cpp enforces <1% attached-disabled, <3% enabled
///    on the gengc workloads).
///  - The enabled allocation hot path allocates nothing: site counters are
///    a flat preallocated vector indexed by site id.  First-collection
///    survival costs the mutator nothing: the collector's copy loops add
///    each object copied at age 0 to a per-site slab the tracer lends
///    (firstCopyAccumulator), so a pause pays per survivor, not per
///    allocation.
///  - Collections are rare relative to allocations, so event commit (ring
///    store + optional JSONL stream write) may format text.
///
/// The JSONL records the tracer streams are defined once in
/// obs/TraceFormat.h; the structs below that records share carry their
/// key lists (see there) next to their members.
///
/// Event lifecycle: the VM begins an event after the rendezvous completes
/// (so committed events correspond 1:1 with VMStats::Collections), the
/// collector fills in the per-phase breakdown, and the VM commits the
/// event with before/after stat deltas once the collector returns.
///
//===----------------------------------------------------------------------===//

#ifndef MGC_OBS_TRACE_H
#define MGC_OBS_TRACE_H

#include "gcmaps/SiteTable.h"
#include "support/Json.h"
#include "support/Percentile.h"

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace mgc {
namespace vm {
class Heap;
} // namespace vm
namespace obs {

struct Profile;
struct RunSummary;

/// Sentinel site id: no attribution (collections triggered by an explicit
/// GcCollect call, or allocation instructions that predate site linking).
constexpr uint32_t NoSite = 0xFFFFFFFFu;

/// Per-phase nanosecond breakdown of one collection, in pipeline order.
struct PhaseNanos {
  uint64_t Rendezvous = 0;    ///< §5.3 thread rendezvous (VM side).
  uint64_t StackTrace = 0;    ///< Table locate + decode + root gathering.
  uint64_t Underive = 0;      ///< §3 phase 1: subtract base values.
  uint64_t Copy = 0;          ///< Cheney evacuation and scan.
  uint64_t RemsetRebuild = 0; ///< Minor only: surviving-entry sweep + swap.
  uint64_t Rederive = 0;      ///< §3 phase 2: re-add new base values.
};

/// One collection, as recorded in the ring / JSONL stream.
struct GcEvent {
  static constexpr const char *Type = "gc";
  uint64_t Seq = 0;   ///< 1-based; equals VMStats::Collections at commit.
  bool Minor = false; ///< Minor (nursery-only) vs full collection.
  /// Allocation site whose NEW triggered this collection (NoSite for
  /// explicit GcCollect requests).
  uint32_t TriggerSite = NoSite;
  PhaseNanos Phases;
  uint64_t TotalNanos = 0; ///< Rendezvous + collector time.
  uint64_t HeapBeforeBytes = 0;
  uint64_t HeapAfterBytes = 0;
  // Deltas over this collection.
  uint64_t FramesTraced = 0;
  uint64_t RootsTraced = 0;
  uint64_t ObjectsCopied = 0;
  uint64_t BytesCopied = 0;
  uint64_t ObjectsPromoted = 0;
  uint64_t BytesPromoted = 0;
  uint64_t DerivedAdjusted = 0;
  uint64_t RendezvousSteps = 0;
  uint64_t CacheHits = 0;   ///< Decoded-point cache hits this collection.
  uint64_t CacheMisses = 0; ///< Decoded-point cache misses this collection.
  template <typename IO, typename T> static void keys(IO &F, T &V) {
    F.num("seq", V.Seq);
    F.name("kind", V.Minor, "minor", "full");
    F.site("trigger_site", V.TriggerSite);
    F.num("rendezvous_ns", V.Phases.Rendezvous);
    F.num("stack_trace_ns", V.Phases.StackTrace);
    F.num("underive_ns", V.Phases.Underive);
    F.num("copy_ns", V.Phases.Copy);
    F.num("remset_ns", V.Phases.RemsetRebuild);
    F.num("rederive_ns", V.Phases.Rederive);
    F.num("total_ns", V.TotalNanos);
    F.num("heap_before", V.HeapBeforeBytes);
    F.num("heap_after", V.HeapAfterBytes);
    F.num("frames", V.FramesTraced);
    F.num("roots", V.RootsTraced);
    F.num("objects_copied", V.ObjectsCopied);
    F.num("bytes_copied", V.BytesCopied);
    F.num("objects_promoted", V.ObjectsPromoted);
    F.num("bytes_promoted", V.BytesPromoted);
    F.num("derived_adjusted", V.DerivedAdjusted);
    F.num("rendezvous_steps", V.RendezvousSteps);
    F.num("cache_hits", V.CacheHits);
    F.num("cache_misses", V.CacheMisses);
  }
};

/// Cumulative counters for one allocation site.
struct SiteCounters {
  uint64_t Count = 0;         ///< Allocations attributed to the site.
  uint64_t Bytes = 0;         ///< Bytes allocated (header included).
  uint64_t Survived = 0;      ///< Allocations that survived their first gc.
  uint64_t SurvivedBytes = 0;
  template <typename IO, typename T> static void keys(IO &F, T &V) {
    F.num("count", V.Count);
    F.num("bytes", V.Bytes);
    F.num("survived", V.Survived);
    F.num("survived_bytes", V.SurvivedBytes);
  }
};

/// One (objects, bytes) aggregate of the heap's per-object attribution —
/// per site for liveBySite(), per age for ageHistogram().  The attribution
/// itself lives in each object's header (vm/Heap.h: site id and
/// evacuation-count age ride the header through every copy), so there is
/// no side table to maintain; these aggregates are computed by walking the
/// heap on demand.
struct LiveAgg {
  uint64_t Objects = 0;
  uint64_t Bytes = 0;
  template <typename IO, typename T> static void keys(IO &F, T &V) {
    F.num("objects", V.Objects);
    F.num("bytes", V.Bytes);
  }
};

/// Online growth-detector configuration (leak triage).  When enabled the
/// collector calls Tracer::sampleCollection at the tail of every pause;
/// the detector keeps a sliding window of per-site live-bytes samples
/// (full collections only — minor collections never reclaim old space, so
/// per-site "live" ramps monotonically between fulls and would flag every
/// site) and flags sites whose window shows sustained growth.  All state
/// is preallocated in the tracer constructor; sampling allocates nothing.
struct LeakConfig {
  bool Enabled = false;
  /// Sliding window length in full-collection samples.  A leaking site is
  /// flagged once its window fills with non-decreasing, net-growing
  /// samples, so Window is also K: the detection-latency bound in full
  /// collections.
  uint32_t Window = 8;
  /// Minimum live bytes at the newest sample before a site can be
  /// flagged; filters sites too small to matter.
  uint64_t MinBytes = 4096;
};

/// Capacity of the per-request service-demand sample buffer (ReqDone
/// markers); samples beyond it are dropped (and counted), the running
/// aggregates keep counting.
constexpr size_t TraceRequestCapacity = 1u << 18;

/// Static configuration captured when the tracer is attached to a VM.
struct TracerConfig {
  /// The program's allocation-site table; may be null (counters off).
  const gcmaps::SiteTable *Sites = nullptr;
  /// Function names, indexed by AllocSite::Func (for JSONL site records).
  std::vector<std::string> FuncNames;
  std::string ProgramName;
  /// Active dispatch tier name ("threaded"/"switch"); empty = unreported.
  /// Self-describes benchmark artifacts; tiers are observably identical.
  std::string Dispatch;
  bool GenGc = false;
  size_t SiteTableBytes = 0;
  /// RNG seed of the run (0 when the program takes none); stamped into the
  /// meta record alongside tool version and build flags so artifacts are
  /// self-describing and reproducible.
  uint64_t Seed = 0;
  /// Committed events retained in memory (a stream sees every event).
  size_t RingCapacity = 1024;
  /// Online leak detection (see LeakConfig).  The leak row of
  /// bench/obs_overhead gates the cost: ≤1% with the detector off, ≤3%
  /// with it on.
  LeakConfig Leak;
};

class Tracer {
public:
  explicit Tracer(TracerConfig Config);

  //===--- Control ---------------------------------------------------------===

  /// Enables recording.  \p Stream, when non-null, receives the JSONL
  /// trace: meta + site records immediately, one gc record per committed
  /// event, and site_stats + run records at finish().  The stream must
  /// outlive the tracer or a finish() call.
  void enable(std::ostream *Stream);
  bool enabled() const { return Enabled; }

  /// Writes the trailing site_stats and run records (idempotent; no-op
  /// without a stream).  Call after the VM run ends — including on error
  /// paths, where \p Error carries the VM's message: a mid-collection
  /// failure must still flush the partial trace.  \p H, when non-null,
  /// supplies the heap walked for the site_live and age_hist trailer
  /// records (the header-borne attribution still live at exit).  \p Prof,
  /// when non-null, is the run's profile: its ten heaviest mutator stacks
  /// follow the run record as prof_stack records.
  void finish(bool Ok, const std::string &Error,
              const vm::Heap *H = nullptr, const Profile *Prof = nullptr);

  //===--- Mutator hot path ------------------------------------------------===

  /// Records one allocation.
  void recordAlloc(uint32_t Site, uint64_t Bytes) {
    if (!Enabled)
      return;
    if (Site < Counters.size()) {
      ++Counters[Site].Count;
      Counters[Site].Bytes += Bytes;
    } else {
      // Unattributed allocations (no site table, or instructions predating
      // site linking) skip the per-site counters; snapshots still see them
      // via the NoSite id carried in the object header.
      ++UnattributedCount;
      UnattributedBytes += Bytes;
    }
  }

  /// Records one completed request (a ReqDone marker): \p Instrs is the
  /// virtual-time service demand (instructions retired since the previous
  /// marker), \p GcNanos and \p Collections the collection work the VM
  /// attributed to that window.  Request granularity is coarse relative to
  /// allocation, so this may append to the (preallocated) sample buffer
  /// and write a JSONL record.
  void recordRequest(uint64_t Seq, uint64_t Instrs, uint64_t GcNanos,
                     uint64_t Collections);

  //===--- Collection lifecycle (VM / collector) ---------------------------===

  /// Begins event \p Seq.  Returns the event for the collector to fill;
  /// valid until commitEvent().
  GcEvent &beginEvent(uint64_t Seq, bool Minor, uint32_t TriggerSite);

  /// The in-flight event, or null when none (tracer disabled, or no
  /// collection running).  The collector writes phase timings through this.
  GcEvent *current() { return CurActive ? &Cur : nullptr; }

  /// Commits the in-flight event: ring store, pause bookkeeping, and JSONL
  /// stream write.
  void commitEvent();

  /// Leak-detector hook: called by the collector at the tail of every
  /// pause.  Minor collections only count a scan; full collections drain
  /// the in-copy accumulator (leakAccumulator) as one live-bytes sample
  /// per site, push it into the sliding window, and re-evaluate the flags
  /// — the post-collection live set is exactly what the collection
  /// copied, so no separate heap walk is needed.  \p Collections is
  /// VMStats::Collections at the sample (recorded as the flag time).
  /// No-op unless the tracer is enabled and Config.Leak.Enabled is set.
  void sampleCollection(uint64_t Collections, bool Minor);

  /// Per-site slab for the in-copy leak sampling: during a FULL
  /// collection the collector adds each object's bytes to slot [site id]
  /// as it evacuates the object, and sampleCollection drains the slab.
  /// Returns null (the collector skips the add) unless the tracer is
  /// enabled with the detector configured.  Minor collections must not
  /// accumulate: only the full-collection copy loop wires this in.
  uint64_t *leakAccumulator() {
    return Enabled && !LeakAcc.empty() ? LeakAcc.data() : nullptr;
  }
  /// Per-site slab for first-collection survival: every collection's copy
  /// loops add each object they copy at age 0 — surviving its first
  /// collection — to slots [2 * site] (objects) and [2 * site + 1]
  /// (bytes).  Objects allocated directly in old space in generational
  /// mode never count.  Null unless the tracer is enabled with a site
  /// table; siteCounters() reports the sums as survived/survived_bytes.
  uint64_t *firstCopyAccumulator() {
    return Enabled && !FirstCopies.empty() ? FirstCopies.data() : nullptr;
  }
  /// Sites in the program's table; the accumulators' site ids at or past
  /// this bound are unattributed and must not be added.
  size_t siteCount() const { return Counters.size(); }

  //===--- Results ---------------------------------------------------------===

  const TracerConfig &config() const { return Config; }
  /// Per-site counters, survival included.
  std::vector<SiteCounters> siteCounters() const;
  uint64_t unattributedCount() const { return UnattributedCount; }

  /// Committed events, oldest first (at most RingCapacity retained; the
  /// stream, when attached, saw every event).
  uint64_t eventCount() const { return TotalEvents; }
  /// The most recently committed event, or null when none yet.  Valid until
  /// the next commitEvent() overwrites its ring slot; pause harnesses (e.g.
  /// bench/pause) read TotalNanos out of it from the VM's PostGcHook.
  const GcEvent *lastCommitted() const {
    return TotalEvents ? &Ring[(TotalEvents - 1) % Ring.size()] : nullptr;
  }
  uint64_t eventsDropped() const {
    return TotalEvents > Ring.size() ? TotalEvents - Ring.size() : 0;
  }
  std::vector<GcEvent> retainedEvents() const;

  using Percentiles = support::Percentiles;
  /// Pause percentiles over every committed event (not just the retained
  /// ring).  Kind: 0 = all, 1 = minor only, 2 = full only.
  Percentiles pausePercentiles(int Kind = 0) const;

  /// Writes the aggregate counters (the run record's RunSummary, with the
  /// request service-demand percentiles over the retained samples) as
  /// members of the object \p J has open, for --stats-json.
  void writeSummaryJson(support::JsonWriter &J) const;

  //===--- Leak detection results ------------------------------------------===

  /// One suspected-leak site: its window filled with non-decreasing,
  /// net-growing live-bytes samples while the newest sample was at least
  /// Config.Leak.MinBytes.
  struct LeakFlag {
    uint32_t Site = 0;
    /// Integer least-squares slope of the window, in bytes per full
    /// collection (positive by construction for a flagged site).
    int64_t SlopeBytes = 0;
    uint64_t LiveBytes = 0;     ///< Live bytes at the newest sample.
    uint64_t FirstFlagged = 0;  ///< VMStats::Collections at the first flag.
    template <typename IO, typename T> static void keys(IO &F, T &V) {
      F.num("site", V.Site);
      F.num("slope_bytes", V.SlopeBytes);
      F.num("live_bytes", V.LiveBytes);
      F.num("first_flagged", V.FirstFlagged);
    }
  };
  /// Currently flagged sites, sorted by (slope desc, site id asc): the
  /// inputs are per-site integer sums accumulated as objects are copied,
  /// a pure function of the collection schedule, so the result is
  /// byte-identical across dispatch tiers and decode paths.
  std::vector<LeakFlag> leakFlags() const;
  uint64_t leakScans() const { return LeakScans; }
  uint64_t leakSamples() const { return LeakSampleCount; }
  /// Writes the detector state as members ("leak_window":N,
  /// "leak_flags":[{...},...]) for --stats-json; each flag object has the
  /// keys of a leak record's flag.  NOT part of writeSummaryJson: the flag
  /// list is nested, which the strict flat JSONL re-parser must never see
  /// in a run record (each flag instead gets its own flat "leak" record at
  /// finish()).
  void writeLeakJson(support::JsonWriter &J) const;

  //===--- Live attribution aggregates (header-borne; heap walks) ----------===

  /// (objects, bytes) per site id over a walk of \p H's allocated regions,
  /// reading each object's header-borne site; NoSiteHdr objects (and site
  /// ids past the linked table) aggregate into \p NoSiteAgg.  "Live" means:
  /// allocated and not yet reclaimed by a collection that covered the
  /// object's space — old-space objects dead since the last *full*
  /// collection are still counted (snapshots are exact, this is not).
  /// Must not be called mid-collection.
  std::vector<LiveAgg> liveBySite(const vm::Heap &H,
                                  LiveAgg &NoSiteAgg) const;

  /// (objects, bytes) per header-borne evacuation-count age over the same
  /// walk; index = age, trailing empty buckets trimmed.
  std::vector<LiveAgg> ageHistogram(const vm::Heap &H) const;

  /// Writes the liveBySite/ageHistogram aggregates as members
  /// ("live_objects_by_site":{...},"live_bytes_by_site":{...},
  /// "live_age_hist":{...}) for --stats-json.  NOT part of
  /// writeSummaryJson: the values are nested objects, which the strict
  /// flat JSONL re-parser (obs/TraceFormat.h) must never see in a run
  /// record.
  void writeLiveJson(support::JsonWriter &J, const vm::Heap &H) const;

private:
  RunSummary summary() const;

  TracerConfig Config;
  bool Enabled = false;
  std::ostream *Stream = nullptr;
  bool Finished = false;

  /// Indexed by site id; Survived and SurvivedBytes live in FirstCopies
  /// until siteCounters() folds them in.
  std::vector<SiteCounters> Counters;
  std::vector<uint64_t> FirstCopies; ///< See firstCopyAccumulator().
  uint64_t UnattributedCount = 0;
  uint64_t UnattributedBytes = 0;

  GcEvent Cur;
  bool CurActive = false;

  std::vector<GcEvent> Ring; ///< Preallocated; slot = (Seq-1) % capacity.
  uint64_t TotalEvents = 0;

  std::vector<uint64_t> PausesMinor; ///< TotalNanos of every minor event.
  std::vector<uint64_t> PausesFull;  ///< TotalNanos of every full event.

  std::vector<uint64_t> ReqInstrs; ///< Per-request service demand samples.
  uint64_t ReqCount = 0;
  uint64_t ReqGcNanosTotal = 0;
  uint64_t ReqCollectionsTotal = 0;
  uint64_t DroppedRequests = 0;

  // Leak detector (preallocated in the constructor when Config.Leak is
  // enabled and a site table exists; empty otherwise).
  std::vector<uint64_t> LeakRing; ///< Site-major: [site * Window + slot].
  /// Per-site bytes the full-collection copy loop fills via
  /// leakAccumulator(); drained (copied + zeroed) by sampleCollection.
  std::vector<uint64_t> LeakAcc;
  std::vector<uint64_t> LeakFirst; ///< Collections at first flag; 0 = never.
  uint64_t LeakSampleCount = 0;    ///< Full-collection samples taken.
  uint64_t LeakScans = 0;          ///< sampleCollection calls (any kind).
};

} // namespace obs
} // namespace mgc

#endif // MGC_OBS_TRACE_H
