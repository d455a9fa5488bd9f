//===- gc/Collector.cpp ---------------------------------------------------===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//

#include "gc/Collector.h"

#include "gcmaps/MapIndex.h"
#include "obs/Trace.h"
#include "vm/FrameWalk.h"

#include <cassert>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <unordered_set>
#include <vector>

using namespace mgc;
using namespace mgc::gc;
using namespace mgc::vm;

namespace {

/// Decoded-point cache lines (power of two).
constexpr unsigned DecodeCacheLines = 64;

/// One resolved derived-value entry: the target word and its base words
/// with signs (bases were required live, so they have resolved homes too).
struct DerivedEntry {
  Word *Target;
  std::vector<std::pair<Word *, int>> Bases;
};

/// The installed collector.  One instance lives for the life of the VM
/// (captured by the Collector closure), so the decoded-point cache and the
/// root/derived/scratch buffers persist across collections: steady-state
/// collections decode from cache and allocate nothing.
class PreciseCollector {
public:
  explicit PreciseCollector(const VMOptions &Opts)
      : Decoder(Opts.UseMapIndex, Opts.CrossCheck, DecodeCacheLines) {}

  void collect(VM &M);

private:
  /// The stack trace: every suspended thread's tidy roots in walk order
  /// (then the globals), and its derived values in the derived arena.
  void gatherRoots(VM &M);
  /// The full two-space Cheney copy (also evacuates the nursery in
  /// generational mode).
  void traceFull(VM &M);
  /// Generational mode: evacuates only the nursery, using the remembered
  /// set for the old→young roots.
  void traceMinor(VM &M);
  /// --gc-crosscheck after a minor collection: a full reachability
  /// traversal proving no live object was left behind in the evacuated
  /// nursery half via a stale remembered set.  Runs before the nursery
  /// halves swap.
  void crosscheckAfterMinor(VM &M);
  /// --gc-crosscheck after a full collection: a walk over to-space proving
  /// every root and every non-NIL field lands on the header of an object
  /// the collection copied.  Runs before the semispaces swap.
  void crosscheckAfterFull(VM &M);

  gcmaps::PointDecoder Decoder;
  /// The in-flight observability event (null when tracing is off); set at
  /// the top of collect() so traceMinor can time the remset rebuild.
  obs::GcEvent *CurEv = nullptr;
  /// The enabled tracer's per-site slabs for this collection (all null
  /// without one); set at the top of collect().
  SiteTally Tally;
  /// The root set: table-described slots in walk order, then globals.
  std::vector<Word *> TidyRoots;
  /// Persistent derived-entry arena (entries beyond DerivedUsed keep their
  /// base-vector capacity between collections).
  std::vector<DerivedEntry> Derived;
  size_t DerivedUsed = 0;
};

void PreciseCollector::gatherRoots(VM &M) {
  TidyRoots.clear();
  DerivedUsed = 0;
  uint64_t Hits = Decoder.hits(), Misses = Decoder.misses(),
           Skipped = Decoder.bytesSkipped();
  // Each thread's frames come innermost first, so its derived entries land
  // in the arena in the §3 callee-before-caller order.
  bool Walked = walkSuspendedThreads(M, Decoder, [&](size_t,
                                                     const WalkFrame &Fr) {
    ++M.Stats.FramesTraced;
    assert(Fr.Point && "suspension point is not a known gc-point");
    const gcmaps::GcPointInfo &Info = *Fr.Point;
    for (const vm::Location &L : Info.LiveSlots)
      TidyRoots.push_back(Fr.home(L));
    for (unsigned R = 0; R != NumRegs; ++R)
      if (Info.RegMask & (1u << R))
        TidyRoots.push_back(Fr.RegHome[R]);
    for (const gcmaps::DerivationRecord &Rec : Info.Derivs) {
      if (DerivedUsed == Derived.size())
        Derived.emplace_back();
      DerivedEntry &E = Derived[DerivedUsed++];
      E.Bases.clear();
      E.Target = Fr.home(Rec.Target);
      const std::vector<gcmaps::BaseRef> *Bases = Fr.bases(Rec);
      assert(Bases && "path variable selects no known derivation");
      for (const gcmaps::BaseRef &B : *Bases)
        E.Bases.emplace_back(Fr.home(B.Loc), B.Coeff);
    }
    return true;
  });
  assert(Walked && "stack walk left the thread's stack");
  (void)Walked;
  for (unsigned W : M.Prog.GlobalPtrWords)
    TidyRoots.push_back(&M.Globals[W]);
  M.Stats.DecodeCacheHits += Decoder.hits() - Hits;
  M.Stats.DecodeCacheMisses += Decoder.misses() - Misses;
  M.Stats.DecodeBytesSkipped += Decoder.bytesSkipped() - Skipped;
}

void PreciseCollector::traceFull(VM &M) {
  Heap &H = M.TheHeap;
  H.beginCollection();

  // --- Trace: forward every tidy root, then Cheney-scan the copied
  // objects through the heap's scan plans.  The kernel visits every
  // evacuated object exactly once, so the tracer's per-site live bytes
  // (the leak sample) and first-collection survival accumulate there for
  // free instead of in a separate heap walk.
  M.Stats.RootsTraced += TidyRoots.size();
  M.Stats.ObjectsCopied +=
      H.evacuate(TidyRoots.data(), TidyRoots.size(), Tally);
  M.Stats.BytesCopied += H.toAlloc() - H.scanStart();

  if (M.Opts.CrossCheck)
    crosscheckAfterFull(M);
  H.endCollection();
}

void PreciseCollector::traceMinor(VM &M) {
  Heap &H = M.TheHeap;
  assert(H.minorHeadroomOk() &&
         "minor collection started without promotion headroom");
  // Minor collections never sample leaks: they do not reclaim old space.
  H.beginMinorCollection(SiteTally{nullptr, Tally.FirstCopies, Tally.Sites});

  // Forwards a field's target out of the nursery if it is young.  Fields
  // of promoted objects that end up pointing at a survivor are new
  // old→young edges and must enter the remembered set.
  auto FwdField = [&](Word &Field,
                      bool InOldObject) __attribute__((always_inline)) {
    if (H.inNursery(Field))
      Field = H.forwardYoung(Field);
    if (InOldObject && H.inNurseryTo(Field))
      H.remember(reinterpret_cast<Word>(&Field));
  };

  // --- Roots: the same table-driven tidy roots as a full collection...
  for (Word *Root : TidyRoots) {
    ++M.Stats.RootsTraced;
    Word V = *Root;
    if (V == 0)
      continue;
    assert((H.inOld(V) || H.inNursery(V) || H.inNurseryTo(V)) &&
           "tidy root does not point into the heap (stale table or "
           "liveness bug)");
    if (H.inNursery(V))
      *Root = H.forwardYoung(V);
  }
  // ...plus every remembered old-space slot that still holds a young
  // pointer (the barrier records slots eagerly; stores since may have
  // overwritten them), in the order the barriers recorded them.
  for (Word Slot : H.remSet()) {
    Word &Field = *reinterpret_cast<Word *>(Slot);
    if (H.inNursery(Field))
      Field = H.forwardYoung(Field);
  }

  // --- Cheney scan over both target regions: the survivor half and the
  // region of old space filled by promotion.  Scanning either can grow
  // both, so alternate until neither advances.  always_inline here, on
  // the field lambda and on FwdField: the plan walk has three field sites
  // (fixed fields, pointer arrays, general arrays), and with that much
  // code GCC calls these lambdas per object or per field instead of
  // inlining them as it did for the two-site descriptor walk (measured:
  // server_open's minor pause p50 rose 6-13%).
  auto ScanObject = [&](Word Scan,
                        bool InOldObject) __attribute__((always_inline)) {
    // Every scanned object was evacuated (survivor half or promotion).
    ++M.Stats.ObjectsCopied;
    size_t Words = H.forEachPointerField(
        Scan, [&](Word &Field) __attribute__((always_inline)) {
          FwdField(Field, InOldObject);
        });
    return Words * sizeof(Word);
  };

  Word NurScan = H.nurScanStart();
  Word OldScan = H.oldScanStart();
  while (NurScan < H.nurToAlloc() || OldScan < H.oldAllocPtr()) {
    while (NurScan < H.nurToAlloc())
      NurScan += ScanObject(NurScan, /*InOldObject=*/false);
    while (OldScan < H.oldAllocPtr())
      OldScan += ScanObject(OldScan, /*InOldObject=*/true);
  }

  M.Stats.BytesCopied += (H.nurToAlloc() - H.nurScanStart()) +
                         (H.oldAllocPtr() - H.oldScanStart());

  if (M.Opts.CrossCheck)
    crosscheckAfterMinor(M);

  // Remembered-set rebuild (timed as its own phase): entries whose slot
  // still holds a young pointer once its target moved to the survivor
  // half stay, in order, the edges promotion appended among them.
  using Clock = std::chrono::steady_clock;
  Clock::time_point RemT0;
  if (CurEv)
    RemT0 = Clock::now();
  H.rebuildRemSet();
  if (CurEv)
    CurEv->Phases.RemsetRebuild = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             RemT0)
            .count());
  H.endMinorCollection();
}

void PreciseCollector::crosscheckAfterMinor(VM &M) {
  // Full-heap reachability verification: starting from every tidy root,
  // no reachable pointer may still target the evacuated nursery half — a
  // violation means a live object was missed via a stale remembered set.
  // The traversal also exercises objectWords on every reachable object,
  // asserting each open-array length round-trips its allocation size.
  Heap &H = M.TheHeap;
  std::unordered_set<Word> Visited;
  std::vector<Word> Work;
  auto Push = [&](Word V) {
    if (V == 0)
      return;
    if (H.inNursery(V)) {
      std::fprintf(stderr,
                   "gc cross-check: reachable object left in the evacuated "
                   "nursery half (stale remembered set)\n");
      std::abort();
    }
    if (!H.inOld(V) && !H.inNurseryTo(V))
      return;
    if (Visited.insert(V).second)
      Work.push_back(V);
  };
  for (Word *Root : TidyRoots)
    Push(*Root);
  while (!Work.empty()) {
    Word Obj = Work.back();
    Work.pop_back();
    (void)H.objectWords(Obj); // Asserts the header is sane.
    H.forEachPointerField(Obj, Push);
  }
}

void PreciseCollector::crosscheckAfterFull(VM &M) {
  Heap &H = M.TheHeap;
  Word Lo = H.scanStart(), Hi = H.toAlloc();
  auto Fail = [](const char *What) {
    std::fprintf(stderr, "gc cross-check: %s after a full collection\n",
                 What);
    std::abort();
  };
  // Object starts, found by sizing every object in to-space in turn.
  std::vector<bool> Starts((Hi - Lo) / sizeof(Word));
  for (Word P = Lo; P < Hi; P += H.objectWords(P) * sizeof(Word)) {
    if (*reinterpret_cast<const Word *>(P) & Heap::ForwardBit)
      Fail("to-space object carries a forwarding header");
    Starts[(P - Lo) / sizeof(Word)] = true;
  }
  auto Check = [&](Word V) {
    if (V != 0 && (V < Lo || V >= Hi || (V - Lo) % sizeof(Word) != 0 ||
                   !Starts[(V - Lo) / sizeof(Word)]))
      Fail("a root or field does not point at a copied object");
  };
  for (Word *Root : TidyRoots)
    Check(*Root);
  for (Word P = Lo; P < Hi;)
    P += H.forEachPointerField(P, Check) * sizeof(Word);
}

void PreciseCollector::collect(VM &M) {
  using Clock = std::chrono::steady_clock;
  auto Nanos = [](Clock::time_point A, Clock::time_point B) {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(B - A).count());
  };
  auto T0 = Clock::now();

  // The VM begins the observability event before invoking us; fill in the
  // per-phase breakdown as each phase completes.  Extra clock reads happen
  // only while an event is in flight.  The phases are carved out of one
  // timing skeleton (T0 → walk → T1 → underive → copy → rederive → T2), so
  // the phase nanos sum exactly to the collector span.
  CurEv = M.Tracer ? M.Tracer->current() : nullptr;
  Tally = M.Tracer ? SiteTally{M.Tracer->leakAccumulator(),
                               M.Tracer->firstCopyAccumulator(),
                               M.Tracer->siteCount()}
                   : SiteTally();

  bool Minor = M.TheHeap.generational() && M.RequestedGc == GcKind::Minor;

  // --- Stack tracing: locate tables, decode, gather roots (timed
  // separately; this is §6.3's measured quantity).  A minor collection
  // gathers the identical root set — only the trace differs.
  gatherRoots(M);

  auto T1 = Clock::now();
  if (CurEv)
    CurEv->Phases.StackTrace = Nanos(T0, T1);
  auto Mark = T1;

  // --- Phase 1 (§3): un-derive, innermost frames first, leaving E in each
  // derived location.  (Threads' derived values are independent of each
  // other, so only the per-thread order matters.)
  for (size_t K = 0; K != DerivedUsed; ++K) {
    const DerivedEntry &E = Derived[K];
    Word V = *E.Target;
    for (const auto &[BaseLoc, Coeff] : E.Bases)
      V -= static_cast<Word>(static_cast<int64_t>(Coeff)) * *BaseLoc;
    *E.Target = V;
    ++M.Stats.DerivedAdjusted;
  }

  if (CurEv) {
    auto Now = Clock::now();
    CurEv->Phases.Underive = Nanos(Mark, Now);
    Mark = Now;
  }

  if (Minor) {
    ++M.Stats.MinorCollections;
    traceMinor(M);
  } else {
    traceFull(M);
  }

  if (CurEv) {
    auto Now = Clock::now();
    // traceMinor timed its remset rebuild separately; the rest of the
    // evacuation span is the copy phase.
    CurEv->Phases.Copy = Nanos(Mark, Now) - CurEv->Phases.RemsetRebuild;
    Mark = Now;
  }

  // --- Phase 2 of the update (§3): re-derive from the new base values, in
  // exactly the reverse order.
  for (size_t K = DerivedUsed; K-- > 0;) {
    const DerivedEntry &E = Derived[K];
    Word V = *E.Target;
    for (const auto &[BaseLoc, Coeff] : E.Bases)
      V += static_cast<Word>(static_cast<int64_t>(Coeff)) * *BaseLoc;
    *E.Target = V;
  }

  // Leak-detector sample: the copy loop above already attributed every
  // evacuated object's bytes to its site, so the sample costs O(sites),
  // not O(live).
  if (M.Tracer)
    M.Tracer->sampleCollection(M.Stats.Collections, Minor);

  auto T2 = Clock::now();
  if (CurEv) {
    CurEv->Phases.Rederive = Nanos(Mark, T2);
    CurEv = nullptr; // The VM commits the event after we return.
  }
  M.Stats.StackTraceNanos += Nanos(T0, T1);
  uint64_t Total = Nanos(T0, T2);
  M.Stats.GcNanos += Total;
  if (Minor)
    M.Stats.MinorGcNanos += Total;
}

} // namespace

void gc::installPreciseCollector(VM &M) {
  // The collector instance is shared by every collection of this VM: the
  // decoded-point cache and the root/derived buffers persist, so only the
  // first collections pay decode allocations.
  auto State = std::make_shared<PreciseCollector>(M.Opts);
  M.Collector = [State](VM &Inner) { State->collect(Inner); };
}

//===----------------------------------------------------------------------===//
// Conservative (ambiguous roots) baseline
//===----------------------------------------------------------------------===//

ConservativeStats gc::conservativeTrace(VM &M,
                                        std::unordered_set<Word> *MarkedOut) {
  using Clock = std::chrono::steady_clock;
  auto T0 = Clock::now();
  ConservativeStats S;

  Heap &H = M.TheHeap;
  // Hash-based mark set: the conservative baseline should pay for its lack
  // of liveness information, not for red-black-tree rebalancing.
  std::unordered_set<Word> Marked;
  Marked.reserve(1024);
  std::vector<Word> Work;
  Work.reserve(256);

  auto Consider = [&](Word V) {
    ++S.WordsScanned;
    if (!H.plausibleObject(V))
      return;
    ++S.CandidatePointers;
    if (Marked.insert(V).second)
      Work.push_back(V);
  };

  for (const auto &T : M.Threads) {
    if (!T->Live)
      continue;
    // The whole used portion of the stack is ambiguous root material; the
    // conservative collector has no liveness information.
    uint32_t Top = T->FP;
    const CompiledFunction &F = M.Prog.Funcs[M.Prog.funcOfPC(T->PC)];
    Top += F.FrameWords;
    for (uint32_t W = 0; W < Top && W < T->StackWords; ++W)
      Consider(T->Stack[W]);
    for (unsigned R = 0; R != NumRegs; ++R)
      Consider(T->R[R]);
  }
  for (Word G : M.Globals)
    Consider(G);

  while (!Work.empty()) {
    Word Obj = Work.back();
    Work.pop_back();
    ++S.ObjectsReached;
    H.forEachPointerField(Obj, [&](Word V) {
      if (H.plausibleObject(V) && Marked.insert(V).second)
        Work.push_back(V);
    });
  }

  auto T1 = Clock::now();
  S.Nanos = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(T1 - T0).count());
  if (MarkedOut)
    *MarkedOut = std::move(Marked);
  return S;
}
