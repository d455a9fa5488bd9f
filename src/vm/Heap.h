//===- vm/Heap.h - Two-space heap with type descriptors ---------*- C++ -*-===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The heap the collector compacts.  Objects carry a one-word header
/// holding their type descriptor index (Modula-3 requires descriptors in
/// heap objects — §2's requirement (i)/(ii)); during collection the header
/// is overlaid with a low-bit-tagged forwarding pointer.  Tidy pointers
/// point at the header.  Layout:
///
///     [header][payload words...]                 fixed-shape objects
///     [header][length][elements...]              open arrays
///
/// Every walk over an object's fields (the Cheney scans, the minor
/// cross-check, the conservative baseline, heap snapshots) goes through a
/// ScanPlan: each ir::TypeDesc flattened once, when the heap is built,
/// into its kind, its fixed words and element stride, and its pointer
/// offsets in one flat array.
///
/// Header word: bit 0 is the forwarding tag; bits 1..16 hold the object's
/// age — the number of collections it has been evacuated through,
/// saturating, consulted both by the generational promotion policy and by
/// the heap-snapshot age attribution; bits 17..40 hold the descriptor
/// index; bits 41..63 hold the allocation-site id (gcmaps/SiteTable.h;
/// all-ones = unattributed).  Site and age ride the header through every
/// copy, so per-object attribution survives collections with no side
/// table and no cost beyond the copy itself.
///
/// The heap runs in one of two modes:
///
///  - Two-space (default): a classic pair of semispaces; every collection
///    is a full Cheney copy from from-space to to-space.
///  - Generational: a bump-allocated nursery (itself split in two halves
///    so minor collections can copy survivors within it) in front of the
///    two "old" semispaces.  Minor collections evacuate live nursery
///    objects into the other nursery half, promoting them into old space
///    once they have survived PromoteAge copies; a remembered set of
///    old-space slots that may hold young pointers (maintained by the
///    compiler-emitted write barriers) supplies the extra roots.  The set
///    is a vector of slot addresses in barrier order, deduplicated by one
///    bit per old-space word.  Full collections fall back to the Cheney
///    copy over nursery + old space and clear the remembered set.
///
/// Every space lives in one anonymous page mapping per heap, reserved at
/// construction: both semispaces at the growth cap, both nursery halves at
/// the auto-sizing cap, and the remembered-set bits.  Growth and nursery
/// resizing move limits inside it, never memory.  A destroyed heap leaves
/// its mapping in a one-slot spare that the next heap it fits takes over,
/// so a process that runs heap after heap faults its pages in once.
///
//===----------------------------------------------------------------------===//

#ifndef MGC_VM_HEAP_H
#define MGC_VM_HEAP_H

#include "ir/IR.h"

#include <cassert>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

namespace mgc {
namespace vm {

using Word = uint64_t;

/// One type descriptor flattened for the field walks.  Fixed-part offsets
/// are word indices from the header (header = word 0); element offsets are
/// relative to the element, and elements start at word 2, after the
/// length word.
struct ScanPlan {
  enum Kind : uint8_t {
    PtrFreeRecord, ///< Fixed size, no pointer fields.
    Record,        ///< Fixed size, at least one pointer field.
    PtrArray,      ///< Open array of one-word pointer elements.
    ScalarArray,   ///< Open array whose elements hold no pointers.
    GeneralArray,  ///< Any other open array.
  };
  Kind K = PtrFreeRecord;
  uint32_t FixedWords = 1; ///< Header plus fixed payload.
  uint32_t Stride = 0;     ///< Element words (open arrays).
  uint32_t Ptrs = 0, NumPtrs = 0;         ///< Fixed offsets in the table.
  uint32_t ElemPtrs = 0, NumElemPtrs = 0; ///< Element offsets in the table.

  bool isArray() const { return K >= PtrArray; }
};

/// Heap-sizing policy (mgc --heap-growth / --heap-max / --nursery-auto).
/// Every decision is byte-count driven, so sizing is identical across
/// dispatch tiers and decode paths.
struct HeapPolicy {
  /// Occupancy percentage of the semispace at which a full collection
  /// doubles it (growth-only; capped by MaxBytes).  0 = fixed-size heap.
  unsigned GrowthPct = 0;
  /// Semispace growth cap.  0 = 8x the initial size when GrowthPct is
  /// set; ignored (pinned to the initial size) otherwise.  A cap whose
  /// mapping cannot be reserved is halved, never below the initial size,
  /// until it can.
  size_t MaxBytes = 0;
  /// Generational mode: resize the nursery from minor-collection survivor
  /// volume, between the configured size (floor) and a quarter semispace.
  bool NurseryAuto = false;
};

/// Thrown by the Heap constructor when its page mapping cannot be
/// reserved; what() reads "cannot reserve N bytes for the heap".
struct HeapReserveError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Per-site slabs a collection's copy loops add to (an enabled tracer lends
/// them).  Null slabs are skipped; site ids at or past Sites are
/// unattributed and never added.
struct SiteTally {
  /// Full collections: every copied object's bytes (the leak sample).
  uint64_t *LiveBytes = nullptr;
  /// Objects copied for the first time, i.e. surviving their first
  /// collection: [2 * site] counts them, [2 * site + 1] their bytes.
  uint64_t *FirstCopies = nullptr;
  size_t Sites = 0;
};

class Heap {
public:
  /// Returned by allocationBytes when the size computation overflows.
  static constexpr size_t BadAlloc = std::numeric_limits<size_t>::max();

  /// Header encoding (shared with the collector's scan loop).
  static constexpr Word ForwardBit = 1;
  static constexpr unsigned AgeShift = 1;
  static constexpr Word AgeMask = 0xFFFF; ///< 16 bits: evacuation count.
  static constexpr unsigned DescShift = 17;
  static constexpr Word DescMask = 0xFFFFFF; ///< 24 bits: descriptor index.
  static constexpr unsigned SiteShift = 41;
  static constexpr Word SiteMask = 0x7FFFFF; ///< 23 bits: allocation site.
  /// The site field's all-ones pattern: no attribution (no site table, or
  /// an allocation instruction predating site linking).  The obs layer's
  /// obs::NoSite (32-bit all-ones) maps to this on the way in and back out.
  static constexpr uint32_t NoSiteHdr = static_cast<uint32_t>(SiteMask);
  /// Survivals of a minor collection before promotion to old space.
  static constexpr unsigned PromoteAge = 2;

  static size_t headerDesc(Word H) {
    return static_cast<size_t>((H >> DescShift) & DescMask);
  }
  static unsigned headerAge(Word H) {
    return static_cast<unsigned>((H >> AgeShift) & AgeMask);
  }
  static uint32_t headerSite(Word H) {
    return static_cast<uint32_t>((H >> SiteShift) & SiteMask);
  }
  static Word makeHeader(size_t DescIdx, unsigned Age,
                         uint32_t Site = NoSiteHdr) {
    return (static_cast<Word>(Site) << SiteShift) |
           (static_cast<Word>(DescIdx) << DescShift) |
           (static_cast<Word>(Age) << AgeShift);
  }
  /// \p H with its age bumped by one evacuation (saturating): the whole of
  /// attribution maintenance during a collection.
  static Word agedHeader(Word H) {
    return headerAge(H) == AgeMask ? H : H + (Word(1) << AgeShift);
  }
  /// Narrows a 32-bit site id (e.g. codegen's NoAllocSite) to the header
  /// field: anything that does not fit reads as unattributed.
  static uint32_t clampSite(uint32_t Site) {
    return Site >= NoSiteHdr ? NoSiteHdr : Site;
  }

  /// \p NurseryBytes is the size of *each* nursery half; 0 selects a
  /// default proportional to the semispace size.  Ignored unless
  /// \p Generational.  Under \p P.NurseryAuto the resolved value becomes
  /// the auto-sizing floor.
  /// Throws HeapReserveError when the page mapping cannot be reserved
  /// even with the growth cap at the initial semispace size.
  Heap(size_t SemispaceBytes, const std::vector<ir::TypeDesc> &Descs,
       bool Generational = false, size_t NurseryBytes = 0,
       HeapPolicy P = HeapPolicy());
  ~Heap();
  Heap(const Heap &) = delete;
  Heap &operator=(const Heap &) = delete;

  bool generational() const { return Gen; }
  const HeapPolicy &policy() const { return Policy; }

  /// Exact bytes an allocation of descriptor \p DescIdx (\p Length
  /// elements for open arrays) needs, header included, or BadAlloc when
  /// the computation overflows size_t.
  size_t allocationBytes(unsigned DescIdx, int64_t Length) const;

  /// Largest single object this heap can ever hold; requests above it can
  /// never succeed, no matter how much is collected *or how much the heap
  /// grows* — under a growth policy the bound is the cap, so the oversize
  /// diagnostic stays deterministic under every policy.
  size_t maxObjectBytes() const {
    size_t Cap = Policy.GrowthPct ? Policy.MaxBytes : SpaceBytes;
    if (!Gen)
      return Cap;
    // The old-space reserve at full growth: the fixed half size, or the
    // auto-sizing cap relative to the capped semispace.
    size_t Reserve = Policy.NurseryAuto ? nurseryAutoCapBytes(Cap)
                                        : nurseryReserveBytes();
    return Cap - Reserve;
  }

  /// Arms one demand doubling for the next full collection (the VM's
  /// allocation-retry escalation).  False when the policy forbids growth
  /// or the semispace is already at its cap.
  bool requestGrowth() {
    if (!Policy.GrowthPct || SpaceBytes >= Policy.MaxBytes)
      return false;
    GrowRequested = true;
    return true;
  }

  /// Bump-allocates an object of descriptor \p DescIdx (\p Length elements
  /// for open arrays).  Returns 0 when the allocation space (nursery in
  /// generational mode, from-space otherwise) is exhausted or the size
  /// computation overflows — the caller must collect and retry.  Payload
  /// words are zeroed (all-NIL).  \p Site is stamped into the header (the
  /// snapshot/profiling attribution; NoSiteHdr = unattributed).
  Word allocate(unsigned DescIdx, int64_t Length, uint32_t Site = NoSiteHdr);

  /// Generational mode: allocates directly in old space (objects too large
  /// for the nursery).  Returns 0 when old space is exhausted.
  Word allocateOld(unsigned DescIdx, int64_t Length,
                   uint32_t Site = NoSiteHdr);

  /// Total words of an object, header included.  Asserts an unforwarded
  /// header with an in-range descriptor, and that an open array's length
  /// round-trips its allocation size.
  size_t objectWords(Word Obj) const {
    const Word *P = reinterpret_cast<const Word *>(Obj);
    const ScanPlan &S = planOf(P[0]);
    return S.isArray() ? arrayWords(S, P[1]) : S.FixedWords;
  }

  /// Calls \p Fn(Word &Field) on every non-NIL pointer field of the object
  /// at \p Obj (the fixed fields, then each open-array element's) and
  /// returns the object's total words, header included.  The one field
  /// walk shared by the Cheney scans, the cross-checks, the conservative
  /// baseline, and heap snapshots.  Asserts an unforwarded header with an
  /// in-range descriptor.
  template <typename FnT>
  [[gnu::always_inline]] size_t forEachPointerField(Word Obj, FnT Fn) const {
    Word *P = reinterpret_cast<Word *>(Obj);
    return walkFields(planOf(P[0]), PlanOffsets.data(), P, Fn);
  }

  /// The scan plan of descriptor \p DescIdx (tests compare it against
  /// the descriptor it was built from).
  const ScanPlan &plan(size_t DescIdx) const { return Plans[DescIdx]; }

  //===--- Generational queries --------------------------------------------===

  /// The active (allocation) nursery half.
  bool inNursery(Word P) const {
    return Gen && P >= NurFromBase && P < NurFromBase + NurFromHalfBytes;
  }
  /// The survivor half filled during a minor collection.
  bool inNurseryTo(Word P) const {
    return Gen && P >= NurToBase && P < NurToBase + NurToHalfBytes;
  }
  /// The allocated portion of old space.
  bool inOld(Word P) const {
    return Gen && P >= FromBase && P < AllocPtr;
  }

  /// Space base addresses, for address→(space, offset) normalization in
  /// heap snapshots (offsets are deterministic across runs; addresses are
  /// not).
  Word fromSpaceBase() const { return FromBase; }
  Word nurseryBase() const { return NurFromBase; }

  size_t usedBytes() const {
    size_t Used = AllocPtr - FromBase;
    if (Gen)
      Used += NurAlloc - NurFromBase;
    return Used;
  }
  size_t capacityBytes() const { return SpaceBytes; }
  size_t nurseryCapacityBytes() const { return NurFromHalfBytes; }

  /// The old-space reserve: room for a full nursery of promotions.  With
  /// auto-sizing the halves can differ transiently; the reserve covers the
  /// larger one.
  size_t nurseryReserveBytes() const {
    return NurFromHalfBytes > NurToHalfBytes ? NurFromHalfBytes
                                             : NurToHalfBytes;
  }
  /// The largest half size nursery auto-sizing may reach over a semispace
  /// of \p Cap bytes (the floor when a quarter semispace is below it).
  size_t nurseryAutoCapBytes(size_t Cap) const {
    size_t Quarter = (Cap / 4) & ~size_t(7);
    return Quarter > NurFloorBytes ? Quarter : NurFloorBytes;
  }

  /// Whether a minor collection is guaranteed room both to promote every
  /// surviving nursery object into old space (worst case: all of them)
  /// and to fit them all in the survivor half.
  bool minorHeadroomOk() const {
    size_t NurUsed = NurAlloc - NurFromBase;
    return (AllocPtr - FromBase) + NurUsed <=
               SpaceBytes - nurseryReserveBytes() &&
           NurUsed <= NurToHalfBytes;
  }

  //===--- Write barrier / remembered set ----------------------------------===

  /// The compiler-emitted barrier: records \p SlotAddr in the remembered
  /// set when it is an old-space slot now holding a nursery pointer.
  /// Returns true when a new entry was recorded.
  bool writeBarrier(Word SlotAddr) {
    if (!inOld(SlotAddr))
      return false;
    Word V = *reinterpret_cast<const Word *>(SlotAddr);
    if (!inNursery(V))
      return false;
    return remember(SlotAddr);
  }
  /// Appends old-space slot \p SlotAddr to the remembered set unless its
  /// bit says it is there already; returns whether it was appended.  A
  /// minor collection also records promoted objects' young fields here.
  bool remember(Word SlotAddr) {
    assert(SlotAddr % sizeof(Word) == 0 && "unaligned remembered slot");
    size_t W = (SlotAddr - FromBase) / sizeof(Word);
    uint64_t Bit = uint64_t(1) << (W % 64);
    if (RemBits[W / 64] & Bit)
      return false;
    RemBits[W / 64] |= Bit;
    RemSet.push_back(SlotAddr);
    return true;
  }

  /// The remembered slots, in the order they were first recorded.
  const std::vector<Word> &remSet() const { return RemSet; }
  /// Ends a minor collection's remembered-set work, before the nursery
  /// halves swap: keeps the entries whose slot now points into the
  /// survivor half, in order, and drops the rest.
  void rebuildRemSet();

  uint64_t ObjectsPromoted = 0;
  uint64_t BytesPromoted = 0;
  /// Semispace doublings performed (growth policy).
  uint64_t HeapGrowths = 0;
  /// Nursery half resizes performed (auto-sizing policy).
  uint64_t NurseryResizes = 0;

  //===--- Full-collection (Cheney) interface ------------------------------===

  /// Begins a full collection: resets the to-space allocation pointer,
  /// first growing the to-space when the sizing policy triggers (occupancy
  /// above GrowthPct, or an armed demand growth).
  void beginCollection();
  /// The full-collection kernel: forwards every non-NIL root in order,
  /// then Cheney-scans to-space until it holds every reachable object, in
  /// the order roots, then breadth first, fixed fields before elements.
  /// In generational mode the sources are old from-space and the nursery;
  /// everything lands in old to-space.  Each copied object's bytes go to
  /// \p Tally's LiveBytes, and an object copied at age 0, surviving its
  /// first collection, goes to FirstCopies, except in generational mode an
  /// old-space one: it was allocated there directly and never counts.
  /// Returns the number of objects copied.
  uint64_t evacuate(Word *const *Roots, size_t NumRoots,
                    const SiteTally &Tally);
  /// The used range of to-space after evacuate().
  Word scanStart() const { return ToBase; }
  Word toAlloc() const { return ToAlloc; }
  /// Ends a full collection: swaps the old spaces; generational mode also
  /// empties the nursery and clears the remembered set.
  void endCollection();

  //===--- Minor-collection interface (generational mode) ------------------===

  /// Begins a minor collection: resets the survivor half's bump pointer
  /// and records where promoted objects will start in old space.  Objects
  /// copied at age 0 are added to \p Tally's FirstCopies.
  void beginMinorCollection(const SiteTally &Tally) {
    NurToAlloc = NurToBase;
    MinorOldScanStart = AllocPtr;
    MinorTally = Tally;
  }
  /// Copies nursery object \p Obj into the survivor half — or into old
  /// space once it has survived PromoteAge minor collections — and leaves
  /// a forwarding pointer.  Asserts headroom: callers must check
  /// minorHeadroomOk() before starting a minor collection.
  Word forwardYoung(Word Obj);
  /// Survivor-half scan pointers.
  Word nurScanStart() const { return NurToBase; }
  Word nurToAlloc() const { return NurToAlloc; }
  /// Promoted-region scan pointers (grows during the minor scan).
  Word oldScanStart() const { return MinorOldScanStart; }
  Word oldAllocPtr() const { return AllocPtr; }
  /// Ends a minor collection: swaps the nursery halves.
  void endMinorCollection();

  /// Whether \p P looks like a valid object pointer (used by assertions
  /// and the conservative baseline collector).
  bool plausibleObject(Word P) const;

  /// Number of allocation sites in the running program, for the header
  /// site-field plausibility check (a valid header's site is either
  /// NoSiteHdr or below this).  The VM sets it from the program's site
  /// table at construction.
  void setSiteCount(uint32_t N) { SiteCount = N; }

  /// Applies \p Fn to the tidy pointer of every allocated object, in
  /// address order: the old/from space first, then (generational mode) the
  /// active nursery half.  Callers own the liveness caveat: between
  /// collections these regions also hold objects that have died since the
  /// last collection swept their space.  Must not run mid-collection
  /// (headers would carry forwarding overlays).
  template <typename FnT> void forEachObject(FnT Fn) const {
    for (Word P = FromBase; P < AllocPtr; P += objectWords(P) * sizeof(Word))
      Fn(P);
    if (Gen)
      for (Word P = NurFromBase; P < NurAlloc;
           P += objectWords(P) * sizeof(Word))
        Fn(P);
  }

  uint64_t BytesAllocated = 0;
  uint64_t ObjectsAllocated = 0;

private:
  const ScanPlan &planOf(Word Header) const {
    assert(!(Header & ForwardBit) && "reading the plan of a forwarded object");
    size_t Idx = headerDesc(Header);
    assert(Idx < Plans.size() && "corrupt object header");
    return Plans[Idx];
  }
  /// Total words of an open array of \p Len elements; asserts the length
  /// round-trips its allocation size.
  static size_t arrayWords(const ScanPlan &S, Word Len) {
    assert(static_cast<int64_t>(Len) >= 0 && "corrupt open-array length");
    size_t Words;
    bool Overflow = __builtin_mul_overflow(Len, S.Stride, &Words) ||
                    __builtin_add_overflow(Words, S.FixedWords, &Words);
    assert(!Overflow && "open-array length does not round-trip");
    (void)Overflow;
    return Words;
  }

  /// forEachPointerField's walk over the object at \p P with plan \p S,
  /// whose offsets index \p Offsets.  Static, so the collection kernel can
  /// run it on plan and offset tables it holds in registers.
  template <typename FnT>
  [[gnu::always_inline]] static size_t
  walkFields(const ScanPlan &S, const uint32_t *Offsets, Word *P, FnT &Fn) {
    const uint32_t *Off = Offsets + S.Ptrs;
    for (uint32_t I = 0; I != S.NumPtrs; ++I)
      if (P[Off[I]] != 0)
        Fn(P[Off[I]]);
    if (!S.isArray())
      return S.FixedWords;
    size_t Len = static_cast<size_t>(P[1]);
    Word *Elem = P + 2;
    if (S.K == ScanPlan::PtrArray) {
      for (size_t E = 0; E != Len; ++E)
        if (Elem[E] != 0)
          Fn(Elem[E]);
    } else if (S.K == ScanPlan::GeneralArray) {
      const uint32_t *EOff = Offsets + S.ElemPtrs;
      for (size_t E = 0; E != Len; ++E, Elem += S.Stride)
        for (uint32_t I = 0; I != S.NumElemPtrs; ++I)
          if (Elem[EOff[I]] != 0)
            Fn(Elem[EOff[I]]);
    }
    return S.FixedWords + Len * S.Stride;
  }

  Word bumpAllocate(Word &Bump, Word Limit, unsigned DescIdx, int64_t Length,
                    uint32_t Site);

  /// Clears \p Slot's remembered-set bit.
  void forget(Word Slot) {
    size_t W = (Slot - FromBase) / sizeof(Word);
    RemBits[W / 64] &= ~(uint64_t(1) << (W % 64));
  }

  /// Auto-sizing controller: retargets the (empty) idle nursery half from
  /// the survivor volume of the minor collection that just ended.
  void resizeIdleNurseryHalf();

  size_t SpaceBytes;       ///< From-space size (grows under the policy).
  size_t ToSpaceBytes = 0; ///< To-space size (== SpaceBytes outside growth).
  HeapPolicy Policy;
  bool GrowRequested = false; ///< Demand growth armed (requestGrowth).
  uint32_t SiteCount = 0;
  bool Gen;
  size_t NurFromHalfBytes = 0; ///< Active nursery half size.
  size_t NurToHalfBytes = 0;   ///< Survivor nursery half size.
  size_t NurFloorBytes = 0;    ///< Auto-sizing floor (resolved ctor size).
  /// The page mapping that holds every space, and its size.
  uint8_t *Mapping = nullptr;
  size_t MappingBytes = 0;
  Word FromBase, ToBase;
  Word AllocPtr; ///< Bump pointer in old from-space.
  Word ToAlloc;  ///< Bump pointer in old to-space during collection.
  /// Old-space allocation limit: in generational mode the last nursery's
  /// worth of old space is reserved so a full collection's to-space copy
  /// (old live + nursery live) always fits.
  Word OldLimit;
  Word NurFromBase = 0, NurToBase = 0;
  Word NurAlloc = 0;   ///< Bump pointer in the active nursery half.
  Word NurToAlloc = 0; ///< Bump pointer in the survivor half (minor gc).
  Word MinorOldScanStart = 0;
  SiteTally MinorTally; ///< The running minor collection's tally.
  /// Old-space slot addresses that may hold nursery pointers, each once, in
  /// the order first recorded.  Slots are stable between full collections
  /// (old objects only move then), which is what makes raw addresses a
  /// sound representation.  The vector keeps its capacity across
  /// collections.
  std::vector<Word> RemSet;
  /// One bit per from-space word: set iff the word's address is in RemSet.
  uint64_t *RemBits = nullptr;
  /// Indexed by descriptor; the offsets of every plan in one array.
  std::vector<ScanPlan> Plans;
  std::vector<uint32_t> PlanOffsets;
};

} // namespace vm
} // namespace mgc

#endif // MGC_VM_HEAP_H
