//===- vm/Heap.cpp --------------------------------------------------------===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//

#include "vm/Heap.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <mutex>
#include <string>
#include <utility>

#include <sys/mman.h>

using namespace mgc;
using namespace mgc::vm;

namespace {
/// Objects up to this many words are copied word by word, larger ones
/// with memcpy.
constexpr size_t SmallCopyWords = 8;

Word headerOf(Word Obj) { return *reinterpret_cast<Word *>(Obj); }
void setHeader(Word Obj, Word H) { *reinterpret_cast<Word *>(Obj) = H; }

/// a * b, or SIZE_MAX on overflow.
size_t mulChecked(size_t A, size_t B) {
  size_t R;
  if (__builtin_mul_overflow(A, B, &R))
    return Heap::BadAlloc;
  return R;
}

/// a + b, or SIZE_MAX on overflow.
size_t addChecked(size_t A, size_t B) {
  size_t R;
  if (__builtin_add_overflow(A, B, &R))
    return Heap::BadAlloc;
  return R;
}

/// \p Bytes rounded up to whole pages, or SIZE_MAX on overflow.
size_t pageRound(size_t Bytes) {
  constexpr size_t Page = 4096;
  size_t R = addChecked(Bytes, Page - 1);
  return R == Heap::BadAlloc ? R : R & ~(Page - 1);
}

/// The mapping of the last heap destroyed, kept for the next heap it fits:
/// the next heap then reuses pages already faulted in, instead of taking
/// first-touch faults inside its first pauses.
std::mutex SpareLock;
uint8_t *SpareMapping = nullptr;
size_t SpareBytes = 0;

/// A mapping of at least \p Bytes: the spare when it fits, else a fresh
/// one; null when it cannot be reserved.  \p Bytes is set to the size
/// taken.  MAP_NORESERVE: the spaces are sized to their caps, and only the
/// pages a run touches are ever backed.
uint8_t *takeMapping(size_t &Bytes, bool &Reused) {
  {
    std::lock_guard<std::mutex> G(SpareLock);
    if (SpareMapping && SpareBytes >= Bytes) {
      Reused = true;
      Bytes = SpareBytes;
      return std::exchange(SpareMapping, nullptr);
    }
  }
  Reused = false;
  void *P = mmap(nullptr, Bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  return P == MAP_FAILED ? nullptr : static_cast<uint8_t *>(P);
}

/// Keeps the larger of \p Base and the spare as the spare and unmaps the
/// other.
void returnMapping(uint8_t *Base, size_t Bytes) {
  {
    std::lock_guard<std::mutex> G(SpareLock);
    if (!SpareMapping || Bytes > SpareBytes) {
      std::swap(Base, SpareMapping);
      std::swap(Bytes, SpareBytes);
    }
  }
  if (Base)
    munmap(Base, Bytes);
}
} // namespace

Heap::Heap(size_t SemispaceBytes, const std::vector<ir::TypeDesc> &Descs,
           bool Generational, size_t NurseryBytes, HeapPolicy P)
    : SpaceBytes((SemispaceBytes + 7) & ~size_t(7)), Policy(P),
      Gen(Generational) {
  assert(Descs.size() <= DescMask + 1 &&
         "type descriptor index overflows the header field");
  // Flatten every descriptor into its scan plan.  The plans are built here
  // rather than by the compiler so that every heap, however its program
  // was compiled or loaded, walks objects through the same table.
  Plans.reserve(Descs.size());
  for (const ir::TypeDesc &D : Descs) {
    ScanPlan S;
    S.FixedWords = 1 + D.SizeWords;
    S.Ptrs = static_cast<uint32_t>(PlanOffsets.size());
    S.NumPtrs = static_cast<uint32_t>(D.PtrOffsets.size());
    for (unsigned Off : D.PtrOffsets)
      PlanOffsets.push_back(1 + Off);
    S.ElemPtrs = static_cast<uint32_t>(PlanOffsets.size());
    S.NumElemPtrs = static_cast<uint32_t>(D.ElemPtrOffsets.size());
    PlanOffsets.insert(PlanOffsets.end(), D.ElemPtrOffsets.begin(),
                       D.ElemPtrOffsets.end());
    if (D.IsOpenArray) {
      // Elements start after the header and the length word.
      assert(D.SizeWords == 1 && D.PtrOffsets.empty() &&
             "an open array's fixed part is its length word");
      S.Stride = D.ElemSizeWords;
      if (D.ElemPtrOffsets.empty())
        S.K = ScanPlan::ScalarArray;
      else if (D.ElemSizeWords == 1)
        S.K = ScanPlan::PtrArray;
      else
        S.K = ScanPlan::GeneralArray;
    } else {
      S.K = D.PtrOffsets.empty() ? ScanPlan::PtrFreeRecord : ScanPlan::Record;
    }
    Plans.push_back(S);
  }
  // Resolve the growth cap once so maxObjectBytes() is a run constant:
  // default 8x the initial semispace, never below it, 8-aligned.  Without
  // a growth trigger the cap is pinned to the (fixed) semispace size.
  if (Policy.GrowthPct) {
    if (Policy.MaxBytes == 0)
      Policy.MaxBytes = SpaceBytes * 8;
    Policy.MaxBytes &= ~size_t(7);
    if (Policy.MaxBytes < SpaceBytes)
      Policy.MaxBytes = SpaceBytes;
  } else {
    Policy.MaxBytes = SpaceBytes;
  }
  ToSpaceBytes = SpaceBytes;
  if (Gen) {
    // Each nursery half defaults to an eighth of a semispace, and is
    // clamped so old space keeps room to absorb a full nursery of
    // promotions (maxObjectBytes stays positive).  Auto-sizing treats the
    // resolved value as its floor.
    size_t Half = NurseryBytes ? NurseryBytes : SpaceBytes / 8;
    Half = (Half + 7) & ~size_t(7);
    if (Half < 512)
      Half = 512;
    if (Half > SpaceBytes / 2)
      Half = (SpaceBytes / 2) & ~size_t(7);
    NurFromHalfBytes = NurToHalfBytes = NurFloorBytes = Half;
  }

  // The mapping's layout, each range page-aligned: two semispaces at the
  // growth cap, two nursery halves at the auto-sizing cap, then one
  // remembered-set bit per word of a capped semispace.  A cap the address
  // space cannot hold is halved, never below the initial semispace, until
  // the mapping fits; growth past the reduced cap is then out of memory.
  size_t Semi = 0, Half = 0, Bits = 0, Bytes = 0;
  bool Reused = false;
  for (;;) {
    Semi = pageRound(Policy.MaxBytes);
    Half = Bits = 0;
    if (Gen) {
      Half = pageRound(Policy.NurseryAuto
                           ? nurseryAutoCapBytes(Policy.MaxBytes)
                           : NurFloorBytes);
      Bits = pageRound(Policy.MaxBytes / 64 + sizeof(uint64_t));
    }
    Bytes = addChecked(addChecked(mulChecked(Semi, 2), mulChecked(Half, 2)),
                       Bits);
    Mapping = takeMapping(Bytes, Reused);
    if (Mapping)
      break;
    if (Policy.MaxBytes == SpaceBytes)
      throw HeapReserveError("cannot reserve " + std::to_string(Bytes) +
                             " bytes for the heap");
    Policy.MaxBytes = std::max(SpaceBytes, (Policy.MaxBytes / 2) & ~size_t(7));
  }
  MappingBytes = Bytes;
  FromBase = reinterpret_cast<Word>(Mapping);
  ToBase = FromBase + Semi;
  AllocPtr = FromBase;
  ToAlloc = ToBase;
  OldLimit = FromBase + SpaceBytes;
  if (Gen) {
    NurFromBase = ToBase + Semi;
    NurToBase = NurFromBase + Half;
    NurAlloc = NurFromBase;
    NurToAlloc = NurToBase;
    OldLimit = FromBase + SpaceBytes - NurFromHalfBytes;
    RemBits = reinterpret_cast<uint64_t *>(NurToBase + Half);
    // A reused mapping may hold an earlier heap's words where the bits go.
    if (Reused)
      std::memset(RemBits, 0, Bits);
  }
}

Heap::~Heap() { returnMapping(Mapping, MappingBytes); }

size_t Heap::allocationBytes(unsigned DescIdx, int64_t Length) const {
  assert(DescIdx < Plans.size());
  const ScanPlan &S = Plans[DescIdx];
  size_t Words = S.FixedWords;
  if (S.isArray()) {
    if (Length < 0)
      return BadAlloc;
    size_t Elems = mulChecked(static_cast<size_t>(Length), S.Stride);
    Words = addChecked(Words, Elems);
  }
  return mulChecked(Words, sizeof(Word));
}

Word Heap::bumpAllocate(Word &Bump, Word Limit, unsigned DescIdx,
                        int64_t Length, uint32_t Site) {
  size_t Bytes = allocationBytes(DescIdx, Length);
  // Overflowed or oversized requests fail like an exhausted space; the VM
  // reports them deterministically before ever retrying.  (Bump can sit
  // past Limit after a full collection that overran the old-space reserve,
  // so the comparison must not rely on Limit - Bump.)
  if (Bytes == BadAlloc || Bump > Limit || Bytes > Limit - Bump)
    return 0;
  Word Obj = Bump;
  Bump += Bytes;
  std::memset(reinterpret_cast<void *>(Obj), 0, Bytes);
  setHeader(Obj, makeHeader(DescIdx, 0, Site));
  if (Plans[DescIdx].isArray())
    reinterpret_cast<Word *>(Obj)[1] = static_cast<Word>(Length);
  BytesAllocated += Bytes;
  ++ObjectsAllocated;
  return Obj;
}

Word Heap::allocate(unsigned DescIdx, int64_t Length, uint32_t Site) {
  assert(DescIdx < Plans.size());
  if (Gen) {
    // Invariant: old-used + nursery-used never exceeds a semispace, so a
    // full collection's to-space copy always fits.  The nursery limit
    // shrinks when old space has overrun its reserve.
    size_t Used = (AllocPtr - FromBase) + (NurAlloc - NurFromBase);
    size_t Budget = Used < SpaceBytes ? SpaceBytes - Used : 0;
    Word Limit = NurAlloc + Budget;
    if (Limit > NurFromBase + NurFromHalfBytes)
      Limit = NurFromBase + NurFromHalfBytes;
    return bumpAllocate(NurAlloc, Limit, DescIdx, Length, Site);
  }
  return bumpAllocate(AllocPtr, FromBase + SpaceBytes, DescIdx, Length, Site);
}

Word Heap::allocateOld(unsigned DescIdx, int64_t Length, uint32_t Site) {
  assert(Gen && "allocateOld is a generational-mode path");
  assert(DescIdx < Plans.size());
  return bumpAllocate(AllocPtr, OldLimit, DescIdx, Length, Site);
}

uint64_t Heap::evacuate(Word *const *Roots, size_t NumRoots,
                        const SiteTally &Tally) {
  // The spaces, the bump pointer and the object count live in locals, so
  // the loops below keep them in registers.
  const Word FromLo = FromBase, NurLo = NurFromBase, ToLo = ToBase;
  const size_t FromBytes = SpaceBytes, ToBytes = ToSpaceBytes;
  const size_t NurBytes = Gen ? NurFromHalfBytes : 0;
  // The space whose age-0 objects are surviving their first collection:
  // in generational mode the nursery.  An age-0 object in old from-space
  // was allocated there directly, never entered the young generation, and
  // does not count.
  const Word YoungLo = Gen ? NurLo : FromLo;
  const size_t YoungBytes = Gen ? NurBytes : FromBytes;
  uint64_t *const FirstCopies = Tally.FirstCopies;
  uint64_t *const LiveBytes = Tally.LiveBytes;
  const size_t NumSites = Tally.Sites;
  const ScanPlan *const PlanTab = Plans.data();
  const uint32_t *const OffTab = PlanOffsets.data();
  const size_t NumPlans = Plans.size();
  Word Alloc = ToAlloc;
  uint64_t Objects = 0;

  // Copies the object at \p Obj to to-space, or returns where it went.
  // Each object is sized once, from its plan; small ones are copied word
  // by word.  always_inline: GCC otherwise keeps the lambda out of line,
  // which costs a call and spills Alloc on every pointer field.
  auto Forward = [&](Word Obj) __attribute__((always_inline)) -> Word {
    assert((Obj - FromLo < FromBytes || Obj - NurLo < NurBytes) &&
           "forwarding a non-heap pointer");
    Word *Src = reinterpret_cast<Word *>(Obj);
    Word H = Src[0];
    if (H & ForwardBit)
      return H & ~ForwardBit;
    size_t Idx = headerDesc(H);
    assert(Idx < NumPlans && "corrupt object header");
    (void)NumPlans;
    const ScanPlan &S = PlanTab[Idx];
    size_t Words = S.isArray() ? arrayWords(S, Src[1]) : S.FixedWords;
    assert(Words <= (ToLo + ToBytes - Alloc) / sizeof(Word) &&
           "to-space overflow during collection");
    Word *Dst = reinterpret_cast<Word *>(Alloc);
    Alloc += Words * sizeof(Word);
    if (FirstCopies && headerAge(H) == 0 && Obj - YoungLo < YoungBytes &&
        headerSite(H) < NumSites) {
      FirstCopies[2 * headerSite(H)] += 1;
      FirstCopies[2 * headerSite(H) + 1] += Words * sizeof(Word);
    }
    // The header (site, descriptor, age) rides the copy; the age bump is
    // the whole of attribution maintenance.  Ages are monotonic across the
    // object's lifetime — the promotion policy only ever consults nursery
    // objects, whose ages restart at 0 on allocation.
    Dst[0] = agedHeader(H);
    if (Words <= SmallCopyWords) {
      for (size_t I = 1; I < Words; ++I)
        Dst[I] = Src[I];
    } else {
      std::memcpy(Dst + 1, Src + 1, (Words - 1) * sizeof(Word));
    }
    Src[0] = reinterpret_cast<Word>(Dst) | ForwardBit;
    return reinterpret_cast<Word>(Dst);
  };

  for (size_t I = 0; I != NumRoots; ++I) {
    Word V = *Roots[I];
    // The same word can be described twice (e.g. an outgoing argument slot
    // by the caller's FP entry and the callee's AP entry); a second visit
    // sees the already-updated pointer.
    if (V == 0 || V - ToLo < ToBytes)
      continue;
    assert((V - FromLo < FromBytes || V - NurLo < NurBytes) &&
           "tidy root does not point into the heap (stale table or "
           "liveness bug)");
    *Roots[I] = Forward(V);
  }

  auto ForwardField = [&](Word &Field) __attribute__((always_inline)) {
    Field = Forward(Field);
  };
  for (Word Scan = ToLo; Scan < Alloc;) {
    ++Objects;
    // To-space headers were checked when their objects were copied.
    Word *P = reinterpret_cast<Word *>(Scan);
    Word H = P[0];
    size_t Words = walkFields(PlanTab[headerDesc(H)], OffTab, P, ForwardField);
    if (LiveBytes && headerSite(H) < NumSites)
      LiveBytes[headerSite(H)] += Words * sizeof(Word);
    Scan += Words * sizeof(Word);
  }
  ToAlloc = Alloc;
  return Objects;
}

void Heap::beginCollection() {
  // Growth decision, made before the copy so the Cheney invariant
  // (live <= to-space) is preserved by construction: double the to-space
  // when occupancy crossed the trigger or a demand growth is armed.
  // Growth-only — the semispaces never shrink below what is live, because
  // the target is always >= the current size.
  size_t Target = SpaceBytes;
  if (Policy.GrowthPct && SpaceBytes < Policy.MaxBytes &&
      (GrowRequested || static_cast<uint64_t>(usedBytes()) * 100 >=
                            static_cast<uint64_t>(SpaceBytes) *
                                Policy.GrowthPct)) {
    Target = SpaceBytes * 2;
    if (Target > Policy.MaxBytes)
      Target = Policy.MaxBytes;
    ++HeapGrowths;
  }
  GrowRequested = false;
  ToSpaceBytes = Target; // Both semispaces are mapped at the cap.
  ToAlloc = ToBase;
}

void Heap::endCollection() {
  if (Gen) {
    // Everything is old now.  The bits index from-space, so they are
    // cleared before the swap.
    for (Word Slot : RemSet)
      forget(Slot);
    RemSet.clear();
    NurAlloc = NurFromBase; // The nursery was fully evacuated.
  }
  std::swap(FromBase, ToBase);
  // The pair stays symmetric: the idle semispace must be able to absorb a
  // full copy of the (possibly grown) from-space at the next collection.
  SpaceBytes = ToSpaceBytes;
  AllocPtr = ToAlloc;
  ToAlloc = ToBase;
  OldLimit = Gen ? FromBase + SpaceBytes - nurseryReserveBytes()
                 : FromBase + SpaceBytes;
}

Word Heap::forwardYoung(Word Obj) {
  assert(inNursery(Obj) && "minor collection forwarding a non-nursery object");
  Word H = headerOf(Obj);
  if (H & ForwardBit)
    return H & ~ForwardBit;
  size_t Bytes = objectWords(Obj) * sizeof(Word);
  unsigned Age = headerAge(H) + 1;
  uint32_t Site = headerSite(H);
  if (Age == 1 && MinorTally.FirstCopies && Site < MinorTally.Sites) {
    MinorTally.FirstCopies[2 * Site] += 1;
    MinorTally.FirstCopies[2 * Site + 1] += Bytes;
  }
  Word New;
  if (Age >= PromoteAge) {
    New = AllocPtr;
    assert(New + Bytes <= OldLimit &&
           "promotion overflow: minor collection started without headroom");
    AllocPtr += Bytes;
    ++ObjectsPromoted;
    BytesPromoted += Bytes;
  } else {
    New = NurToAlloc;
    assert(New + Bytes <= NurToBase + NurToHalfBytes &&
           "survivor-half overflow during minor collection");
    NurToAlloc += Bytes;
  }
  std::memcpy(reinterpret_cast<void *>(New),
              reinterpret_cast<const void *>(Obj), Bytes);
  // Ages are never reset on promotion: they keep counting evacuations for
  // the snapshot age attribution, and promoted objects (age >= PromoteAge,
  // now in old space) are out of forwardYoung's reach for good.
  setHeader(New, agedHeader(H));
  setHeader(Obj, New | ForwardBit);
  return New;
}

void Heap::rebuildRemSet() {
  size_t Kept = 0;
  for (Word Slot : RemSet) {
    if (inNurseryTo(*reinterpret_cast<const Word *>(Slot)))
      RemSet[Kept++] = Slot;
    else
      forget(Slot);
  }
  RemSet.resize(Kept);
}

void Heap::endMinorCollection() {
  MinorTally = SiteTally();
  std::swap(NurFromBase, NurToBase);
  std::swap(NurFromHalfBytes, NurToHalfBytes);
  NurAlloc = NurToAlloc;
  NurToAlloc = NurToBase;
  if (Policy.NurseryAuto)
    resizeIdleNurseryHalf();
}

void Heap::resizeIdleNurseryHalf() {
  // Survivor-volume controller: grow when more than a quarter of the
  // active half survived the minor collection that just ended (promotion
  // pressure), shrink when less than a sixteenth did.  Only the idle
  // (empty) survivor half is resized; after the next swap the controller
  // sees the other half, so both converge within two minors.  The floor
  // is the configured --nursery-bytes size, the cap a quarter of the
  // current semispace.
  size_t Active = NurFromHalfBytes;
  size_t Survivors = NurAlloc - NurFromBase;
  size_t Target = Active;
  if (Survivors * 4 > Active)
    Target = Active * 2;
  else if (Survivors * 16 < Active)
    Target = Active / 2;
  Target = (Target + 7) & ~size_t(7);
  size_t Cap = nurseryAutoCapBytes(SpaceBytes);
  if (Target < NurFloorBytes)
    Target = NurFloorBytes;
  if (Target > Cap)
    Target = Cap;
  if (Target == NurToHalfBytes)
    return;
  NurToHalfBytes = Target; // Both halves are mapped at the cap.
  ++NurseryResizes;
  // The old-space reserve follows the larger half; AllocPtr may already
  // sit past a shrunken OldLimit, which bumpAllocate tolerates (the next
  // allocateOld simply fails into a full collection).
  OldLimit = FromBase + SpaceBytes - nurseryReserveBytes();
}

bool Heap::plausibleObject(Word P) const {
  bool InOldUsed = P >= FromBase && P < AllocPtr;
  bool InNurUsed = Gen && P >= NurFromBase && P < NurAlloc;
  if (!InOldUsed && !InNurUsed)
    return false;
  Word Base = InOldUsed ? FromBase : NurFromBase;
  if ((P - Base) % sizeof(Word) != 0)
    return false;
  Word H = headerOf(P);
  if (H & ForwardBit)
    return false;
  // The site field restores most of the entropy the desc-field mask gave
  // up: a random word only passes when both its descriptor index and its
  // site id are in range.
  uint32_t Site = headerSite(H);
  if (Site != NoSiteHdr && Site >= SiteCount)
    return false;
  return headerDesc(H) < Plans.size();
}
