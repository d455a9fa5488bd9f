//===- vm/VM.cpp ----------------------------------------------------------===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//
//
// The reference (switch-dispatch) interpreter.  Both engines execute the
// *pre-decoded* stream (vm/Threaded.h) through the one definition of each
// instruction in vm/Ops.def: step() switches on MOp into those bodies and
// accesses operands through the resolved base/index form, so the two
// tiers differ only in dispatch.  step() is also the single-step engine
// the rendezvous loop (§5.3) uses to run other threads forward to their
// gc-points, in both tiers.
//
//===----------------------------------------------------------------------===//

#include "vm/VM.h"

#include "obs/Profile.h"
#include "obs/Trace.h"
#include "support/IntOps.h"

#include <cassert>
#include <chrono>
#include <cinttypes>
#include <new>

#include <sys/mman.h>

using namespace mgc;
using namespace mgc::vm;

VM::VM(const Program &Prog, VMOptions Opts)
    : Prog(Prog), Opts(Opts),
      TheHeap(Opts.HeapBytes, Prog.TypeDescs, Opts.GenGc, Opts.NurseryBytes,
              HeapPolicy{Opts.HeapGrowthPct, Opts.HeapMaxBytes,
                         Opts.NurseryAuto}),
      Globals(Prog.GlobalAreaWords, 0), DProg(decodeProgram(Prog)) {
  TheHeap.setSiteCount(static_cast<uint32_t>(Prog.SiteTab.Sites.size()));
  installHandlers();
  spawnThread(Prog.MainFunc);
}

void StackUnmap::operator()(Word *Stack) const {
  munmap(Stack, Words * sizeof(Word));
}

void VM::spawnThread(unsigned FuncIdx) {
  assert(FuncIdx < Prog.Funcs.size());
  const CompiledFunction &F = Prog.Funcs[FuncIdx];
  assert(F.NumParams == 0 && "threads run parameterless procedures");
  auto T = std::make_unique<ThreadContext>();
  T->StackWords = Opts.StackWords;
  void *P = mmap(nullptr, T->StackWords * sizeof(Word), PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (P == MAP_FAILED)
    throw std::bad_alloc();
  T->Stack = std::unique_ptr<Word[], StackUnmap>(static_cast<Word *>(P),
                                                 StackUnmap{T->StackWords});
  // Only the root frame is poisoned here: Call poisons every frame it
  // pushes, and nothing reads above the top frame (the walkers follow the
  // frame chain; the conservative scan stops at FP + FrameWords).
  size_t Root = CtlWords + F.FrameWords;
  for (size_t I = 0; I != Root && I != T->StackWords; ++I)
    T->Stack[I] = FramePoison;
  // Pseudo control area for the root frame.
  T->Stack[0] = 0;             // saved AP
  T->Stack[1] = 0;             // saved FP
  T->Stack[2] = SentinelRetPC; // return address
  T->FP = CtlWords;
  T->AP = 0;
  T->PC = F.EntryIndex;
  // The root frame has no caller-provided save area; registers start dead.
  for (unsigned I = 0; I != NumRegs; ++I)
    T->R[I] = FramePoison;
  T->Live = true;
  Threads.push_back(std::move(T));
}

bool VM::fail(const std::string &Msg) {
  if (Error.empty())
    Error = Msg;
  return false;
}

Word VM::allocate(unsigned DescIdx, int64_t Length, uint32_t RetPC) {
  // Overflowing or over-capacity requests can never be satisfied by
  // collecting; fail deterministically instead of spinning the retry loop.
  size_t Bytes = TheHeap.allocationBytes(DescIdx, Length);
  if (Bytes == Heap::BadAlloc || Bytes > TheHeap.maxObjectBytes()) {
    std::string Size = Bytes == Heap::BadAlloc
                           ? "more than SIZE_MAX"
                           : std::to_string(Bytes);
    fail("out of memory: object of " + Size + " bytes exceeds heap capacity");
    return 0;
  }

  // Sampling profiler: charge the allocation to site + full stack (and
  // take any due mutator sample) before a collection this allocation may
  // trigger can run.  Both tiers reach here with Stats.Instrs synced, so
  // samples land at bit-identical instruction ordinals.
  if (__builtin_expect(Profiler != nullptr, 0))
    Profiler->onAlloc(*this, ctx(), RetPC, CurAllocSite, Bytes);

  if (Opts.GcStress) {
    if (!collect(RetPC, TheHeap.generational() && TheHeap.minorHeadroomOk()
                            ? GcKind::Minor
                            : GcKind::Full))
      return 0;
  }

  // The allocation instruction's site id rides in the object header from
  // birth (codegen's NoAllocSite narrows to the header's NoSiteHdr), where
  // every subsequent copy preserves it — heap snapshots and live-by-site
  // stats read attribution straight off the heap, tracer or not.
  uint32_t HdrSite = Heap::clampSite(CurAllocSite);

  // Generational mode puts objects too large for the nursery straight into
  // old space; everything else bump-allocates in the nursery (or the
  // semispace), escalating exhaustion to a minor collection when the
  // nursery has headroom and only then to a full one.
  const bool Old =
      TheHeap.generational() && Bytes > TheHeap.nurseryCapacityBytes();
  auto TryAllocate = [&] {
    return Old ? TheHeap.allocateOld(DescIdx, Length, HdrSite)
               : TheHeap.allocate(DescIdx, Length, HdrSite);
  };
  Word Obj = TryAllocate();
  if (Obj == 0 && !Old && TheHeap.generational() &&
      TheHeap.minorHeadroomOk()) {
    if (!collect(RetPC, GcKind::Minor))
      return 0;
    Obj = TryAllocate();
  }
  if (Obj == 0) {
    // A full collection and a retry; under a growth policy, each further
    // full collection doubles the semispace until the request fits or the
    // cap is reached.
    do {
      if (!collect(RetPC, GcKind::Full))
        return 0;
      Obj = TryAllocate();
    } while (Obj == 0 && TheHeap.requestGrowth());
    if (Obj == 0) {
      fail("heap exhausted: " + std::to_string(TheHeap.usedBytes()) +
           " bytes live of " + std::to_string(TheHeap.capacityBytes()));
      return 0;
    }
  }

  // Observability: one predicted branch when no tracer is attached.
  if (Tracer)
    Tracer->recordAlloc(CurAllocSite, Bytes);
  return Obj;
}

bool VM::collect(uint32_t TriggerRetPC, GcKind Kind) {
  if (!Collector)
    return fail("allocation failed and no collector is installed");
  assert(!InCollect && "recursive collection");
  InCollect = true;
  RequestedGc = Kind;
  if (TheHeap.remSet().size() > Stats.RemSetPeak)
    Stats.RemSetPeak = TheHeap.remSet().size();

  using Clock = std::chrono::steady_clock;
  bool Tracing = Tracer && Tracer->enabled();
  // Rendezvous is timed in every run, not just traced ones: per-request GC
  // attribution (ReqDone markers) charges rendezvous + collection nanos to
  // the current request window using exactly the value a tracer event
  // would carry in TotalNanos.
  Clock::time_point RendT0 = Clock::now();
  uint64_t RendStepsBefore = Stats.RendezvousSteps;

  // Rendezvous (§5.3): a handshake per live thread, each stepping its
  // thread independently until it is about to execute a gc-point
  // instruction; its table pc is that instruction's return address.  Loop
  // polls bound each handshake.  On any failure the suspension map is
  // discarded whole — a failed rendezvous must not leave the VM looking
  // half-suspended (partial SuspendPCs would let a later walk scan threads
  // stopped at stale pcs).
  SuspendPCs.assign(Threads.size(), 0);
  SuspendPCs[CurThread] = TriggerRetPC;
  for (size_t TI = 0; TI != Threads.size(); ++TI) {
    if (TI == CurThread || !Threads[TI]->Live)
      continue;
    if (!handshakeThread(TI)) {
      SuspendPCs.clear();
      InCollect = false;
      return false;
    }
  }

  ++Stats.Collections;
  uint64_t RendNanos = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           RendT0)
          .count());
  uint64_t GcNanosBefore = Stats.GcNanos;
  // A failed rendezvous returns above without an event, so committed
  // events correspond 1:1 with Stats.Collections.
  VMStats Snap;
  uint64_t PromObjSnap = 0, PromBytesSnap = 0;
  if (Tracing) {
    obs::GcEvent &Ev = Tracer->beginEvent(
        Stats.Collections, Kind == GcKind::Minor,
        CurAllocSite == NoAllocSite ? obs::NoSite : CurAllocSite);
    Ev.Phases.Rendezvous = RendNanos;
    Ev.HeapBeforeBytes = TheHeap.usedBytes();
    Snap = Stats;
    PromObjSnap = TheHeap.ObjectsPromoted;
    PromBytesSnap = TheHeap.BytesPromoted;
  }
  Stats.StackTraceStartInstrs = Stats.Instrs;
  Collector(*this);
  // The same total a tracer event carries: the per-request attribution
  // must sum exactly to the tracer's per-event TotalNanos.
  ReqGcNanosAccum += RendNanos + (Stats.GcNanos - GcNanosBefore);
  if (Tracing) {
    obs::GcEvent *Ev = Tracer->current();
    assert(Ev && "collection event vanished during the collector");
    Ev->HeapAfterBytes = TheHeap.usedBytes();
    Ev->FramesTraced = Stats.FramesTraced - Snap.FramesTraced;
    Ev->RootsTraced = Stats.RootsTraced - Snap.RootsTraced;
    Ev->ObjectsCopied = Stats.ObjectsCopied - Snap.ObjectsCopied;
    Ev->BytesCopied = Stats.BytesCopied - Snap.BytesCopied;
    Ev->ObjectsPromoted = TheHeap.ObjectsPromoted - PromObjSnap;
    Ev->BytesPromoted = TheHeap.BytesPromoted - PromBytesSnap;
    Ev->DerivedAdjusted = Stats.DerivedAdjusted - Snap.DerivedAdjusted;
    Ev->RendezvousSteps = Stats.RendezvousSteps - RendStepsBefore;
    Ev->CacheHits = Stats.DecodeCacheHits - Snap.DecodeCacheHits;
    Ev->CacheMisses = Stats.DecodeCacheMisses - Snap.DecodeCacheMisses;
    Ev->TotalNanos = RendNanos + (Stats.GcNanos - GcNanosBefore);
    Tracer->commitEvent();
  }
  if (PostGcHook && Error.empty())
    PostGcHook(*this);
  InCollect = false;
  return Error.empty();
}

bool VM::handshakeThread(size_t TI) {
  ThreadContext &T = *Threads[TI];
  uint64_t Budget = Opts.RendezvousBudget;
  while (!Prog.Code[T.PC].isGcPoint()) {
    if (Budget-- == 0)
      // Deterministic (the interpreter is deterministic, so the pc at
      // exhaustion is reproducible) — like the PR-2 OOM diagnostics, this
      // fails the run cleanly: the caller discards SuspendPCs, the error
      // propagates through both dispatch tiers, and the driver flushes
      // partial stats/trace.
      return fail("rendezvous budget exhausted: thread " +
                  std::to_string(TI) + " ran " +
                  std::to_string(Opts.RendezvousBudget) +
                  " instructions without reaching a gc-point (pc " +
                  std::to_string(T.PC) + "; compile with loop polls)");
    ++Stats.RendezvousSteps;
    if (!step(T)) {
      if (!Error.empty())
        return false;
      break; // Thread finished; no frames to scan.
    }
    if (T.Finished)
      break;
  }
  SuspendPCs[TI] = T.Finished ? SentinelRetPC : T.PC + 1;
  return true;
}

void VM::collectNow() {
  ThreadContext &T = ctx();
  // The current instruction must be a gc-point (GcCollect runtime call).
  collect(T.PC + 1);
}

bool VM::step(ThreadContext &T) {
  const DInstr *const I = &DProg.Code[T.PC];
  ++Stats.Instrs;
  Word *const Bases[DNumBases] = {T.R, T.Stack.get() + T.FP,
                                  T.Stack.get() + T.AP, Globals.data(),
                                  DProg.ConstPool.data()};
// The control hooks of vm/Ops.def for one instruction: T.PC and
// Stats.Instrs are always current, and the bases are rebuilt per step.
#define vmcase(Op) case MOp::Op:
#define vmbreak break
#define vmjump(NewPC)                                                         \
  do {                                                                        \
    T.PC = (NewPC);                                                           \
    return true;                                                              \
  } while (0)
#define vmjumpframe(NewPC) vmjump(NewPC)
#define vmfail(Msg) return fail(Msg)
#define vmsync() ((void)0)
#define vmfinish() return false
#define vmpc() T.PC
  switch (I->Op) {
#include "vm/Ops.def"
  }
#undef vmpc
#undef vmfinish
#undef vmsync
#undef vmfail
#undef vmjumpframe
#undef vmjump
#undef vmbreak
#undef vmcase
  if (!Error.empty())
    return false;
  T.PC += 1;
  return true;
}

void VM::finishRequest() {
  ++Stats.Requests;
  ReqSample Smp;
  Smp.Seq = Stats.Requests;
  Smp.Instrs = Stats.Instrs - ReqMarkInstrs;
  Smp.GcNanos = ReqGcNanosAccum;
  Smp.Collections = Stats.Collections - ReqMarkCollections;
  ReqMarkInstrs = Stats.Instrs;
  ReqMarkCollections = Stats.Collections;
  ReqGcNanosAccum = 0;
  if (Tracer)
    Tracer->recordRequest(Smp.Seq, Smp.Instrs, Smp.GcNanos, Smp.Collections);
  if (Profiler)
    Profiler->onRequestDone(Smp.Seq);
  if (RequestHook)
    RequestHook(*this, Smp);
}

bool VM::run() {
  // Round-robin with instruction-level pre-emption.
  while (true) {
    bool AnyLive = false;
    for (size_t K = 0; K != Threads.size(); ++K) {
      CurThread = static_cast<unsigned>((CurThread + (K != 0 ? 1 : 0)) %
                                        Threads.size());
      if (Threads[CurThread]->Live) {
        AnyLive = true;
        break;
      }
    }
    if (!AnyLive)
      break;

    ThreadContext &T = *Threads[CurThread];
    if (Opts.Dispatch == DispatchTier::Threaded)
      execThreaded(&T, SchedulerQuantum, nullptr);
    else
      for (uint64_t Q = 0; Q != SchedulerQuantum && T.Live; ++Q)
        if (!step(T))
          break;
    if (!Error.empty())
      return false;
    // Checked per quantum, not per instruction: cheap, and still a
    // deterministic point in the schedule.
    if (Opts.InstrBudget && Stats.Instrs > Opts.InstrBudget)
      return fail("instruction budget exceeded");
    CurThread = static_cast<unsigned>((CurThread + 1) % Threads.size());
  }
  return Error.empty();
}
