//===- vm/VM.h - The abstract machine interpreter ---------------*- C++ -*-===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes compiled programs.  The machine is deliberately VAX-like (see
/// codegen/Machine.h).  Several properties matter to the reproduction:
///
///  - Values are raw 64-bit words; nothing is tagged.  Heap pointers are
///    real host addresses into the semispaces, so a collection genuinely
///    moves objects and stale pointers genuinely break — only the
///    compile-time tables make precise collection possible.
///  - New frames are poisoned with a recognizable non-pointer pattern, so
///    a table that over-approximates liveness crashes the collector
///    instead of silently working.
///  - Threads are pre-emptible at any instruction (a round-robin quantum),
///    reproducing §5.3: when one thread triggers a collection the others
///    are resumed until each reaches a gc-point; loop polls bound that
///    wait.
///
//===----------------------------------------------------------------------===//

#ifndef MGC_VM_VM_H
#define MGC_VM_VM_H

#include "vm/Heap.h"
#include "vm/Program.h"
#include "vm/Threaded.h"

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace mgc {
namespace obs {
class Profiler;
class Tracer;
} // namespace obs
namespace vm {

/// Thread scheduler quantum in instructions (multi-threaded runs).
constexpr uint64_t SchedulerQuantum = 61;

struct VMOptions {
  size_t HeapBytes = 4u << 20;
  size_t StackWords = 1u << 16;
  /// Run the heap in generational mode: nursery allocation, minor
  /// collections driven by the remembered set, write barriers active.
  /// Programs must be compiled with write barriers (CompilerOptions::
  /// WriteBarriers) for this to be sound.
  bool GenGc = false;
  /// Size of each nursery half in generational mode (0 = auto).
  size_t NurseryBytes = 0;
  /// Collect before every allocation (stress testing).
  bool GcStress = false;
  /// Upper bound on instructions a thread may run while the collector
  /// waits for it to reach a gc-point; exceeding it is a runtime error
  /// (demonstrating why §5.3 requires loop polls).
  uint64_t RendezvousBudget = 2'000'000;
  /// Deterministic whole-run instruction limit (0 = unlimited); exceeding
  /// it is a runtime error.  The differential fuzzer sets this so that a
  /// non-terminating reducer candidate fails identically everywhere
  /// instead of hanging the oracle.
  uint64_t InstrBudget = 0;
  /// Execution engine (vm/Threaded.h).  Threaded is the default.  Both
  /// tiers run the one definition of each instruction in vm/Ops.def and
  /// are observably identical.
  DispatchTier Dispatch = DispatchTier::Threaded;
  /// Heap-sizing policy (vm/Heap.h): occupancy percentage at which a full
  /// collection doubles the semispace (0 = fixed-size heap), the semispace
  /// growth cap (0 = 8x the initial size when growth is on), and nursery
  /// auto-sizing from survivor volume (generational mode).
  unsigned HeapGrowthPct = 0;
  size_t HeapMaxBytes = 0;
  bool NurseryAuto = false;
  /// How the collector and an attached profiler decode gc-points
  /// (gcmaps::PointDecoder): through the load-time index and a
  /// decoded-point cache or, when false, through the reference
  /// walk-from-start decoder, the §6.3 measured artifact (`--no-map-index`).
  bool UseMapIndex = true;
  /// `--gc-crosscheck`: abort on any indexed decode that disagrees with the
  /// reference decoder, and after any collection that leaves a reachable
  /// pointer off a copied object.
  bool CrossCheck = false;
};

struct VMStats {
  uint64_t Instrs = 0;
  uint64_t Collections = 0;      ///< All collections (minor + full).
  uint64_t MinorCollections = 0; ///< Generational mode: nursery-only.
  uint64_t FramesTraced = 0;
  uint64_t BytesCopied = 0;
  uint64_t ObjectsCopied = 0; ///< Objects evacuated (minor + full).
  uint64_t StackTraceNanos = 0; ///< Table decode + root enumeration time.
  uint64_t GcNanos = 0;         ///< Total collection time.
  uint64_t MinorGcNanos = 0;    ///< Portion of GcNanos in minor collections.
  // Generational-mode counters.
  uint64_t WriteBarriersRun = 0; ///< Barrier instructions executed.
  uint64_t RemSetRecords = 0;    ///< Barrier hits that recorded a new slot.
  uint64_t RemSetPeak = 0;       ///< Largest remembered set seen at a gc.
  uint64_t DerivedAdjusted = 0; ///< Derived-value un/re-derivations.
  uint64_t RootsTraced = 0;
  // The collector's decode counters (zero when the reference decoder is
  // in use; see VMOptions::UseMapIndex).
  uint64_t DecodeCacheHits = 0;   ///< Decoded-point cache hits.
  uint64_t DecodeCacheMisses = 0; ///< Decoded-point cache misses.
  uint64_t DecodeBytesSkipped = 0; ///< Blob bytes the index let us skip.
  /// Instruction count at the start of the current collection's stack
  /// trace, for the §6.3 "instructions per frame" figure.
  uint64_t StackTraceStartInstrs = 0;
  /// Instructions the *other* threads executed during rendezvous, running
  /// forward to their next gc-point (§5.3; bounded by RendezvousBudget).
  uint64_t RendezvousSteps = 0;
  /// Server-workload request boundaries retired (RtFn::ReqDone).
  uint64_t Requests = 0;
};

/// Unmaps a thread stack of \c Words words (VM::spawnThread maps each
/// stack on its own pages, so only the pages its frames reach are backed).
struct StackUnmap {
  size_t Words = 0;
  void operator()(Word *Stack) const;
};

/// One thread of execution.
struct ThreadContext {
  std::unique_ptr<Word[], StackUnmap> Stack;
  size_t StackWords = 0;
  Word R[NumRegs] = {};
  uint32_t PC = 0;
  uint32_t FP = 0;
  uint32_t AP = 0;
  bool Live = false;
  bool Finished = false;

  /// Sampling-profiler state (obs/Profile.h): the interned prefix-tree id
  /// of this thread's current call chain, and the shadow stack of parent
  /// ids that makes Ret pops O(1) and correct even when the profiler's
  /// node table is capped.  Maintained only while an enabled Profiler is
  /// attached; plain data so the vm stays link-independent of obs.
  uint32_t ProfNode = 0;
  uint32_t ProfDepth = 0;
  std::vector<uint32_t> ProfShadow;
};

/// What the VM is asking the installed collector for.
enum class GcKind : uint8_t {
  Full,  ///< Evacuate everything (the two-space Cheney path).
  Minor, ///< Generational mode: nursery only, extra roots from the remset.
};

class VM {
public:
  VM(const Program &Prog, VMOptions Opts = VMOptions());

  /// Runs main to completion (plus any spawned threads).  Returns true on
  /// success; on a trap or runtime error, Error is set.
  bool run();

  /// Spawns a thread executing parameterless function \p FuncIdx; threads
  /// are scheduled round-robin with instruction-level pre-emption once run()
  /// starts.  Call before run().
  void spawnThread(unsigned FuncIdx);

  /// Forces a collection (testing hook; must not be called mid-run).
  void collectNow();

  //===--- State exposed to the collector ----------------------------------===

  const Program &Prog;
  VMOptions Opts;
  Heap TheHeap;
  std::vector<Word> Globals;
  std::vector<std::unique_ptr<ThreadContext>> Threads;
  unsigned CurThread = 0;

  /// Per-thread table pc: the gc-point return address at which each live
  /// thread is suspended during a collection.
  std::vector<uint32_t> SuspendPCs;

  /// The collection kind the VM requested of the installed collector
  /// (valid while Collector runs).
  GcKind RequestedGc = GcKind::Full;

  std::string Out;   ///< PutInt/PutChar/PutLn output.
  std::string Error; ///< Set on trap/runtime error.
  VMStats Stats;

  /// The installed collector: invoked with the VM; every live thread is
  /// suspended at a gc-point (SuspendPCs).  Installed by the gc library.
  std::function<void(VM &)> Collector;

  /// Optional observability tracer (obs/Trace.h): null in ordinary runs.
  /// When attached, the allocation path pays one extra branch; when also
  /// enabled, allocations and collections are recorded.  Not owned.
  obs::Tracer *Tracer = nullptr;

  /// Optional sampling profiler (obs/Profile.h): null in ordinary runs.
  /// When attached, Call/Ret and every gc-point pay one predicted branch;
  /// when also enabled, call chains are interned and samples fire at
  /// gc-point granularity on the retired-instruction clock — at the same
  /// instruction ordinals under both dispatch tiers.  Not owned.
  obs::Profiler *Profiler = nullptr;

  /// Invoked after each successful collection, once the collector has
  /// returned and the event is committed but before the mutator resumes:
  /// every live thread is still suspended at a gc-point (SuspendPCs valid)
  /// and the heap is freshly compacted — the safe moment to capture a heap
  /// snapshot (mgc --snapshot-every).  Must not allocate from this heap.
  std::function<void(VM &)> PostGcHook;

  /// Site id of the allocation instruction currently in allocate() — the
  /// trigger attribution for collections it causes.  NoAllocSite between
  /// allocations (so explicit GcCollect collections carry no site).
  uint32_t CurAllocSite = NoAllocSite;

  /// One completed request, as observed at its ReqDone() marker.  Instrs
  /// is the virtual-time service demand (instructions retired since the
  /// previous marker, all threads); GcNanos/Collections are the collection
  /// work attributed to that window.
  struct ReqSample {
    uint64_t Seq = 0;         ///< 1-based request ordinal.
    uint64_t Instrs = 0;      ///< Service demand in instructions.
    uint64_t GcNanos = 0;     ///< Rendezvous + collection nanos in window.
    uint64_t Collections = 0; ///< Collections (minor + full) in window.
  };

  /// Invoked at every ReqDone() marker, from the executing thread with the
  /// instruction counters synced (both dispatch tiers).  The heap is in a
  /// normal mutator state — safe for globals-only snapshots, not for stack
  /// walks.  Must not allocate from this heap.
  std::function<void(VM &, const ReqSample &)> RequestHook;

  /// The pre-decoded instruction stream (vm/Threaded.h), index-parallel
  /// to Prog.Code.  Both dispatch tiers execute from it.
  DecodedProgram DProg;

private:
  ThreadContext &ctx() { return *Threads[CurThread]; }

  /// Resolved-operand access (vm/Threaded.h): one indexed load/store off
  /// the per-thread base table, no Operand::Kind switch.  A failing
  /// memory read yields 0 with Error set; a failing write is dropped —
  /// exactly the reference readOperand/writeOperand semantics.
  Word readD(const DOperand &O, Word *const *Bases);
  void writeD(const DOperand &O, Word *const *Bases, Word V);

  /// The reference executor: one instruction of thread \p T, switching
  /// on its MOp into the bodies of vm/Ops.def.  Runs the switch tier and
  /// single-steps the other threads at a rendezvous.  Returns false when
  /// the thread finished or an error occurred.
  bool step(ThreadContext &T);

  /// The computed-goto executor (vm/Threaded.cpp): the same vm/Ops.def
  /// bodies behind handler labels, plus operand-specialized variants.
  /// With \p LabelsOut set it only exports the handler-label table
  /// (indexed by MOp) and runs nothing; otherwise it executes one quantum,
  /// up to \p Max instructions of \p T.
  bool execThreaded(ThreadContext *T, uint64_t Max,
                    const void *const **LabelsOut);

  /// Fills DProg's handler pointers for the active tier (no-op when the
  /// switch tier runs).
  void installHandlers();

  /// Runs the rendezvous protocol and the collector; \p TriggerRetPC is the
  /// gc-point of the triggering thread.
  bool collect(uint32_t TriggerRetPC, GcKind Kind = GcKind::Full);

  /// One per-thread handshake of the §5.3 rendezvous: steps thread \p TI
  /// forward until it is about to execute a gc-point instruction (or
  /// finishes), then publishes its table pc in SuspendPCs[TI].  Returns
  /// false — with a deterministic diagnostic naming the thread, budget,
  /// and pc — when the thread exhausts Opts.RendezvousBudget without
  /// reaching a gc-point, or when stepping it hits a runtime error.
  bool handshakeThread(size_t TI);

  Word allocate(unsigned DescIdx, int64_t Length, uint32_t RetPC);

  /// Retires one ReqDone() marker: accounts the request window against the
  /// current counters, records it with the tracer, and runs RequestHook.
  /// Callers must have Stats.Instrs synced (vm/Ops.def: vmsync()).
  void finishRequest();

  bool fail(const std::string &Msg);

  bool InCollect = false;

  /// ReqDone bookkeeping: counter marks at the previous request boundary
  /// and the collection nanos accumulated since (fed by collect()).
  uint64_t ReqMarkInstrs = 0;
  uint64_t ReqMarkCollections = 0;
  uint64_t ReqGcNanosAccum = 0;
};

inline Word VM::readD(const DOperand &O, Word *const *Bases) {
  Word V = Bases[O.Base][O.Index];
  if (!O.Mem)
    return V;
  Word Addr = V + static_cast<Word>(O.Disp);
  if (Addr < NilGuard) {
    fail("NIL dereference (address " + std::to_string(Addr) + ")");
    return 0;
  }
  return *reinterpret_cast<Word *>(Addr);
}

inline void VM::writeD(const DOperand &O, Word *const *Bases, Word V) {
  Word *P = &Bases[O.Base][O.Index];
  if (!O.Mem) {
    *P = V;
    return;
  }
  Word Addr = *P + static_cast<Word>(O.Disp);
  if (Addr < NilGuard) {
    fail("NIL dereference (address " + std::to_string(Addr) + ")");
    return;
  }
  *reinterpret_cast<Word *>(Addr) = V;
}

} // namespace vm
} // namespace mgc

#endif // MGC_VM_VM_H
