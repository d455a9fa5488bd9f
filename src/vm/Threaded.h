//===- vm/Threaded.h - Pre-decoded instruction stream -----------*- C++ -*-===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The VM's second execution tier: at load time the `MInstr` stream is
/// translated, one-to-one, into a pre-decoded direct-threaded form.  Each
/// `DInstr` carries
///
///   - a handler address (a GCC/Clang `&&label` inside the computed-goto
///     executor; null when the switch tier runs), and
///   - fully resolved operands: every non-memory operand reads/writes as
///     `Bases[O.Base][O.Index]`, where `Bases` is a 5-entry table of word
///     pointers (registers, FP frame, AP args, globals, and a constant
///     pool holding the immediates) that the executor refreshes only when
///     FP/AP change.  Memory operands add a displacement and one
///     indirection on top of the same base/index pair.  The hot path
///     never switches on `Operand::Kind`.
///
/// The translation is deliberately *index-preserving*: `DInstr` k derives
/// from `MInstr` k, so `ThreadContext::PC`, gc-point ordinals, SuspendPCs,
/// `FuncMapIndex` decode, snapshots, the rendezvous loop, `InstrBudget`
/// and `VMStats::Instrs` are bit-identical across dispatch tiers — the
/// threaded-index ↔ MInstr-PC mapping is the identity, which is what lets
/// every gc-map keyed by a return PC keep working unchanged.  Both tiers
/// share this representation and the one definition of each instruction
/// in vm/Ops.def: the reference switch interpreter (`VM::step`) executes
/// the same resolved operands through the same bodies, so the tiers differ
/// only in dispatch and in the threaded tier's operand-specialized
/// variants.
///
//===----------------------------------------------------------------------===//

#ifndef MGC_VM_THREADED_H
#define MGC_VM_THREADED_H

#include "codegen/Machine.h"
#include "vm/Heap.h"

#include <vector>

namespace mgc {
namespace vm {

struct Program;

/// Which execution engine runs the mutator.  Both produce bit-identical
/// observable state (output, VMStats, gc-point PCs, root/derived sets).
enum class DispatchTier : uint8_t {
  Switch,   ///< Reference interpreter: per-instruction switch on MOp.
  Threaded, ///< Pre-decoded stream, computed-goto handlers.
};

inline const char *dispatchTierName(DispatchTier T) {
  return T == DispatchTier::Threaded ? "threaded" : "switch";
}

/// Frame poison: new frames are filled with this recognizable non-pointer
/// pattern so over-approximating tables crash the collector loudly.
constexpr Word FramePoison = 0xDEADBEEFDEADBEEFull;
/// Return-PC sentinel marking the root frame of a thread.
constexpr uint32_t SentinelRetPC = 0xFFFFFFFFu;
/// Addresses below this are treated as NIL dereferences.
constexpr Word NilGuard = 4096;

/// Base-table indices for resolved operands.
enum : uint8_t {
  DBaseReg = 0,    ///< ThreadContext::R
  DBaseFP = 1,     ///< Stack + FP
  DBaseAP = 2,     ///< Stack + AP
  DBaseGlobal = 3, ///< VM::Globals
  DBaseConst = 4,  ///< DecodedProgram::ConstPool (immediates; slot 0 is 0)
  DNumBases = 5,
};

/// A resolved operand: one indexed load (or store) off a base pointer,
/// plus an optional memory indirection.  `None` operands decode to the
/// constant pool's zero slot so a stray access is harmless.
struct DOperand {
  int64_t Disp = 0;          ///< Memory forms: byte displacement.
  int32_t Index = 0;         ///< Word index from the base.
  uint8_t Base = DBaseConst; ///< DBase* selector.
  bool Mem = false;          ///< Indirect through the base value.
};

/// One pre-decoded instruction.  Index-parallel to Program::Code.
struct DInstr {
  const void *Handler = nullptr; ///< Computed-goto label (threaded tier).
  DOperand D, A, B;
  int64_t AuxImm = 0; ///< AddrSlot/AddrGlobal: A.Imm; WriteBarrier: B.Imm.
  int32_t Index = -1; ///< Callee / descriptor / intrinsic / trap code.
  uint32_t Target0 = 0, Target1 = 0;
  uint32_t Site = NoAllocSite;
  /// Call: the caller's FrameWords (replaces the funcOfPC binary search).
  uint32_t CallerFrameWords = 0;
  /// Ret: index of the containing function (for SavedRegs restore).
  uint32_t FuncIdx = 0;
  uint16_t ArgBase = 0;
  MOp Op = MOp::Trap;
  /// MInstr::isGcPoint() of the source instruction, pre-decoded so the
  /// sampling profiler's due-check needs no re-derivation on hot paths.
  bool IsGcPoint = false;
};

/// The pre-decoded program: instruction records plus the immediate pool
/// the DBaseConst operands index into.
struct DecodedProgram {
  std::vector<DInstr> Code;   ///< Parallel to Program::Code.
  std::vector<Word> ConstPool; ///< Slot 0 is always 0 (None operands).
};

/// Translates \p P.  Handler pointers are left null; the VM installs them
/// (per dispatch tier) after construction.
DecodedProgram decodeProgram(const Program &P);

} // namespace vm
} // namespace mgc

#endif // MGC_VM_THREADED_H
