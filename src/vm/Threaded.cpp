//===- vm/Threaded.cpp - Load-time translation + computed-goto tier -------===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//
//
// Two halves:
//
//  1. decodeProgram(): the load-time translator.  One MInstr becomes one
//     DInstr at the same index (the PC mapping across tiers is the
//     identity).  Operands are resolved to base/index pairs, immediates
//     are interned into a constant pool, and the per-instruction
//     funcOfPC() binary searches of Call/Ret are folded into the record.
//
//  2. VM::execThreaded(): the direct-threaded executor.  Dispatch is
//     `goto *I->Handler` over a DInstr* iterator — advancing is `++I`, so
//     the next handler address is computable the moment a handler starts
//     and the dispatch load mostly hides behind the handler body.  The
//     canonical PC is materialized (I - Code) only at sync points.  The
//     quantum budget and the retired-instruction count live in locals
//     synced back to ThreadContext/VMStats at every point the GC
//     machinery (or an error path) can observe them — before
//     allocate()/collect(), on every fail, and at quantum end.
//
//     The 26 generic handlers are the bodies of vm/Ops.def, the one
//     definition of each instruction that VM::step also runs; this file
//     supplies only their control hooks.  On top of them,
//     installHandlers() selects hand-written *specialized* variants per
//     instruction where the operand pattern allows it (all-direct
//     moves/compares/arithmetic, one-sided memory moves, direct branch
//     conditions), eliminating the per-operand memory-form tests from the
//     hottest paths.  The variants are written separately on purpose: the
//     cross-tier tests check them against the shared definitions.
//
//===----------------------------------------------------------------------===//

#include "vm/VM.h"

#include "obs/Profile.h"
#include "support/IntOps.h"

#include <cassert>
#include <unordered_map>

using namespace mgc;
using namespace mgc::vm;

//===----------------------------------------------------------------------===//
// Load-time translation
//===----------------------------------------------------------------------===//

DecodedProgram vm::decodeProgram(const Program &P) {
  DecodedProgram D;
  D.ConstPool.push_back(0); // Slot 0: the value None operands resolve to.
  std::unordered_map<Word, int32_t> Interned;
  Interned.emplace(0, 0);
  auto PoolOf = [&](int64_t Imm) {
    Word W = static_cast<Word>(Imm);
    auto [It, New] =
        Interned.try_emplace(W, static_cast<int32_t>(D.ConstPool.size()));
    if (New)
      D.ConstPool.push_back(W);
    return It->second;
  };
  auto Conv = [&](const MOperand &O) {
    DOperand R;
    switch (O.K) {
    case MOperand::Kind::None:
      break; // Const pool slot 0; never meaningfully accessed.
    case MOperand::Kind::Reg:
      R.Base = DBaseReg;
      R.Index = O.Reg;
      break;
    case MOperand::Kind::Slot:
      R.Base = DBaseFP;
      R.Index = O.Index;
      break;
    case MOperand::Kind::ASlot:
      R.Base = DBaseAP;
      R.Index = O.Index;
      break;
    case MOperand::Kind::Global:
      R.Base = DBaseGlobal;
      R.Index = O.Index;
      break;
    case MOperand::Kind::Imm:
      R.Base = DBaseConst;
      R.Index = PoolOf(O.Imm);
      break;
    case MOperand::Kind::MemReg:
      R.Base = DBaseReg;
      R.Index = O.Reg;
      R.Mem = true;
      R.Disp = O.Disp;
      break;
    case MOperand::Kind::MemSlot:
      R.Base = DBaseFP;
      R.Index = O.Index;
      R.Mem = true;
      R.Disp = O.Disp;
      break;
    case MOperand::Kind::MemASlot:
      R.Base = DBaseAP;
      R.Index = O.Index;
      R.Mem = true;
      R.Disp = O.Disp;
      break;
    }
    return R;
  };

  D.Code.reserve(P.Code.size());
  for (uint32_t PC = 0; PC != P.Code.size(); ++PC) {
    const MInstr &I = P.Code[PC];
    DInstr T;
    T.Op = I.Op;
    T.Index = I.Index;
    T.Target0 = I.Target0;
    T.Target1 = I.Target1;
    T.Site = I.Site;
    T.ArgBase = I.ArgBase;
    T.IsGcPoint = I.isGcPoint();
    T.D = Conv(I.D);
    T.A = Conv(I.A);
    T.B = Conv(I.B);
    // The destination of a value-producing op must be writable; the
    // translator enforces what the reference interpreter asserted.
    assert((T.D.Base != DBaseConst || I.D.K == MOperand::Kind::None) &&
           "write to an immediate operand");
    switch (I.Op) {
    case MOp::Call:
      T.CallerFrameWords = P.Funcs[P.funcOfPC(PC)].FrameWords;
      break;
    case MOp::Ret:
      T.FuncIdx = P.funcOfPC(PC);
      break;
    case MOp::AddrSlot:
    case MOp::AddrGlobal:
      // The byte displacement rides in A.Imm regardless of A's kind.
      T.AuxImm = I.A.Imm;
      break;
    case MOp::WriteBarrier:
      T.AuxImm = I.B.Imm;
      break;
    default:
      break;
    }
    D.Code.push_back(T);
  }
  return D;
}

//===----------------------------------------------------------------------===//
// Handler selection
//===----------------------------------------------------------------------===//

namespace {

/// Indices of the specialized handler variants that follow the generic
/// (MOp-ordered) entries in the executor's label table.  A specialized
/// handler computes exactly what its generic counterpart would, minus the
/// operand-form tests the translation already answered.
enum SpecializedHandler : size_t {
  SMovDirect = static_cast<size_t>(MOp::Trap) + 1, ///< Mov, no mem operand.
  SMovLoad,  ///< Mov, memory source, direct destination.
  SMovStore, ///< Mov, direct source, memory destination.
  SAddDirect,
  SSubDirect,
  SCmpEqDirect,
  SCmpNeDirect,
  SCmpLtDirect,
  SCmpLeDirect,
  SCmpGtDirect,
  SCmpGeDirect,
  SBranchDirect, ///< Branch with a direct condition operand.
  SNumHandlers
};

} // namespace

void VM::installHandlers() {
  if (Opts.Dispatch != DispatchTier::Threaded)
    return;
  const void *const *Labels = nullptr;
  execThreaded(nullptr, 0, &Labels);
  for (DInstr &I : DProg.Code) {
    size_t H = static_cast<size_t>(I.Op);
    bool Direct3 = !I.D.Mem && !I.A.Mem && !I.B.Mem;
    switch (I.Op) {
    case MOp::Mov:
      if (!I.D.Mem && !I.A.Mem)
        H = SMovDirect;
      else if (!I.D.Mem)
        H = SMovLoad;
      else if (!I.A.Mem)
        H = SMovStore;
      break;
    case MOp::Add:
      if (Direct3)
        H = SAddDirect;
      break;
    case MOp::Sub:
      if (Direct3)
        H = SSubDirect;
      break;
    case MOp::CmpEq:
      if (Direct3)
        H = SCmpEqDirect;
      break;
    case MOp::CmpNe:
      if (Direct3)
        H = SCmpNeDirect;
      break;
    case MOp::CmpLt:
      if (Direct3)
        H = SCmpLtDirect;
      break;
    case MOp::CmpLe:
      if (Direct3)
        H = SCmpLeDirect;
      break;
    case MOp::CmpGt:
      if (Direct3)
        H = SCmpGtDirect;
      break;
    case MOp::CmpGe:
      if (Direct3)
        H = SCmpGeDirect;
      break;
    case MOp::Branch:
      if (!I.A.Mem)
        H = SBranchDirect;
      break;
    default:
      break;
    }
    I.Handler = Labels[H];
  }
}

//===----------------------------------------------------------------------===//
// The computed-goto executor
//===----------------------------------------------------------------------===//

// Cache-line aligned, so where each handler falls relative to the 32- and
// 64-byte fetch windows does not move with the size of the code linked
// before this function.  At the default 16-byte alignment, a 16-byte shift
// of the whole executor changed the mutator time of the §6 destroy program
// by about 8% (Xeon, Sapphire Rapids).
[[gnu::aligned(64)]] bool VM::execThreaded(ThreadContext *TP, uint64_t Max,
                                           const void *const **LabelsOut) {
  // Handler table: the first 26 entries are in MOp declaration order
  // (codegen/Machine.h); the rest are the specialized variants, in
  // SpecializedHandler order.
  static const void *const Labels[] = {
      &&L_Mov,        &&L_Add,          &&L_Sub,       &&L_Mul,
      &&L_Div,        &&L_Mod,          &&L_Neg,       &&L_Not,
      &&L_CmpEq,      &&L_CmpNe,        &&L_CmpLt,     &&L_CmpLe,
      &&L_CmpGt,      &&L_CmpGe,        &&L_AddrSlot,  &&L_AddrGlobal,
      &&L_NewObj,     &&L_NewArr,       &&L_Call,      &&L_CallRt,
      &&L_GcPoll,     &&L_WriteBarrier, &&L_Jump,      &&L_Branch,
      &&L_Ret,        &&L_Trap,
      // Specialized variants.
      &&L_MovDirect,  &&L_MovLoad,      &&L_MovStore,  &&L_AddDirect,
      &&L_SubDirect,  &&L_CmpEqDirect,  &&L_CmpNeDirect,
      &&L_CmpLtDirect, &&L_CmpLeDirect, &&L_CmpGtDirect,
      &&L_CmpGeDirect, &&L_BranchDirect,
  };
  static_assert(sizeof(Labels) / sizeof(Labels[0]) == SNumHandlers,
                "handler table out of sync with MOp/SpecializedHandler");
  if (LabelsOut) {
    *LabelsOut = Labels;
    return true;
  }

  ThreadContext &T = *TP;
  if (!T.Live || Max == 0)
    return true;

  const DInstr *const Code = DProg.Code.data();
  const DInstr *I = Code + T.PC; // Canonical PC is (I - Code).
  uint64_t Remaining = Max;      // Quantum budget, counted down per dispatch.
  uint64_t Flushed = 0; // Retired instructions already in Stats.Instrs.
  // The operand base table; FP/AP entries are refreshed by Call/Ret.
  Word *Bases[DNumBases] = {T.R, T.Stack.get() + T.FP,
                            T.Stack.get() + T.AP, Globals.data(),
                            DProg.ConstPool.data()};

// The control hooks of vm/Ops.def.
//
// vmsync() publishes PC and the retired-instruction count: required before
// anything that can observe them (collect() reads Stats.Instrs and walks
// stacks; run() checks the instruction budget after the quantum).  The
// retired count is derived from the budget (Max - Remaining) instead of a
// second per-instruction counter.
#define vmsync()                                                              \
  do {                                                                        \
    T.PC = static_cast<uint32_t>(I - Code);                                   \
    uint64_t Retired = Max - Remaining;                                       \
    Stats.Instrs += Retired - Flushed;                                        \
    Flushed = Retired;                                                        \
  } while (0)

// Dispatch *I.  The instruction is counted as retired *before* its
// handler runs, matching step()'s ++Stats.Instrs placement.
#define vmdispatch()                                                          \
  do {                                                                        \
    if (Remaining == 0) {                                                     \
      vmsync();                                                               \
      return true;                                                            \
    }                                                                         \
    --Remaining;                                                              \
    goto *I->Handler;                                                         \
  } while (0)

#define vmcase(Op) L_##Op:
#define vmbreak                                                               \
  do {                                                                        \
    if (__builtin_expect(!Error.empty(), 0)) {                                \
      vmsync();                                                               \
      return false;                                                           \
    }                                                                         \
    ++I;                                                                      \
    vmdispatch();                                                             \
  } while (0)
#define vmjump(NewPC)                                                         \
  do {                                                                        \
    I = Code + (NewPC);                                                       \
    vmdispatch();                                                             \
  } while (0)
#define vmjumpframe(NewPC)                                                    \
  do {                                                                        \
    I = Code + (NewPC);                                                       \
    Bases[DBaseFP] = T.Stack.get() + T.FP;                                    \
    Bases[DBaseAP] = T.Stack.get() + T.AP;                                    \
    vmdispatch();                                                             \
  } while (0)
#define vmfail(Msg)                                                           \
  do {                                                                        \
    vmsync();                                                                 \
    fail(Msg);                                                                \
    return false;                                                             \
  } while (0)
#define vmfinish()                                                            \
  do {                                                                        \
    vmsync();                                                                 \
    return true;                                                              \
  } while (0)
#define vmpc() static_cast<uint32_t>(I - Code)

  vmdispatch();

#include "vm/Ops.def"

  //===--- Specialized variants -------------------------------------------===
  // Each computes exactly what its generic counterpart would for the
  // operand pattern installHandlers() matched; vmbreak's error check is
  // kept even where the handler itself cannot fail, because a preceding
  // Branch may have left a pending error (the quirk in vm/Ops.def).

L_MovDirect:
  Bases[I->D.Base][I->D.Index] = Bases[I->A.Base][I->A.Index];
  vmbreak;

L_MovLoad: {
  Word Addr =
      Bases[I->A.Base][I->A.Index] + static_cast<Word>(I->A.Disp);
  Word V;
  if (__builtin_expect(Addr < NilGuard, 0)) {
    fail("NIL dereference (address " + std::to_string(Addr) + ")");
    V = 0; // A failing read yields 0; the write still happens.
  } else {
    V = *reinterpret_cast<Word *>(Addr);
  }
  Bases[I->D.Base][I->D.Index] = V;
  vmbreak;
}

L_MovStore: {
  Word V = Bases[I->A.Base][I->A.Index];
  Word Addr =
      Bases[I->D.Base][I->D.Index] + static_cast<Word>(I->D.Disp);
  if (__builtin_expect(Addr < NilGuard, 0))
    fail("NIL dereference (address " + std::to_string(Addr) + ")");
  else
    *reinterpret_cast<Word *>(Addr) = V;
  vmbreak;
}

L_AddDirect:
  Bases[I->D.Base][I->D.Index] =
      Bases[I->A.Base][I->A.Index] + Bases[I->B.Base][I->B.Index];
  vmbreak;

L_SubDirect:
  Bases[I->D.Base][I->D.Index] =
      Bases[I->A.Base][I->A.Index] - Bases[I->B.Base][I->B.Index];
  vmbreak;

L_CmpEqDirect:
  Bases[I->D.Base][I->D.Index] =
      Bases[I->A.Base][I->A.Index] == Bases[I->B.Base][I->B.Index] ? 1 : 0;
  vmbreak;

L_CmpNeDirect:
  Bases[I->D.Base][I->D.Index] =
      Bases[I->A.Base][I->A.Index] != Bases[I->B.Base][I->B.Index] ? 1 : 0;
  vmbreak;

L_CmpLtDirect:
  Bases[I->D.Base][I->D.Index] =
      static_cast<int64_t>(Bases[I->A.Base][I->A.Index]) <
              static_cast<int64_t>(Bases[I->B.Base][I->B.Index])
          ? 1
          : 0;
  vmbreak;

L_CmpLeDirect:
  Bases[I->D.Base][I->D.Index] =
      static_cast<int64_t>(Bases[I->A.Base][I->A.Index]) <=
              static_cast<int64_t>(Bases[I->B.Base][I->B.Index])
          ? 1
          : 0;
  vmbreak;

L_CmpGtDirect:
  Bases[I->D.Base][I->D.Index] =
      static_cast<int64_t>(Bases[I->A.Base][I->A.Index]) >
              static_cast<int64_t>(Bases[I->B.Base][I->B.Index])
          ? 1
          : 0;
  vmbreak;

L_CmpGeDirect:
  Bases[I->D.Base][I->D.Index] =
      static_cast<int64_t>(Bases[I->A.Base][I->A.Index]) >=
              static_cast<int64_t>(Bases[I->B.Base][I->B.Index])
          ? 1
          : 0;
  vmbreak;

L_BranchDirect:
  vmjump(Bases[I->A.Base][I->A.Index] != 0 ? I->Target0 : I->Target1);

#undef vmpc
#undef vmfinish
#undef vmfail
#undef vmjumpframe
#undef vmjump
#undef vmbreak
#undef vmcase
#undef vmdispatch
#undef vmsync
}
