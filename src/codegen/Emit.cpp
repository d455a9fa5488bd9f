//===- codegen/Emit.cpp ---------------------------------------------------===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//

#include "codegen/Emit.h"

#include "analysis/Derivations.h"
#include "analysis/Liveness.h"
#include "codegen/RegAlloc.h"

#include <algorithm>
#include <cassert>
#include <map>

using namespace mgc;
using namespace mgc::codegen;
using namespace mgc::ir;
using namespace mgc::vm;

namespace {

class Emitter {
public:
  Emitter(Function &F, const gcsafety::GcSafetyInfo &Safety,
          const EmitOptions &Opts)
      : F(F), Safety(Safety), Opts(Opts), DA(F),
        Extra(DA.computeExtraUses()), LV(F, &Extra) {}

  EmitResult run();

private:
  MOperand operandOf(const Operand &O) const {
    if (O.isImm())
      return MOperand::imm(O.Imm);
    assert(O.isReg() && "emitting a None operand");
    return locOperand(O.R);
  }

  MOperand locOperand(VReg R) const {
    const Location &L = Loc[static_cast<size_t>(R)];
    switch (L.K) {
    case Location::Kind::Reg:
      return MOperand::reg(L.Index);
    case Location::Kind::FpSlot:
      return MOperand::slot(L.Index);
    case Location::Kind::ApSlot:
      return MOperand::aslot(L.Index);
    case Location::Kind::None:
      break;
    }
    assert(false && "vreg without a home");
    return MOperand::none();
  }

  /// Memory operand [value(Base) + Disp].
  MOperand memOperand(VReg Base, int64_t Disp) const {
    const Location &L = Loc[static_cast<size_t>(Base)];
    switch (L.K) {
    case Location::Kind::Reg:
      return MOperand::memReg(L.Index, Disp);
    case Location::Kind::FpSlot:
      return MOperand::memSlot(L.Index, Disp);
    case Location::Kind::ApSlot:
      return MOperand::memASlot(L.Index, Disp);
    case Location::Kind::None:
      break;
    }
    assert(false && "address vreg without a home");
    return MOperand::none();
  }

  void push(MInstr I) { Code.push_back(std::move(I)); }

  void emitInstr(const BasicBlock &BB, unsigned Index);
  void recordGcPoint(const BasicBlock &BB, unsigned Index,
                     uint32_t GcInstrLocalIdx);

  Function &F;
  const gcsafety::GcSafetyInfo &Safety;
  const EmitOptions &Opts;

  std::vector<Location> Loc; ///< Final vreg homes (FP offsets resolved).
  std::vector<int> SlotWordOff;
  unsigned OutArgBase = 0;
  std::vector<unsigned> UseCount;

  std::vector<MInstr> Code;
  std::vector<uint32_t> BlockStart;
  struct Fixup {
    size_t InstrIdx;
    bool IsSecond;
    unsigned Block;
  };
  std::vector<Fixup> Fixups;

  /// Pending CISC fold: vreg -> memory operand replacing it.
  std::map<VReg, MOperand> PendingFold;

  /// One derivation and liveness solve serves register allocation and the
  /// gc-point tables: allocation only appends spill slots.
  analysis::DerivationAnalysis DA;
  analysis::ExtraUses Extra;
  analysis::Liveness LV;
  /// While a block is emitted: the derivation state before the current
  /// instruction, and the live sets before its remaining gc-points (the
  /// next one last).
  std::vector<analysis::DerivationAnalysis::StateId> CurState;
  std::vector<DynBitset> GcLive;

  EmitResult Result;
};

EmitResult Emitter::run() {
  Assignment Asg = allocateRegisters(F, LV);

  // Frame layout: [save area][slots][outgoing args].
  unsigned NumSaved = static_cast<unsigned>(Asg.UsedRegs.size());
  SlotWordOff.assign(F.Slots.size(), 0);
  unsigned NextWord = NumSaved;
  for (size_t S = 0; S != F.Slots.size(); ++S) {
    SlotWordOff[S] = static_cast<int>(NextWord);
    NextWord += F.Slots[S].SizeWords;
  }
  unsigned MaxOutArgs = 0;
  for (const auto &BB : F.Blocks)
    for (const Instr &I : BB->Instrs)
      if (I.Op == Opcode::Call || I.Op == Opcode::CallRt)
        MaxOutArgs = std::max(MaxOutArgs,
                              static_cast<unsigned>(I.Args.size()));
  OutArgBase = NextWord;

  Result.Meta.Name = F.Name;
  Result.Meta.FrameWords = OutArgBase + MaxOutArgs;
  Result.Meta.NumParams = static_cast<uint16_t>(F.numParams());
  Result.Meta.HasRet = F.HasRet;
  Result.Meta.SavedRegs = Asg.UsedRegs;

  // Resolve spill-slot ids in the assignment to FP word offsets.
  Loc = Asg.LocOf;
  for (Location &L : Loc)
    if (L.K == Location::Kind::FpSlot)
      L = Location::fpSlot(SlotWordOff[static_cast<size_t>(L.Index)]);

  // Use counts for the CISC fold.
  UseCount.assign(F.VRegs.size(), 0);
  size_t NumInstrs = 0;
  for (const auto &BB : F.Blocks) {
    NumInstrs += BB->Instrs.size();
    for (const Instr &I : BB->Instrs)
      I.forEachUse([&](VReg R) { ++UseCount[static_cast<size_t>(R)]; });
  }
  // Most IR instructions become one machine instruction; a quarter more
  // covers the moves and spill code of nearly every function.
  Code.reserve(NumInstrs + NumInstrs / 4 + 8);

  // Prologue: zero-initialize pointer words of lowering-created slots so
  // their always-live ground entries are valid from entry.
  for (size_t S = 0; S != F.Slots.size(); ++S) {
    const SlotInfo &SI = F.Slots[S];
    if (SI.IsSpill)
      continue;
    for (unsigned Off : SI.PtrOffsets) {
      MInstr I;
      I.Op = MOp::Mov;
      I.D = MOperand::slot(SlotWordOff[S] + static_cast<int>(Off));
      I.A = MOperand::imm(0);
      push(I);
    }
  }

  BlockStart.assign(F.Blocks.size(), 0);
  for (const auto &BB : F.Blocks) {
    BlockStart[BB->Id] = static_cast<uint32_t>(Code.size());
    PendingFold.clear();
    if (!Opts.GcSafe) {
      for (unsigned I = 0; I != BB->Instrs.size(); ++I)
        emitInstr(*BB, I);
      continue;
    }
    // One backward walk collects the block's gc-point live sets; the
    // derivation state is carried forward as the block is emitted.
    LV.visitBlock(BB->Id, [&](unsigned Index, const DynBitset &Before) {
      if (BB->Instrs[Index].isGcPoint())
        GcLive.push_back(Before);
    });
    DA.blockInIds(BB->Id, CurState);
    for (unsigned I = 0; I != BB->Instrs.size(); ++I) {
      emitInstr(*BB, I);
      DA.transfer(BB->Instrs[I], CurState);
    }
    assert(GcLive.empty() && "gc-point without a table entry");
  }

  for (const Fixup &Fx : Fixups) {
    MInstr &I = Code[Fx.InstrIdx];
    if (Fx.IsSecond)
      I.Target1 = BlockStart[Fx.Block];
    else
      I.Target0 = BlockStart[Fx.Block];
  }

  Result.Meta.NumInstrs = static_cast<uint32_t>(Code.size());
  Result.Code = std::move(Code);
  return std::move(Result);
}

//===----------------------------------------------------------------------===//
// GC-point table data
//===----------------------------------------------------------------------===//

void Emitter::recordGcPoint(const BasicBlock &BB, unsigned Index,
                            uint32_t GcInstrLocalIdx) {
  if (!Opts.GcSafe)
    return;
  gcmaps::GcPointData P;
  P.RetPC = GcInstrLocalIdx + 1;

  DynBitset Live = std::move(GcLive.back());
  GcLive.pop_back();
  const Instr &GcIns = BB.Instrs[Index];

  uint16_t RegMask = 0;
  std::vector<Location> Slots;

  Live.forEach([&](size_t R) {
    if (F.kindOf(static_cast<VReg>(R)) != PtrKind::Tidy)
      return;
    const Location &L = Loc[R];
    if (L.K == Location::Kind::Reg)
      RegMask |= static_cast<uint16_t>(1u << L.Index);
    else
      Slots.push_back(L);
  });

  // Lowering-created pointer slots (aggregates, address-taken REFs) are
  // described at every gc-point; they are zeroed in the prologue.
  for (size_t S = 0; S != F.Slots.size(); ++S) {
    const SlotInfo &SI = F.Slots[S];
    if (SI.IsSpill)
      continue;
    for (unsigned Off : SI.PtrOffsets)
      Slots.push_back(
          Location::fpSlot(SlotWordOff[S] + static_cast<int>(Off)));
  }

  // Derivations of live derived values.
  auto BasesToRefs = [&](const analysis::Derivation &D) {
    std::vector<gcmaps::BaseRef> Refs;
    for (const auto &[BaseR, Coeff] : D.Bases) {
      gcmaps::BaseRef Ref;
      Ref.Loc = Loc[static_cast<size_t>(BaseR)];
      assert(Ref.Loc.K != Location::Kind::None && "base without a home");
      Ref.Coeff = Coeff;
      Refs.push_back(Ref);
    }
    return Refs;
  };

  std::vector<gcmaps::DerivationRecord> Derivs;
  auto AddDerived = [&](VReg R, Location Target) {
    auto Id = CurState[static_cast<size_t>(DA.slotOf(R))];
    assert(Id != analysis::DerivationAnalysis::Absent &&
           "live derived value with unknown state");
    const analysis::DerivState &S = DA.state(Id);
    gcmaps::DerivationRecord Rec;
    Rec.Target = Target;
    if (S.K == analysis::DerivState::Kind::Single) {
      Rec.Bases = BasesToRefs(S.D);
      if (Rec.Bases.empty())
        return; // Pure-E value: nothing to adjust.
    } else {
      assert(S.K == analysis::DerivState::Kind::Ambiguous);
      auto PV = Safety.PathVars.find(R);
      assert(PV != Safety.PathVars.end() &&
             "ambiguous derivation without a path variable");
      Rec.Ambiguous = true;
      Rec.PathVar = Location::fpSlot(
          SlotWordOff[static_cast<size_t>(PV->second.Slot)]);
      for (const analysis::Derivation &Alt : S.Alts) {
        gcmaps::DerivationAlt A;
        bool Found = false;
        for (const auto &[D, Value] : PV->second.Values)
          if (D == Alt) {
            A.PathValue = Value;
            Found = true;
            break;
          }
        assert(Found && "alternative derivation lacks a path value");
        (void)Found;
        A.Bases = BasesToRefs(Alt);
        Rec.Alts.push_back(std::move(A));
      }
    }
    Derivs.push_back(std::move(Rec));
  };

  Live.forEach([&](size_t R) {
    if (F.kindOf(static_cast<VReg>(R)) == PtrKind::Derived)
      AddDerived(static_cast<VReg>(R), Loc[R]);
  });

  // Outgoing argument slots of a call hold copies the callee reads through
  // AP; the caller's table must keep them correct (tidy args are traced,
  // derived and forwarded-VAR args adjusted).
  if (GcIns.Op == Opcode::Call) {
    for (size_t A = 0; A != GcIns.Args.size(); ++A) {
      const Operand &O = GcIns.Args[A];
      if (!O.isReg())
        continue;
      Location ArgLoc =
          Location::fpSlot(static_cast<int>(OutArgBase + A));
      switch (F.kindOf(O.R)) {
      case PtrKind::Tidy:
        Slots.push_back(ArgLoc);
        break;
      case PtrKind::Derived:
        AddDerived(O.R, ArgLoc);
        break;
      case PtrKind::IncomingAddr: {
        // Forwarding a VAR parameter: the copy is derived (+1) from the
        // incoming argument slot, which the *caller's* caller maintains.
        gcmaps::DerivationRecord Rec;
        Rec.Target = ArgLoc;
        gcmaps::BaseRef Ref;
        Ref.Loc = Loc[static_cast<size_t>(O.R)];
        Ref.Coeff = 1;
        Rec.Bases.push_back(Ref);
        Derivs.push_back(std::move(Rec));
        break;
      }
      default:
        break;
      }
    }
  }

  std::sort(Slots.begin(), Slots.end());
  Slots.erase(std::unique(Slots.begin(), Slots.end()), Slots.end());

  P.LiveSlots = std::move(Slots);
  P.RegMask = RegMask;
  P.Derivs = std::move(Derivs);
  Result.Tables.Points.push_back(std::move(P));
}

//===----------------------------------------------------------------------===//
// Instruction selection
//===----------------------------------------------------------------------===//

void Emitter::emitInstr(const BasicBlock &BB, unsigned Index) {
  const Instr &I = BB.Instrs[Index];

  // Resolve a source operand, applying any pending CISC fold.
  auto Src = [&](const Operand &O) -> MOperand {
    if (O.isReg()) {
      auto It = PendingFold.find(O.R);
      if (It != PendingFold.end()) {
        MOperand M = It->second;
        PendingFold.erase(It);
        return M;
      }
    }
    return operandOf(O);
  };

  switch (I.Op) {
  case Opcode::Mov: {
    MInstr M;
    M.Op = MOp::Mov;
    M.D = locOperand(I.Dst);
    M.A = Src(I.A);
    push(M);
    return;
  }

  case Opcode::Add: case Opcode::Sub: case Opcode::Mul: case Opcode::Div:
  case Opcode::Mod: case Opcode::CmpEq: case Opcode::CmpNe:
  case Opcode::CmpLt: case Opcode::CmpLe: case Opcode::CmpGt:
  case Opcode::CmpGe:
  case Opcode::DeriveAdd: case Opcode::DeriveSub: case Opcode::DeriveDiff: {
    static const std::map<Opcode, MOp> OpMap = {
        {Opcode::Add, MOp::Add},       {Opcode::Sub, MOp::Sub},
        {Opcode::Mul, MOp::Mul},       {Opcode::Div, MOp::Div},
        {Opcode::Mod, MOp::Mod},       {Opcode::CmpEq, MOp::CmpEq},
        {Opcode::CmpNe, MOp::CmpNe},   {Opcode::CmpLt, MOp::CmpLt},
        {Opcode::CmpLe, MOp::CmpLe},   {Opcode::CmpGt, MOp::CmpGt},
        {Opcode::CmpGe, MOp::CmpGe},   {Opcode::DeriveAdd, MOp::Add},
        {Opcode::DeriveSub, MOp::Sub}, {Opcode::DeriveDiff, MOp::Sub},
    };
    MInstr M;
    M.Op = OpMap.at(I.Op);
    M.D = locOperand(I.Dst);
    M.A = Src(I.A);
    M.B = Src(I.B);
    push(M);
    return;
  }

  case Opcode::Neg: case Opcode::Not: {
    MInstr M;
    M.Op = I.Op == Opcode::Neg ? MOp::Neg : MOp::Not;
    M.D = locOperand(I.Dst);
    M.A = Src(I.A);
    push(M);
    return;
  }

  case Opcode::Load: {
    // CISC fold: a single-use load whose consumer follows in the same
    // block (with no intervening memory effect or redefinition) becomes a
    // memory operand of the consumer — VAX-style addressing.  The gc
    // restriction (§4's indirect references): when the loaded value is a
    // *pointer* the tables may need to update — as a derivation base or as
    // a tidy argument live at a call gc-point — so it must be preserved in
    // a register or slot instead.
    if (Opts.CiscFold && I.A.isReg() &&
        UseCount[static_cast<size_t>(I.Dst)] == 1) {
      const Instr *Consumer = nullptr;
      for (unsigned K = Index + 1; K != BB.Instrs.size(); ++K) {
        const Instr &Cand = BB.Instrs[K];
        auto UsesT = [&](const Instr &C) {
          bool Uses = false;
          C.forEachUse([&](VReg R) { Uses |= R == I.Dst; });
          return Uses;
        };
        bool Consumes = false;
        if (Cand.isPure() && Cand.Op != Opcode::Mov &&
            ((Cand.A.isReg() && Cand.A.R == I.Dst) ||
             (Cand.B.isReg() && Cand.B.R == I.Dst)) &&
            Cand.Dst != I.Dst)
          Consumes = true;
        else if ((Cand.Op == Opcode::Call || Cand.Op == Opcode::CallRt) &&
                 UsesT(Cand))
          Consumes = true;
        if (Consumes) {
          Consumer = &Cand;
          break;
        }
        // Legality of scanning past Cand: no memory writes, no gc-points,
        // no redefinition of the loaded value or the address base.
        bool MemoryEffect = Cand.Op == Opcode::Store ||
                            Cand.Op == Opcode::StoreSlot ||
                            Cand.Op == Opcode::StoreGlobal ||
                            Cand.Op == Opcode::Call ||
                            Cand.Op == Opcode::CallRt ||
                            Cand.Op == Opcode::New ||
                            Cand.Op == Opcode::NewArray ||
                            Cand.isTerminator();
        if (MemoryEffect || Cand.Dst == I.Dst || Cand.Dst == I.A.R)
          break;
      }
      if (Consumer) {
        PtrKind TK = F.kindOf(I.Dst);
        bool PointerLike = TK == PtrKind::Tidy || TK == PtrKind::Derived ||
                           TK == PtrKind::IncomingAddr;
        if (Opts.GcSafe && PointerLike) {
          // Preserve the intermediate reference (emit the plain load).
          ++Result.CiscFoldsBlocked;
        } else {
          PendingFold[I.Dst] = memOperand(I.A.R, I.Disp);
          ++Result.CiscFoldsApplied;
          return;
        }
      }
    }
    MInstr M;
    M.Op = MOp::Mov;
    M.D = locOperand(I.Dst);
    M.A = memOperand(I.A.R, I.Disp);
    push(M);
    return;
  }

  case Opcode::Store: {
    MInstr M;
    M.Op = MOp::Mov;
    M.D = memOperand(I.A.R, I.Disp);
    M.A = Src(I.B);
    push(M);
    return;
  }

  case Opcode::LoadSlot: {
    MInstr M;
    M.Op = MOp::Mov;
    M.D = locOperand(I.Dst);
    M.A = MOperand::slot(SlotWordOff[static_cast<size_t>(I.Index)]);
    push(M);
    return;
  }
  case Opcode::StoreSlot: {
    MInstr M;
    M.Op = MOp::Mov;
    M.D = MOperand::slot(SlotWordOff[static_cast<size_t>(I.Index)]);
    M.A = Src(I.B);
    push(M);
    return;
  }
  case Opcode::LoadGlobal: {
    MInstr M;
    M.Op = MOp::Mov;
    M.D = locOperand(I.Dst);
    M.A = MOperand::global(I.Index);
    push(M);
    return;
  }
  case Opcode::StoreGlobal: {
    MInstr M;
    M.Op = MOp::Mov;
    M.D = MOperand::global(I.Index);
    M.A = Src(I.B);
    push(M);
    return;
  }

  case Opcode::AddrSlot: {
    MInstr M;
    M.Op = MOp::AddrSlot;
    M.D = locOperand(I.Dst);
    M.Index = SlotWordOff[static_cast<size_t>(I.Index)];
    M.A = MOperand::imm(I.Disp);
    push(M);
    return;
  }
  case Opcode::AddrGlobal: {
    MInstr M;
    M.Op = MOp::AddrGlobal;
    M.D = locOperand(I.Dst);
    M.Index = I.Index;
    M.A = MOperand::imm(I.Disp);
    push(M);
    return;
  }

  case Opcode::New:
  case Opcode::NewArray: {
    uint32_t GcIdx = static_cast<uint32_t>(Code.size());
    recordGcPoint(BB, Index, GcIdx);
    Result.AllocSites.push_back({GcIdx, I.Loc.Line, I.Loc.Col,
                                 static_cast<uint32_t>(I.Index)});
    MInstr M;
    M.Op = I.Op == Opcode::New ? MOp::NewObj : MOp::NewArr;
    M.D = locOperand(I.Dst);
    M.Index = I.Index;
    if (I.Op == Opcode::NewArray)
      M.A = Src(I.A);
    push(M);
    return;
  }

  case Opcode::Call: {
    // Argument moves precede the call.
    for (size_t A = 0; A != I.Args.size(); ++A) {
      MInstr M;
      M.Op = MOp::Mov;
      M.D = MOperand::slot(static_cast<int>(OutArgBase + A));
      M.A = Src(I.Args[A]);
      push(M);
    }
    if (!I.NoGcCallee) {
      uint32_t GcIdx = static_cast<uint32_t>(Code.size());
      recordGcPoint(BB, Index, GcIdx);
    }
    MInstr M;
    M.Op = MOp::Call;
    M.NoGcCallee = I.NoGcCallee;
    M.Index = I.Index;
    M.ArgBase = static_cast<uint16_t>(OutArgBase);
    M.NArgs = static_cast<uint16_t>(I.Args.size());
    push(M);
    if (I.Dst != NoVReg) {
      MInstr R;
      R.Op = MOp::Mov;
      R.D = locOperand(I.Dst);
      R.A = MOperand::reg(static_cast<int>(RetValReg));
      push(R);
    }
    return;
  }

  case Opcode::CallRt: {
    for (size_t A = 0; A != I.Args.size(); ++A) {
      MInstr M;
      M.Op = MOp::Mov;
      M.D = MOperand::slot(static_cast<int>(OutArgBase + A));
      M.A = Src(I.Args[A]);
      push(M);
    }
    if (I.Rt == RtFn::GcCollect) {
      uint32_t GcIdx = static_cast<uint32_t>(Code.size());
      recordGcPoint(BB, Index, GcIdx);
    }
    MInstr M;
    M.Op = MOp::CallRt;
    M.Index = static_cast<int>(I.Rt);
    M.ArgBase = static_cast<uint16_t>(OutArgBase);
    M.NArgs = static_cast<uint16_t>(I.Args.size());
    push(M);
    return;
  }

  case Opcode::WriteBarrier: {
    // Not a gc-point: the barrier neither allocates nor yields.  The slot
    // address is recomputed from the base's home so no extra value is live
    // across it.
    MInstr M;
    M.Op = MOp::WriteBarrier;
    M.A = locOperand(I.A.R);
    M.B = MOperand::imm(I.Disp);
    push(M);
    return;
  }

  case Opcode::GcPoll: {
    uint32_t GcIdx = static_cast<uint32_t>(Code.size());
    recordGcPoint(BB, Index, GcIdx);
    MInstr M;
    M.Op = MOp::GcPoll;
    push(M);
    return;
  }

  case Opcode::Jump: {
    MInstr M;
    M.Op = MOp::Jump;
    Fixups.push_back({Code.size(), false, I.Target0});
    push(M);
    return;
  }
  case Opcode::Branch: {
    MInstr M;
    M.Op = MOp::Branch;
    M.A = Src(I.A);
    Fixups.push_back({Code.size(), false, I.Target0});
    Fixups.push_back({Code.size(), true, I.Target1});
    push(M);
    return;
  }
  case Opcode::Ret: {
    if (!I.A.isNone()) {
      MInstr M;
      M.Op = MOp::Mov;
      M.D = MOperand::reg(static_cast<int>(RetValReg));
      M.A = Src(I.A);
      push(M);
    }
    MInstr M;
    M.Op = MOp::Ret;
    push(M);
    return;
  }
  case Opcode::Trap: {
    MInstr M;
    M.Op = MOp::Trap;
    M.Index = I.Index;
    push(M);
    return;
  }
  }
}

} // namespace

EmitResult codegen::emitFunction(Function &F,
                                 const gcsafety::GcSafetyInfo &Safety,
                                 const EmitOptions &Opts) {
  Emitter E(F, Safety, Opts);
  return E.run();
}
