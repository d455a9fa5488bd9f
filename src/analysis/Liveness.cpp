//===- analysis/Liveness.cpp ----------------------------------------------===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//

#include "analysis/Liveness.h"

using namespace mgc;
using namespace mgc::analysis;
using namespace mgc::ir;

void ExtraUses::erase(std::span<const char> Dead) {
  if (VRegs.empty())
    return;
  // Compacts in place: every write lands at or before the row being read.
  uint32_t Rows = 0, Regs = 0;
  size_t B = 0;
  for (size_t I = 0; I != Dead.size(); ++I) {
    for (; B != BlockBase.size() && BlockBase[B] == I; ++B)
      BlockBase[B] = Rows;
    if (Dead[I])
      continue;
    uint32_t From = Begin[I], To = Begin[I + 1];
    Begin[Rows++] = Regs;
    for (uint32_t K = From; K != To; ++K)
      VRegs[Regs++] = VRegs[K];
  }
  for (; B != BlockBase.size(); ++B)
    BlockBase[B] = Rows;
  Begin[Rows] = Regs;
  Begin.resize(Rows + 1);
  VRegs.resize(Regs);
}

void Liveness::compute(const Function &Func, const ExtraUses *ExtraTable) {
  F = &Func;
  Extra = ExtraTable;
  size_t NumBlocks = Func.Blocks.size();
  DynBitset Empty(Func.VRegs.size());
  LiveIn.assign(NumBlocks, Empty);
  LiveOut.assign(NumBlocks, Empty);

  // Block summaries: LiveIn = Gen ∪ (LiveOut − Kill), where Gen holds the
  // upward-exposed uses and Kill every definition.  LiveIn starts at Gen
  // and only grows.
  Kill.assign(NumBlocks, Empty);
  for (size_t B = 0; B != NumBlocks; ++B) {
    const BasicBlock &BB = *Func.Blocks[B];
    for (size_t I = BB.Instrs.size(); I-- > 0;) {
      transfer(static_cast<unsigned>(B), static_cast<unsigned>(I), LiveIn[B]);
      if (BB.Instrs[I].Dst != NoVReg)
        Kill[B].set(static_cast<size_t>(BB.Instrs[I].Dst));
    }
  }

  // Iterate to a fixpoint, processing blocks in reverse order (a decent
  // approximation of post-order for our forward-generated CFGs).
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (size_t B = NumBlocks; B-- > 0;) {
      DynBitset &Out = LiveOut[B];
      Func.Blocks[B]->forEachSuccessor(
          [&](unsigned Succ) { Changed |= Out.unionWith(LiveIn[Succ]); });
      Changed |= LiveIn[B].unionWithDifference(Out, Kill[B]);
    }
  }
}

void Liveness::transfer(unsigned Block, unsigned Index,
                        DynBitset &Live) const {
  const Instr &I = F->Blocks[Block]->Instrs[Index];
  if (I.Dst != NoVReg)
    Live.reset(static_cast<size_t>(I.Dst));
  I.forEachUse([&](VReg R) { Live.set(static_cast<size_t>(R)); });
  for (VReg R : extraUses(Block, Index))
    Live.set(static_cast<size_t>(R));
}

DynBitset Liveness::liveBefore(unsigned Block, unsigned Index) const {
  const BasicBlock &BB = *F->Blocks[Block];
  DynBitset Live = LiveOut[Block];
  for (size_t I = BB.Instrs.size(); I-- > Index;)
    transfer(Block, static_cast<unsigned>(I), Live);
  return Live;
}
