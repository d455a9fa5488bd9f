//===- opt/LoopOpts.cpp - LICM, strength reduction, virtual origins -------===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//

#include "opt/Passes.h"

#include "analysis/Loops.h"

#include <algorithm>
#include <vector>

using namespace mgc;
using namespace mgc::ir;
using namespace mgc::analysis;

void opt::Scratch::countDefs(const Function &F) {
  Defs.assign(F.VRegs.size(), 0);
  // Parameters are defined on entry.
  for (unsigned I = 0; I != F.numParams(); ++I)
    ++Defs[I];
  for (const auto &BB : F.Blocks)
    for (const Instr &I : BB->Instrs)
      if (I.Dst != NoVReg)
        ++Defs[static_cast<size_t>(I.Dst)];
}

namespace {

/// Vregs with at least one definition inside the loop.
DynBitset defsInLoop(const Function &F, const Loop &L) {
  DynBitset Set(F.VRegs.size());
  L.Blocks.forEach([&](size_t B) {
    for (const Instr &I : F.Blocks[B]->Instrs)
      if (I.Dst != NoVReg)
        Set.set(static_cast<size_t>(I.Dst));
  });
  return Set;
}

bool operandInvariant(const Operand &O, const DynBitset &LoopDefs) {
  return !O.isReg() || !LoopDefs.test(static_cast<size_t>(O.R));
}
} // namespace

//===----------------------------------------------------------------------===//
// Loop-invariant code motion
//===----------------------------------------------------------------------===//

bool opt::hoistLoopInvariants(Function &F, Scratch &S) {
  bool Changed = false;
  // Recompute loop info after each change to keep things simple; loops are
  // few and functions small.
  bool Restart = true;
  while (Restart) {
    Restart = false;
    S.Loops.recompute(F);
    if (S.Loops.loops().empty())
      break;
    S.countDefs(F);
    const std::vector<unsigned> &Defs = S.Defs;
    for (const Loop &L : S.Loops.loops()) {
      DynBitset LoopDefs = defsInLoop(F, L);
      // Collect hoistable instructions: pure, single-def dst, invariant
      // operands.  Hoisting is speculative (pure ops cannot trap), matching
      // the aggressive motion gcc performs on address computations.
      std::vector<std::pair<unsigned, unsigned>> Hoist; // (block, index)
      L.Blocks.forEach([&](size_t B) {
        const BasicBlock &BB = *F.Blocks[B];
        for (unsigned I = 0; I != BB.Instrs.size(); ++I) {
          const Instr &Ins = BB.Instrs[I];
          if (!Ins.isPure() || Ins.Dst == NoVReg)
            continue;
          if (Defs[static_cast<size_t>(Ins.Dst)] != 1)
            continue;
          if (!operandInvariant(Ins.A, LoopDefs) ||
              !operandInvariant(Ins.B, LoopDefs))
            continue;
          Hoist.emplace_back(static_cast<unsigned>(B), I);
        }
      });
      if (Hoist.empty())
        continue;
      unsigned Pre = ensurePreheader(F, L);
      BasicBlock &PreBB = *F.Blocks[Pre];
      // Move in block order; preserve relative order for dependent chains.
      // (A hoisted instr's operands are defined outside the loop, which
      // includes previously hoisted instrs once they sit in the preheader;
      // iteration to fixpoint handles chains.)
      unsigned InsertAt = static_cast<unsigned>(PreBB.Instrs.size()) - 1;
      for (size_t K = Hoist.size(); K-- > 0;) {
        auto [B, I] = Hoist[K];
        BasicBlock &BB = *F.Blocks[B];
        PreBB.Instrs.insert(PreBB.Instrs.begin() + InsertAt,
                            BB.Instrs[I]);
        BB.Instrs.erase(BB.Instrs.begin() + I);
      }
      Changed = true;
      Restart = true;
      break; // Loop structures changed; recompute.
    }
  }
  return Changed;
}

//===----------------------------------------------------------------------===//
// Virtual array origin
//===----------------------------------------------------------------------===//

namespace {
/// The index of the only definition of \p R in \p BB, or -1 when \p BB
/// defines it never or more than once.
int singleDefIndex(const BasicBlock &BB, VReg R) {
  int Index = -1;
  for (size_t I = 0; I != BB.Instrs.size(); ++I)
    if (BB.Instrs[I].Dst == R) {
      if (Index >= 0)
        return -1;
      Index = static_cast<int>(I);
    }
  return Index;
}
} // namespace

bool opt::rewriteVirtualOrigins(Function &F, Scratch &) {
  bool Changed = false;
  for (auto &BB : F.Blocks) {
    for (unsigned I = 0; I != BB->Instrs.size(); ++I) {
      Instr &DA = BB->Instrs[I];
      // Pattern: a = DeriveAdd base, off
      //          off = Mul rel, s        (earlier in block, single def)
      //          rel = Sub i, lo         (earlier in block, single def)
      // Rewrite: vb = DeriveSub base, lo*s ; off2 = Mul i, s
      //          a  = DeriveAdd vb, off2
      if (DA.Op != Opcode::DeriveAdd || !DA.B.isReg())
        continue;
      int OffIdx = singleDefIndex(*BB, DA.B.R);
      if (OffIdx < 0 || OffIdx >= static_cast<int>(I))
        continue;
      Instr &MulI = BB->Instrs[OffIdx];
      if (MulI.Op != Opcode::Mul || !MulI.A.isReg() || !MulI.B.isImm())
        continue;
      int RelIdx = singleDefIndex(*BB, MulI.A.R);
      if (RelIdx < 0 || RelIdx >= OffIdx)
        continue;
      Instr &SubI = BB->Instrs[RelIdx];
      if (SubI.Op != Opcode::Sub || !SubI.A.isReg() || !SubI.B.isImm() ||
          SubI.B.Imm == 0)
        continue;
      int64_t Stride = MulI.B.Imm;
      int64_t Lo = SubI.B.Imm;
      VReg Base = DA.A.R;
      VReg Idx = SubI.A.R;

      VReg VB = F.newVReg(PtrKind::Derived, "", false);
      VReg Off2 = F.newVReg(PtrKind::NonPtr, "", false);
      Instr VBI = Instr::bin(Opcode::DeriveSub, VB, Operand::reg(Base),
                             Operand::imm(Lo * Stride));
      Instr Mul2 = Instr::bin(Opcode::Mul, Off2, Operand::reg(Idx),
                              Operand::imm(Stride));
      DA.A = Operand::reg(VB);
      DA.B = Operand::reg(Off2);
      // Insert the two new instructions just before the DeriveAdd.
      BB->Instrs.insert(BB->Instrs.begin() + I, {VBI, Mul2});
      Changed = true;
      I += 2; // Skip past the rewritten DeriveAdd.
    }
  }
  return Changed;
}

//===----------------------------------------------------------------------===//
// Strength reduction
//===----------------------------------------------------------------------===//

bool opt::reduceStrength(Function &F, Scratch &S) {
  bool Changed = false;
  S.Loops.recompute(F);
  if (S.Loops.loops().empty())
    return false;
  S.countDefs(F);
  const std::vector<unsigned> &Defs = S.Defs;

  for (const Loop &L : S.Loops.loops()) {
    DynBitset LoopDefs = defsInLoop(F, L);

    // Find basic induction variables: i with exactly two defs, the one
    // inside the loop being `i = Add i, c`.
    struct IV {
      VReg R;
      int64_t Step;
      unsigned UpdateBlock;
      unsigned UpdateIndex;
    };
    std::vector<IV> IVs;
    L.Blocks.forEach([&](size_t B) {
      const BasicBlock &BB = *F.Blocks[B];
      for (unsigned I = 0; I != BB.Instrs.size(); ++I) {
        const Instr &Ins = BB.Instrs[I];
        if (Ins.Op == Opcode::Add && Ins.Dst != NoVReg && Ins.A.isReg() &&
            Ins.A.R == Ins.Dst && Ins.B.isImm() &&
            Defs[static_cast<size_t>(Ins.Dst)] == 2)
          IVs.push_back({Ins.Dst, Ins.B.Imm, static_cast<unsigned>(B), I});
      }
    });
    // A basic IV's *other* definition (its initialization) must lie outside
    // the loop: an inner-loop index viewed from an enclosing loop has both
    // definitions inside and is re-initialized every outer iteration — a
    // reduced pointer could not track that.
    std::erase_if(IVs, [&](const IV &Iv) {
      unsigned DefsInLoop = 0;
      L.Blocks.forEach([&](size_t B) {
        for (const Instr &Ins : F.Blocks[B]->Instrs)
          if (Ins.Dst == Iv.R)
            ++DefsInLoop;
      });
      return DefsInLoop != 1;
    });
    if (IVs.empty())
      continue;

    for (const IV &Iv : IVs) {
      // Find `off = Mul iv, s` + `a = DeriveAdd base, off` in the loop with
      // an invariant base.
      struct Candidate {
        unsigned MulBlock, MulIndex;
        unsigned AddBlock, AddIndex;
        VReg Base;
        int64_t Stride;
      };
      std::vector<Candidate> Cands;
      L.Blocks.forEach([&](size_t B) {
        const BasicBlock &BB = *F.Blocks[B];
        for (unsigned I = 0; I != BB.Instrs.size(); ++I) {
          const Instr &MulI = BB.Instrs[I];
          if (MulI.Op != Opcode::Mul || !MulI.A.isReg() ||
              MulI.A.R != Iv.R || !MulI.B.isImm() || MulI.Dst == NoVReg)
            continue;
          if (Defs[static_cast<size_t>(MulI.Dst)] != 1)
            continue;
          // Locate the unique DeriveAdd consumer in the same block.
          for (unsigned K = I + 1; K != BB.Instrs.size(); ++K) {
            const Instr &AddI = BB.Instrs[K];
            if (AddI.Op == Opcode::DeriveAdd && AddI.B.isReg() &&
                AddI.B.R == MulI.Dst && AddI.A.isReg() &&
                !LoopDefs.test(static_cast<size_t>(AddI.A.R)) &&
                AddI.Dst != NoVReg &&
                Defs[static_cast<size_t>(AddI.Dst)] == 1) {
              Cands.push_back({static_cast<unsigned>(B), I,
                               static_cast<unsigned>(B), K, AddI.A.R,
                               MulI.B.Imm});
              break;
            }
          }
        }
      });
      if (Cands.empty())
        continue;

      unsigned Pre = ensurePreheader(F, L);
      // Process one candidate per invocation: insertions shift indices, and
      // the pipeline reruns the pass to a fixpoint anyway.
      Cands.resize(1);
      for (const Candidate &C : Cands) {
        // Preheader: off0 = Mul iv, s ; p = DeriveAdd base, off0.
        VReg Off0 = F.newVReg(PtrKind::NonPtr);
        VReg P = F.newVReg(PtrKind::Derived, "sr");
        BasicBlock &PreBB = *F.Blocks[Pre];
        auto InsertPos = PreBB.Instrs.end() - 1;
        InsertPos = PreBB.Instrs.insert(
            InsertPos, Instr::bin(Opcode::Mul, Off0, Operand::reg(Iv.R),
                                  Operand::imm(C.Stride)));
        PreBB.Instrs.insert(InsertPos + 1,
                            Instr::bin(Opcode::DeriveAdd, P,
                                       Operand::reg(C.Base),
                                       Operand::reg(Off0)));
        // After the IV update: p = DeriveAdd p, step*s.
        BasicBlock &UpBB = *F.Blocks[Iv.UpdateBlock];
        UpBB.Instrs.insert(UpBB.Instrs.begin() + Iv.UpdateIndex + 1,
                           Instr::bin(Opcode::DeriveAdd, P, Operand::reg(P),
                                      Operand::imm(Iv.Step * C.Stride)));
        // Replace the address computation with the reduced pointer.  The
        // p-update insertion above shifts indices in the same block.
        unsigned AddIndex = C.AddIndex;
        if (C.AddBlock == Iv.UpdateBlock && C.AddIndex > Iv.UpdateIndex)
          ++AddIndex;
        Instr &AddI = F.Blocks[C.AddBlock]->Instrs[AddIndex];
        AddI = Instr::mov(AddI.Dst, Operand::reg(P));
        Changed = true;
      }
      // Defs changed; handle one IV per loop per invocation for simplicity.
      break;
    }
    if (Changed)
      break; // Loop info stale; caller reruns the pass pipeline.
  }
  return Changed;
}
