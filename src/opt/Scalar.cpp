//===- opt/Scalar.cpp - Constant folding, copy prop, CSE, DCE -------------===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//

#include "opt/Passes.h"

#include "analysis/Derivations.h"
#include "analysis/Liveness.h"
#include "support/IntOps.h"

#include <algorithm>
#include <cstdint>

using namespace mgc;
using namespace mgc::ir;

//===----------------------------------------------------------------------===//
// Constant folding
//===----------------------------------------------------------------------===//

namespace {
bool foldBinary(Instr &I) {
  if (!I.A.isImm() || !I.B.isImm())
    return false;
  int64_t A = I.A.Imm, B = I.B.Imm, R;
  switch (I.Op) {
  case Opcode::Add: R = support::wrapAdd(A, B); break;
  case Opcode::Sub: R = support::wrapSub(A, B); break;
  case Opcode::Mul: R = support::wrapMul(A, B); break;
  case Opcode::Div:
  case Opcode::Mod:
    // Division by zero and the smallest INTEGER by -1 are left to fail at
    // run time rather than being computed here.
    if (B == 0 || support::divOverflows(A, B))
      return false;
    R = I.Op == Opcode::Div ? A / B : A % B;
    break;
  case Opcode::CmpEq: R = A == B; break;
  case Opcode::CmpNe: R = A != B; break;
  case Opcode::CmpLt: R = A < B; break;
  case Opcode::CmpLe: R = A <= B; break;
  case Opcode::CmpGt: R = A > B; break;
  case Opcode::CmpGe: R = A >= B; break;
  default:
    return false;
  }
  I = Instr::mov(I.Dst, Operand::imm(R));
  return true;
}

bool foldAlgebraic(Instr &I) {
  switch (I.Op) {
  case Opcode::Add:
    if (I.B.isImm() && I.B.Imm == 0) {
      I = Instr::mov(I.Dst, I.A);
      return true;
    }
    if (I.A.isImm() && I.A.Imm == 0) {
      I = Instr::mov(I.Dst, I.B);
      return true;
    }
    return false;
  case Opcode::Sub:
    if (I.B.isImm() && I.B.Imm == 0) {
      I = Instr::mov(I.Dst, I.A);
      return true;
    }
    return false;
  case Opcode::Mul:
    if ((I.B.isImm() && I.B.Imm == 1)) {
      I = Instr::mov(I.Dst, I.A);
      return true;
    }
    if ((I.A.isImm() && I.A.Imm == 1)) {
      I = Instr::mov(I.Dst, I.B);
      return true;
    }
    if ((I.A.isImm() && I.A.Imm == 0) || (I.B.isImm() && I.B.Imm == 0)) {
      I = Instr::mov(I.Dst, Operand::imm(0));
      return true;
    }
    return false;
  case Opcode::DeriveAdd:
  case Opcode::DeriveSub:
    // base +- 0 is a plain copy (still a derived value).
    if (I.B.isImm() && I.B.Imm == 0) {
      I = Instr::mov(I.Dst, I.A);
      return true;
    }
    return false;
  default:
    return false;
  }
}
} // namespace

bool opt::foldConstants(Function &F, Scratch &) {
  bool Changed = false;
  for (auto &BB : F.Blocks) {
    for (Instr &I : BB->Instrs) {
      if (I.Dst != NoVReg && (foldBinary(I) || foldAlgebraic(I))) {
        Changed = true;
        continue;
      }
      if (I.Op == Opcode::Neg && I.A.isImm()) {
        I = Instr::mov(I.Dst, Operand::imm(support::wrapNeg(I.A.Imm)));
        Changed = true;
      } else if (I.Op == Opcode::Not && I.A.isImm()) {
        I = Instr::mov(I.Dst, Operand::imm(I.A.Imm == 0 ? 1 : 0));
        Changed = true;
      } else if (I.Op == Opcode::Branch && I.A.isImm()) {
        unsigned Target = I.A.Imm != 0 ? I.Target0 : I.Target1;
        I = Instr::jump(Target);
        Changed = true;
      }
    }
  }
  return Changed;
}

//===----------------------------------------------------------------------===//
// Local copy/constant propagation
//===----------------------------------------------------------------------===//

namespace {
/// Whether operand position \p IsAddressBase may hold an immediate.
bool substitutionAllowed(const Instr &I, const Operand &NewVal, bool IsA) {
  if (NewVal.isReg())
    return true;
  // Immediates may not appear as addresses or derive bases.
  switch (I.Op) {
  case Opcode::Load:
  case Opcode::Store:
  case Opcode::DeriveAdd:
  case Opcode::DeriveSub:
    return !IsA;
  case Opcode::DeriveDiff:
    return false;
  case Opcode::Branch:
    return true; // Folded later.
  default:
    return true;
  }
}
} // namespace

bool opt::propagateCopiesLocal(Function &F, Scratch &S) {
  bool Changed = false;
  // Env[R] is R's known value in the current block (None: unknown); Keys
  // lists the vregs that have one.  Both are reused from block to block.
  std::vector<Operand> &Env = S.Env;
  std::vector<VReg> &Keys = S.Keys;
  Env.assign(F.VRegs.size(), Operand());
  Keys.clear();
  for (auto &BB : F.Blocks) {
    for (VReg R : Keys)
      Env[static_cast<size_t>(R)] = Operand();
    Keys.clear();
    auto Invalidate = [&](VReg R) {
      std::erase_if(Keys, [&](VReg K) {
        Operand &V = Env[static_cast<size_t>(K)];
        if (K != R && !(V.isReg() && V.R == R))
          return false;
        V = Operand();
        return true;
      });
    };
    for (Instr &I : BB->Instrs) {
      auto Subst = [&](Operand &O, bool IsA) {
        if (!O.isReg())
          return;
        const Operand &V = Env[static_cast<size_t>(O.R)];
        if (V.isNone())
          return;
        if (substitutionAllowed(I, V, IsA))
          if (!(V == O)) {
            O = V;
            Changed = true;
          }
      };
      Subst(I.A, true);
      Subst(I.B, false);
      for (Operand &O : I.Args)
        Subst(O, false);

      if (I.Dst != NoVReg)
        Invalidate(I.Dst);
      if (I.Op == Opcode::Mov && I.Dst != NoVReg &&
          !(I.A.isReg() && I.A.R == I.Dst)) {
        Env[static_cast<size_t>(I.Dst)] = I.A;
        Keys.push_back(I.Dst);
      }
    }
  }
  return Changed;
}

//===----------------------------------------------------------------------===//
// Local CSE
//===----------------------------------------------------------------------===//

bool opt::cseLocal(Function &F, Scratch &S) {
  bool Changed = false;
  // The block's available expressions and the vreg holding each, reused
  // from block to block.
  std::vector<AvailableExpr> &Table = S.Exprs;
  for (auto &BB : F.Blocks) {
    Table.clear();
    for (Instr &I : BB->Instrs) {
      if (I.Dst != NoVReg) {
        // Drop expressions that used the redefined register (as operand or
        // result).
        std::erase_if(Table, [&](const AvailableExpr &E) {
          return (E.A.isReg() && E.A.R == I.Dst) ||
                 (E.B.isReg() && E.B.R == I.Dst) || E.Holder == I.Dst;
        });
      }
      if (!I.isPure() || I.Dst == NoVReg || I.Op == Opcode::Mov)
        continue;
      auto It = std::find_if(Table.begin(), Table.end(),
                             [&](const AvailableExpr &E) {
                               return E.Op == I.Op && E.A == I.A &&
                                      E.B == I.B && E.Disp == I.Disp &&
                                      E.Index == I.Index;
                             });
      if (It != Table.end()) {
        I = Instr::mov(I.Dst, Operand::reg(It->Holder));
        Changed = true;
      } else {
        Table.push_back({I.Op, I.A, I.B, I.Disp, I.Index, I.Dst});
      }
    }
  }
  return Changed;
}

//===----------------------------------------------------------------------===//
// CFG simplification
//===----------------------------------------------------------------------===//

bool opt::simplifyCFG(Function &F, Scratch &S) {
  bool Changed = false;

  // Jump threading: a target block containing only `jump X` is bypassed.
  std::vector<unsigned> &Seen = S.Seen;
  auto UltimateTarget = [&](unsigned T) {
    Seen.clear();
    while (std::find(Seen.begin(), Seen.end(), T) == Seen.end()) {
      Seen.push_back(T);
      const BasicBlock &BB = *F.Blocks[T];
      if (BB.Instrs.size() == 1 && BB.Instrs[0].Op == Opcode::Jump)
        T = BB.Instrs[0].Target0;
      else
        break;
    }
    return T;
  };
  for (auto &BB : F.Blocks) {
    if (!BB->hasTerminator())
      continue;
    Instr &T = BB->Instrs.back();
    if (T.Op == Opcode::Jump) {
      unsigned U = UltimateTarget(T.Target0);
      if (U != T.Target0) {
        T.Target0 = U;
        Changed = true;
      }
    } else if (T.Op == Opcode::Branch) {
      unsigned U0 = UltimateTarget(T.Target0);
      unsigned U1 = UltimateTarget(T.Target1);
      if (U0 != T.Target0 || U1 != T.Target1) {
        T.Target0 = U0;
        T.Target1 = U1;
        Changed = true;
      }
      if (U0 == U1) {
        T = Instr::jump(U0);
        Changed = true;
      }
    }
  }

  // Merge a block with the target of its jump when the target has no
  // other predecessor.
  Predecessors &Preds = S.Preds;
  Preds.recompute(F);
  for (auto &BB : F.Blocks) {
    while (BB->hasTerminator() && BB->terminator().Op == Opcode::Jump) {
      unsigned Target = BB->terminator().Target0;
      if (Target == BB->Id || Target == 0 || Preds[Target].size() != 1)
        break;
      BasicBlock &Succ = *F.Blocks[Target];
      if (&Succ == BB.get())
        break;
      BB->Instrs.pop_back();
      for (Instr &I : Succ.Instrs)
        BB->Instrs.push_back(std::move(I));
      Succ.Instrs.clear();
      Succ.Instrs.push_back(Instr::trap(TrapKind::MissingReturn));
      // Predecessor info for the moved successor edges now belongs to BB.
      Preds.recompute(F);
      Changed = true;
    }
  }

  F.removeUnreachableBlocks();
  return Changed;
}

//===----------------------------------------------------------------------===//
// Dead code elimination
//===----------------------------------------------------------------------===//

bool opt::eliminateDeadCode(Function &F, Scratch &S) {
  // One backward sweep per block deletes dead pure definitions and
  // self-moves as it meets them, so a chain of dead definitions inside a
  // block goes in one sweep; only a sweep that deleted something solves
  // again.  Deleting a dead instruction never makes another instruction
  // live, so the result is the unique fixpoint, the same as deleting the
  // dead instructions of one solve at a time.
  //
  // The sweeps start on plain liveness.  The dead-base rule (§4) only adds
  // uses of the vregs a derivation can name as a base, and liveness is
  // solved per vreg, so every other vreg is live at the same points with
  // or without the extra uses; a dead vreg is dead on plain liveness too.
  // While no definition the sweep would delete is of a possible base,
  // both sweeps delete the same instructions.  When one is, the call
  // derives once, on the IR the earlier sweeps left, and sweeps with the
  // extra uses from then on: deleting dead instructions does not change
  // the derivation state any surviving use sees (DESIGN §3, fact (1)), so
  // a deletion only drops the deleted instructions' rows, and only
  // liveness is solved again.
  // The possible bases are marked when the first dead definition is met.
  std::vector<char> &MayBeBase = S.MayBeBase;
  bool Marked = false;
  auto MayBeBaseOf = [&](VReg R) {
    if (!Marked) {
      Marked = true;
      MayBeBase.assign(F.VRegs.size(), 0);
      auto Mark = [&](const Operand &O) {
        if (O.isReg() && F.kindOf(O.R) != PtrKind::NonPtr &&
            F.kindOf(O.R) != PtrKind::Derived)
          MayBeBase[static_cast<size_t>(O.R)] = 1;
      };
      for (const auto &BB : F.Blocks)
        for (const Instr &I : BB->Instrs)
          if (I.Dst != NoVReg && F.kindOf(I.Dst) == PtrKind::Derived) {
            Mark(I.A);
            if (I.Op == Opcode::DeriveDiff)
              Mark(I.B);
          }
    }
    return MayBeBase[static_cast<size_t>(R)] != 0;
  };

  const analysis::ExtraUses *Extra = nullptr; // &S.Extra once derived.
  bool Changed = false;
  DynBitset &Live = S.LiveSet;
  std::vector<char> &Dead = S.Dead; // One flag per instruction, flat.
  for (;;) {
    S.Live.compute(F, Extra);
    Dead.clear();
    bool Any = false, BaseDies = false;
    for (size_t B = 0; B != F.Blocks.size() && !BaseDies; ++B) {
      const std::vector<Instr> &Instrs = F.Blocks[B]->Instrs;
      size_t Base = Dead.size();
      Dead.resize(Base + Instrs.size(), 0);
      Live = S.Live.liveOut(static_cast<unsigned>(B));
      for (size_t I = Instrs.size(); I-- > 0;) {
        const Instr &Ins = Instrs[I];
        bool SelfMove =
            Ins.Op == Opcode::Mov && Ins.A.isReg() && Ins.A.R == Ins.Dst;
        if (SelfMove || (Ins.Dst != NoVReg && Ins.isPure() &&
                         !Live.test(static_cast<size_t>(Ins.Dst)))) {
          if (!SelfMove && !Extra && MayBeBaseOf(Ins.Dst)) {
            BaseDies = true;
            break;
          }
          Dead[Base + I] = 1;
          Any = true;
          continue;
        }
        S.Live.transfer(static_cast<unsigned>(B), static_cast<unsigned>(I),
                        Live);
      }
    }
    if (BaseDies) {
      S.Extra = analysis::DerivationAnalysis(F).computeExtraUses();
      Extra = &S.Extra;
      continue;
    }
    if (!Any)
      return Changed;
    Changed = true;
    size_t Flat = 0;
    for (auto &BB : F.Blocks) {
      std::vector<Instr> &Instrs = BB->Instrs;
      size_t Kept = 0;
      for (size_t I = 0; I != Instrs.size(); ++I)
        if (!Dead[Flat + I]) {
          if (Kept != I)
            Instrs[Kept] = std::move(Instrs[I]);
          ++Kept;
        }
      Flat += Instrs.size();
      Instrs.erase(Instrs.begin() + static_cast<long>(Kept), Instrs.end());
    }
    if (Extra)
      S.Extra.erase(Dead);
  }
}
