//===- opt/Diamond.cpp - Cross-jumping, diamond hoisting, unswitching -----===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Three transformations around control-flow diamonds.  Their composition
/// with LICM reproduces §4's ambiguous-derivation scenario: cross-jumping
/// merges the two arms' address uses into one vreg fed by per-arm copies,
/// and diamond hoisting then lifts the invariant diamond out of the loop,
/// leaving a derived value with two possible derivations live across every
/// gc-point in the loop.  unswitchLoops is the Figure 2 alternative that
/// duplicates the loop instead.
///
//===----------------------------------------------------------------------===//

#include "opt/Passes.h"

#include "analysis/Loops.h"

#include <map>
#include <optional>

using namespace mgc;
using namespace mgc::ir;
using namespace mgc::analysis;

namespace {

/// A diamond: D branches to distinct arms A1/A2 (single blocks whose only
/// predecessor is D), both of which jump to the same join J.
struct Diamond {
  unsigned D, A1, A2, J;
};

std::optional<Diamond> matchDiamond(const Function &F,
                                    const Predecessors &Preds, unsigned D) {
  const BasicBlock &BB = *F.Blocks[D];
  if (!BB.hasTerminator() || BB.terminator().Op != Opcode::Branch)
    return std::nullopt;
  unsigned A1 = BB.terminator().Target0;
  unsigned A2 = BB.terminator().Target1;
  if (A1 == A2 || A1 == D || A2 == D)
    return std::nullopt;
  for (unsigned A : {A1, A2}) {
    if (Preds[A].size() != 1 || Preds[A][0] != D)
      return std::nullopt;
    const BasicBlock &Arm = *F.Blocks[A];
    if (!Arm.hasTerminator() || Arm.terminator().Op != Opcode::Jump)
      return std::nullopt;
  }
  unsigned J1 = F.Blocks[A1]->terminator().Target0;
  unsigned J2 = F.Blocks[A2]->terminator().Target0;
  if (J1 != J2 || J1 == A1 || J1 == A2)
    return std::nullopt;
  return Diamond{D, A1, A2, J1};
}

/// Merged-vreg kind for a pair of operands flowing into one vreg.
PtrKind unifyKinds(const Function &F, const Operand &O1, const Operand &O2) {
  auto KindOf = [&](const Operand &O) {
    return O.isReg() ? F.kindOf(O.R) : PtrKind::NonPtr;
  };
  PtrKind K1 = KindOf(O1), K2 = KindOf(O2);
  if (K1 == K2)
    return K1;
  // Mixed pointer provenance: the merged value needs derivation tracking.
  return PtrKind::Derived;
}

} // namespace

//===----------------------------------------------------------------------===//
// Cross-jumping (tail merging)
//===----------------------------------------------------------------------===//

bool opt::mergeDiamondTails(Function &F, Scratch &S) {
  const Predecessors &Preds = S.Preds;
  S.Preds.recompute(F);
  S.countDefs(F);
  const std::vector<unsigned> &Defs = S.Defs;

  for (auto &DBB : F.Blocks) {
    auto DOpt = matchDiamond(F, Preds, DBB->Id);
    if (!DOpt)
      continue;
    Diamond Dia = *DOpt;
    // The join must be reached only through the two arms.
    if (Preds[Dia.J].size() != 2)
      continue;

    BasicBlock &Arm1 = *F.Blocks[Dia.A1];
    BasicBlock &Arm2 = *F.Blocks[Dia.A2];
    size_t Len = Arm1.Instrs.size();
    if (Len != Arm2.Instrs.size() || Len < 2)
      continue; // Terminator plus at least one instruction.

    // Attempt a structural match of the whole arms (minus terminators).
    // DstPairs maps (d1,d2) of matched defining instructions to a merged
    // vreg; ParamPairs maps mismatched *source* operands to a merged vreg
    // that each arm will initialize with a Mov.
    std::map<std::pair<VReg, VReg>, VReg> DstPairs;
    struct Param {
      Operand O1, O2;
      VReg M;
    };
    std::vector<Param> Params;
    bool Ok = true;
    std::vector<Instr> Merged;

    auto MatchOperand = [&](const Operand &O1, const Operand &O2,
                            bool AllowImm) -> std::optional<Operand> {
      if (O1.isNone() && O2.isNone())
        return Operand();
      if (O1.isNone() || O2.isNone())
        return std::nullopt;
      if (O1 == O2) {
        if (O1.isReg()) {
          // A matched dst rename shadows the raw register.
          for (const auto &[Pair, M] : DstPairs)
            if (Pair.first == O1.R && Pair.second == O1.R)
              return Operand::reg(M);
        }
        return O1;
      }
      if (O1.isReg() && O2.isReg()) {
        auto It = DstPairs.find({O1.R, O2.R});
        if (It != DstPairs.end())
          return Operand::reg(It->second);
      }
      if (!AllowImm && (O1.isImm() || O2.isImm()))
        return std::nullopt;
      // Parameterize the mismatch.
      for (const Param &P : Params)
        if (P.O1 == O1 && P.O2 == O2)
          return Operand::reg(P.M);
      VReg M = F.newVReg(unifyKinds(F, O1, O2), "merge");
      Params.push_back({O1, O2, M});
      return Operand::reg(M);
    };

    for (size_t I = 0; Ok && I + 1 < Len; ++I) {
      const Instr &I1 = Arm1.Instrs[I];
      const Instr &I2 = Arm2.Instrs[I];
      if (I1.Op != I2.Op || I1.Disp != I2.Disp || I1.Index != I2.Index ||
          I1.Rt != I2.Rt || I1.Args.size() != I2.Args.size() ||
          (I1.Dst == NoVReg) != (I2.Dst == NoVReg)) {
        Ok = false;
        break;
      }
      Instr NewI = I1;
      auto MA = MatchOperand(I1.A, I2.A, /*AllowImm=*/true);
      auto MB = MatchOperand(I1.B, I2.B, /*AllowImm=*/true);
      if (!MA || !MB) {
        Ok = false;
        break;
      }
      NewI.A = *MA;
      NewI.B = *MB;
      for (size_t K = 0; Ok && K != I1.Args.size(); ++K) {
        auto MArg = MatchOperand(I1.Args[K], I2.Args[K], /*AllowImm=*/true);
        if (!MArg) {
          Ok = false;
          break;
        }
        NewI.Args[K] = *MArg;
      }
      if (!Ok)
        break;
      if (I1.Dst != NoVReg) {
        if (I1.Dst == I2.Dst) {
          // Same dst on both paths: moving the def to the join is safe
          // only if these are its sole definitions.
          if (Defs[static_cast<size_t>(I1.Dst)] != 2) {
            Ok = false;
            break;
          }
          DstPairs[{I1.Dst, I2.Dst}] = I1.Dst;
        } else {
          if (Defs[static_cast<size_t>(I1.Dst)] != 1 ||
              Defs[static_cast<size_t>(I2.Dst)] != 1) {
            Ok = false;
            break;
          }
          VReg M = F.newVReg(unifyKinds(F, Operand::reg(I1.Dst),
                                        Operand::reg(I2.Dst)),
                             "merge");
          DstPairs[{I1.Dst, I2.Dst}] = M;
          NewI.Dst = M;
        }
      }
      Merged.push_back(std::move(NewI));
    }
    if (!Ok || Merged.empty())
      continue;
    // Skip degenerate merges where nothing was actually shared (identical
    // arms with zero instructions handled by Len check above).

    // Rewrite: arms keep only the parameter moves; the merged body moves to
    // the front of the join.
    unsigned JId = Dia.J;
    std::vector<Instr> NewArm1, NewArm2;
    for (const Param &P : Params) {
      NewArm1.push_back(Instr::mov(P.M, P.O1));
      NewArm2.push_back(Instr::mov(P.M, P.O2));
    }
    NewArm1.push_back(Instr::jump(JId));
    NewArm2.push_back(Instr::jump(JId));
    Arm1.Instrs = std::move(NewArm1);
    Arm2.Instrs = std::move(NewArm2);

    BasicBlock &Join = *F.Blocks[JId];
    Merged.insert(Merged.end(),
                  std::make_move_iterator(Join.Instrs.begin()),
                  std::make_move_iterator(Join.Instrs.end()));
    Join.Instrs = std::move(Merged);

    // Rewrite external uses of renamed dsts to the merged vreg.
    for (auto &BB : F.Blocks)
      for (Instr &I : BB->Instrs)
        for (const auto &[Pair, M] : DstPairs) {
          if (Pair.first != M)
            I.replaceUses(Pair.first, M);
          if (Pair.second != M)
            I.replaceUses(Pair.second, M);
        }
    return true; // One diamond per invocation; the pipeline iterates.
  }
  return false;
}

//===----------------------------------------------------------------------===//
// Invariant diamond hoisting
//===----------------------------------------------------------------------===//

bool opt::hoistInvariantDiamonds(Function &F, Scratch &S) {
  S.Loops.recompute(F);
  const Predecessors &Preds = S.Preds;
  if (!S.Loops.loops().empty())
    S.Preds.recompute(F);
  for (const Loop &L : S.Loops.loops()) {
    std::optional<Diamond> Found;
    L.Blocks.forEach([&](size_t B) {
      if (Found)
        return;
      auto DOpt = matchDiamond(F, Preds, static_cast<unsigned>(B));
      if (!DOpt)
        return;
      if (!L.contains(DOpt->A1) || !L.contains(DOpt->A2) ||
          !L.contains(DOpt->J))
        return;
      Found = DOpt;
    });
    if (!Found)
      continue;
    Diamond Dia = *Found;

    // Loop-defined vregs, excluding definitions inside the diamond arms
    // (those move out with the diamond).
    DynBitset LoopDefs(F.VRegs.size());
    L.Blocks.forEach([&](size_t B) {
      if (B == Dia.A1 || B == Dia.A2)
        return;
      for (const Instr &I : F.Blocks[B]->Instrs)
        if (I.Dst != NoVReg)
          LoopDefs.set(static_cast<size_t>(I.Dst));
    });

    const Instr &Br = F.Blocks[Dia.D]->terminator();
    if (Br.A.isReg() && LoopDefs.test(static_cast<size_t>(Br.A.R)))
      continue; // Variant condition.

    bool ArmsInvariant = true;
    for (unsigned A : {Dia.A1, Dia.A2}) {
      const BasicBlock &Arm = *F.Blocks[A];
      for (size_t I = 0; I + 1 < Arm.Instrs.size(); ++I) {
        const Instr &Ins = Arm.Instrs[I];
        if (!Ins.isPure() || Ins.Dst == NoVReg ||
            (Ins.A.isReg() && LoopDefs.test(static_cast<size_t>(Ins.A.R))) ||
            (Ins.B.isReg() && LoopDefs.test(static_cast<size_t>(Ins.B.R)))) {
          ArmsInvariant = false;
          break;
        }
      }
    }
    if (!ArmsInvariant)
      continue;

    // Build the hoisted copy of the diamond ahead of the preheader's jump.
    unsigned Pre = ensurePreheader(F, L);
    BasicBlock *ND = F.newBlock();
    BasicBlock *NA1 = F.newBlock();
    BasicBlock *NA2 = F.newBlock();
    BasicBlock *NJ = F.newBlock();

    BasicBlock &PreBB = *F.Blocks[Pre];
    unsigned LoopEntry = PreBB.terminator().Target0;
    PreBB.Instrs.back() = Instr::jump(ND->Id);

    Instr NewBr = F.Blocks[Dia.D]->terminator();
    NewBr.Target0 = NA1->Id;
    NewBr.Target1 = NA2->Id;
    ND->Instrs.push_back(NewBr);

    auto MoveArm = [&](unsigned From, BasicBlock *To) {
      BasicBlock &Arm = *F.Blocks[From];
      for (size_t I = 0; I + 1 < Arm.Instrs.size(); ++I)
        To->Instrs.push_back(Arm.Instrs[I]);
      To->Instrs.push_back(Instr::jump(NJ->Id));
      Arm.Instrs.clear();
      Arm.Instrs.push_back(Instr::jump(Dia.J));
    };
    MoveArm(Dia.A1, NA1);
    MoveArm(Dia.A2, NA2);
    NJ->Instrs.push_back(Instr::jump(LoopEntry));

    // Inside the loop the diamond decision disappears.
    F.Blocks[Dia.D]->Instrs.back() = Instr::jump(Dia.J);

    F.removeUnreachableBlocks();
    return true;
  }
  return false;
}

//===----------------------------------------------------------------------===//
// Loop unswitching (path splitting, Figure 2)
//===----------------------------------------------------------------------===//

bool opt::unswitchLoops(Function &F, Scratch &S) {
  S.Loops.recompute(F);
  for (const Loop &L : S.Loops.loops()) {
    DynBitset LoopDefs(F.VRegs.size());
    L.Blocks.forEach([&](size_t B) {
      for (const Instr &I : F.Blocks[B]->Instrs)
        if (I.Dst != NoVReg)
          LoopDefs.set(static_cast<size_t>(I.Dst));
    });

    // Find an invariant two-way branch fully inside the loop.
    int DId = -1;
    L.Blocks.forEach([&](size_t B) {
      if (DId >= 0)
        return;
      const BasicBlock &BB = *F.Blocks[B];
      if (!BB.hasTerminator() || BB.terminator().Op != Opcode::Branch)
        return;
      const Instr &Br = BB.terminator();
      if (Br.Target0 == Br.Target1)
        return;
      if (!L.contains(Br.Target0) || !L.contains(Br.Target1))
        return;
      if (Br.A.isReg() && LoopDefs.test(static_cast<size_t>(Br.A.R)))
        return;
      DId = static_cast<int>(B);
    });
    if (DId < 0)
      continue;

    unsigned Pre = ensurePreheader(F, L);
    Instr Cond = F.Blocks[DId]->terminator();

    // Clone every loop block; targets inside the loop are remapped.
    std::map<unsigned, unsigned> CloneOf;
    L.Blocks.forEach([&](size_t B) {
      BasicBlock *C = F.newBlock();
      CloneOf[static_cast<unsigned>(B)] = C->Id;
    });
    L.Blocks.forEach([&](size_t B) {
      BasicBlock *C = F.Blocks[CloneOf[static_cast<unsigned>(B)]].get();
      C->Instrs = F.Blocks[B]->Instrs;
      if (C->hasTerminator()) {
        Instr &T = C->Instrs.back();
        if (T.Op == Opcode::Jump || T.Op == Opcode::Branch) {
          auto It = CloneOf.find(T.Target0);
          if (It != CloneOf.end())
            T.Target0 = It->second;
          if (T.Op == Opcode::Branch) {
            auto It1 = CloneOf.find(T.Target1);
            if (It1 != CloneOf.end())
              T.Target1 = It1->second;
          }
        }
      }
    });

    // Resolve the branch: original loop takes the true arm, clone the
    // false arm.
    unsigned TrueArm = F.Blocks[DId]->terminator().Target0;
    unsigned FalseArmClone =
        CloneOf.count(Cond.Target1) ? CloneOf[Cond.Target1] : Cond.Target1;
    F.Blocks[DId]->Instrs.back() = Instr::jump(TrueArm);
    BasicBlock &CloneD = *F.Blocks[CloneOf[static_cast<unsigned>(DId)]];
    CloneD.Instrs.back() = Instr::jump(FalseArmClone);

    // Dispatch on the invariant condition ahead of the loop.
    BasicBlock *Dispatch = F.newBlock();
    BasicBlock &PreBB = *F.Blocks[Pre];
    unsigned Header = PreBB.terminator().Target0;
    PreBB.Instrs.back() = Instr::jump(Dispatch->Id);
    Instr Br;
    Br.Op = Opcode::Branch;
    Br.A = Cond.A;
    Br.Target0 = Header;
    Br.Target1 = CloneOf[Header];
    Dispatch->Instrs.push_back(Br);

    F.removeUnreachableBlocks();
    return true;
  }
  return false;
}
