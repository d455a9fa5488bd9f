//===- tests/ReferenceSolvers.h - Map-based reference analyses --*- C++ -*-===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Straightforward reference implementations of the derivation and
/// liveness fixpoints, kept only for testing the interned and block-summary
/// solvers in src/analysis/ against them, plus map views of the interned
/// derivation states for assertions.  The derivation solver keeps one
/// std::map of full DerivStates per block and joins them structurally; the
/// liveness solver applies every instruction's transfer in every round and
/// looks extra uses up in a std::map keyed by (block, index).  Both iterate
/// in the same order as the production solvers.  The reference dead-code
/// eliminator derives on every call, where opt::eliminateDeadCode derives
/// only when a base could die.
///
//===----------------------------------------------------------------------===//

#ifndef MGC_TESTS_REFERENCESOLVERS_H
#define MGC_TESTS_REFERENCESOLVERS_H

#include "analysis/Derivations.h"
#include "support/DynBitset.h"

#include <cassert>
#include <map>
#include <set>
#include <utility>
#include <vector>

namespace mgc {
namespace test {

/// Per-vreg derivation states; only Derived-kind vregs appear, and a vreg
/// no definition reaches has no entry.
using DerivMap = std::map<ir::VReg, analysis::DerivState>;

/// The map view of a state vector of \p DA.
inline DerivMap
toMap(const analysis::DerivationAnalysis &DA,
      const std::vector<analysis::DerivationAnalysis::StateId> &State) {
  DerivMap Map;
  for (size_t K = 0; K != State.size(); ++K)
    if (State[K] != analysis::DerivationAnalysis::Absent)
      Map.emplace(DA.derivedVRegs()[K], DA.state(State[K]));
  return Map;
}

/// The states at entry to \p Block.
inline DerivMap blockIn(const analysis::DerivationAnalysis &DA,
                        unsigned Block) {
  std::vector<analysis::DerivationAnalysis::StateId> State;
  DA.blockInIds(Block, State);
  return toMap(DA, State);
}

/// The states immediately before instruction \p Index of \p Block.
inline DerivMap stateBefore(analysis::DerivationAnalysis &DA,
                            const ir::Function &F, unsigned Block,
                            unsigned Index) {
  std::vector<analysis::DerivationAnalysis::StateId> State;
  DA.blockInIds(Block, State);
  for (unsigned I = 0; I != Index; ++I)
    DA.transfer(F.Blocks[Block]->Instrs[I], State);
  return toMap(DA, State);
}

namespace ref {

using analysis::DerivState;
using analysis::Derivation;

inline DerivState operandState(const ir::Function &F, const ir::Operand &O,
                               const DerivMap &State) {
  DerivState S;
  if (!O.isReg()) {
    S.K = DerivState::Kind::Single;
    return S;
  }
  ir::PtrKind K = F.kindOf(O.R);
  if (K == ir::PtrKind::Derived) {
    auto It = State.find(O.R);
    if (It == State.end())
      return S;
    return It->second;
  }
  S.K = DerivState::Kind::Single;
  if (K != ir::PtrKind::NonPtr)
    S.D.add(O.R, 1);
  return S;
}

inline DerivState fromAlts(const std::set<Derivation> &Alts) {
  DerivState Out;
  if (Alts.size() == 1) {
    Out.K = DerivState::Kind::Single;
    Out.D = *Alts.begin();
  } else {
    Out.K = DerivState::Kind::Ambiguous;
    Out.Alts.assign(Alts.begin(), Alts.end());
  }
  return Out;
}

inline DerivState combine(const DerivState &A, const DerivState &B,
                          int Sign) {
  if (A.K == DerivState::Kind::Unknown || B.K == DerivState::Kind::Unknown)
    return DerivState();
  auto AltsOf = [](const DerivState &S) {
    return S.K == DerivState::Kind::Single ? std::vector<Derivation>{S.D}
                                           : S.Alts;
  };
  std::set<Derivation> Result;
  for (const Derivation &DA : AltsOf(A))
    for (const Derivation &DB : AltsOf(B)) {
      Derivation D = DA;
      D.addAll(DB, Sign);
      Result.insert(std::move(D));
    }
  return fromAlts(Result);
}

inline void transfer(const ir::Function &F, const ir::Instr &I,
                     DerivMap &State) {
  if (I.Dst == ir::NoVReg || F.kindOf(I.Dst) != ir::PtrKind::Derived)
    return;
  switch (I.Op) {
  case ir::Opcode::Mov:
  case ir::Opcode::DeriveAdd:
  case ir::Opcode::DeriveSub:
    State[I.Dst] = operandState(F, I.A, State);
    return;
  case ir::Opcode::DeriveDiff: {
    DerivState A = operandState(F, I.A, State);
    DerivState B = operandState(F, I.B, State);
    State[I.Dst] = combine(A, B, -1);
    return;
  }
  default:
    assert(false && "derived vreg defined by a non-derive instruction");
    return;
  }
}

inline void join(DerivMap &Into, const DerivMap &From, bool &Changed) {
  for (const auto &[R, S] : From) {
    auto It = Into.find(R);
    if (It == Into.end()) {
      Into[R] = S;
      Changed = true;
      continue;
    }
    DerivState &T = It->second;
    if (T == S || S.K == DerivState::Kind::Unknown)
      continue;
    if (T.K == DerivState::Kind::Unknown) {
      T = S;
      Changed = true;
      continue;
    }
    std::set<Derivation> Alts;
    for (const DerivState *X : {&std::as_const(T), &S}) {
      if (X->K == DerivState::Kind::Single)
        Alts.insert(X->D);
      else
        Alts.insert(X->Alts.begin(), X->Alts.end());
    }
    DerivState New = fromAlts(Alts);
    if (!(New == T)) {
      T = std::move(New);
      Changed = true;
    }
  }
}

/// Per-block entry states: RPO rounds until nothing changes.
inline std::vector<DerivMap> derivationIn(const ir::Function &F) {
  std::vector<DerivMap> In(F.Blocks.size());
  std::vector<unsigned> Order = F.reversePostOrder();
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (unsigned B : Order) {
      DerivMap State = In[B];
      for (const ir::Instr &I : F.Blocks[B]->Instrs)
        transfer(F, I, State);
      F.Blocks[B]->forEachSuccessor(
          [&](unsigned Succ) { join(In[Succ], State, Changed); });
    }
  }
  return In;
}

using ExtraUseMap =
    std::map<std::pair<unsigned, unsigned>, std::vector<ir::VReg>>;

/// The dead-base rule: an instruction using a derived vreg also uses that
/// vreg's bases as derived at that point.
inline ExtraUseMap extraUses(const ir::Function &F,
                             const std::vector<DerivMap> &In) {
  ExtraUseMap Extra;
  for (const auto &BB : F.Blocks) {
    DerivMap State = In[BB->Id];
    for (unsigned I = 0; I != BB->Instrs.size(); ++I) {
      const ir::Instr &Ins = BB->Instrs[I];
      std::set<ir::VReg> Bases;
      Ins.forEachUse([&](ir::VReg R) {
        if (F.kindOf(R) != ir::PtrKind::Derived)
          return;
        auto It = State.find(R);
        if (It == State.end())
          return;
        for (ir::VReg B : It->second.baseVRegs())
          Bases.insert(B);
      });
      if (!Bases.empty())
        Extra[{BB->Id, I}] =
            std::vector<ir::VReg>(Bases.begin(), Bases.end());
      transfer(F, Ins, State);
    }
  }
  return Extra;
}

/// Instruction-level backward liveness, blocks in reverse id order.
struct Liveness {
  std::vector<DynBitset> LiveIn, LiveOut;

  Liveness(const ir::Function &F, const ExtraUseMap *Extra) {
    size_t NumBlocks = F.Blocks.size(), NumVRegs = F.VRegs.size();
    LiveIn.assign(NumBlocks, DynBitset(NumVRegs));
    LiveOut.assign(NumBlocks, DynBitset(NumVRegs));
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (size_t B = NumBlocks; B-- > 0;) {
        DynBitset Out(NumVRegs);
        F.Blocks[B]->forEachSuccessor(
            [&](unsigned Succ) { Out.unionWith(LiveIn[Succ]); });
        DynBitset In = Out;
        const ir::BasicBlock &BB = *F.Blocks[B];
        for (size_t I = BB.Instrs.size(); I-- > 0;) {
          const ir::Instr &Ins = BB.Instrs[I];
          if (Ins.Dst != ir::NoVReg)
            In.reset(static_cast<size_t>(Ins.Dst));
          Ins.forEachUse([&](ir::VReg R) { In.set(static_cast<size_t>(R)); });
          if (Extra) {
            auto It = Extra->find({static_cast<unsigned>(B),
                                   static_cast<unsigned>(I)});
            if (It != Extra->end())
              for (ir::VReg R : It->second)
                In.set(static_cast<size_t>(R));
          }
        }
        if (!(Out == LiveOut[B])) {
          LiveOut[B] = std::move(Out);
          Changed = true;
        }
        if (!(In == LiveIn[B])) {
          LiveIn[B] = std::move(In);
          Changed = true;
        }
      }
    }
  }
};

/// Dead-code elimination with the dead-base rule applied on every call:
/// derive once, then sweep every block backward, deleting dead pure
/// definitions and self-moves, until a sweep deletes nothing; a deletion
/// drops its rows from the extra uses and solves liveness again.
inline bool eliminateDeadCode(ir::Function &F) {
  analysis::ExtraUses Extra =
      analysis::DerivationAnalysis(F).computeExtraUses();
  bool Changed = false;
  for (;;) {
    analysis::Liveness LV(F, &Extra);
    std::vector<char> Dead; // One flag per instruction, in Extra's numbering.
    bool Any = false;
    for (auto &BB : F.Blocks) {
      const std::vector<ir::Instr> &Instrs = BB->Instrs;
      size_t Base = Dead.size();
      Dead.resize(Base + Instrs.size(), 0);
      DynBitset Live = LV.liveOut(BB->Id);
      for (size_t I = Instrs.size(); I-- > 0;) {
        const ir::Instr &Ins = Instrs[I];
        bool SelfMove = Ins.Op == ir::Opcode::Mov && Ins.A.isReg() &&
                        Ins.A.R == Ins.Dst;
        if (SelfMove || (Ins.Dst != ir::NoVReg && Ins.isPure() &&
                         !Live.test(static_cast<size_t>(Ins.Dst)))) {
          Dead[Base + I] = 1;
          Any = true;
          continue;
        }
        LV.transfer(BB->Id, static_cast<unsigned>(I), Live);
      }
    }
    if (!Any)
      return Changed;
    Changed = true;
    size_t Flat = 0;
    for (auto &BB : F.Blocks) {
      std::vector<ir::Instr> &Instrs = BB->Instrs;
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
    Extra.erase(Dead);
  }
}

} // namespace ref
} // namespace test
} // namespace mgc

#endif // MGC_TESTS_REFERENCESOLVERS_H
