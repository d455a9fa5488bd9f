//===- analysis/Derivations.cpp -------------------------------------------===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//

#include "analysis/Derivations.h"

#include <algorithm>
#include <cassert>
#include <set>

using namespace mgc;
using namespace mgc::analysis;
using namespace mgc::ir;

void Derivation::add(VReg R, int Coeff) {
  for (size_t I = 0; I != Bases.size(); ++I) {
    if (Bases[I].first == R) {
      Bases[I].second += Coeff;
      if (Bases[I].second == 0)
        Bases.erase(Bases.begin() + static_cast<long>(I));
      return;
    }
    if (Bases[I].first > R) {
      Bases.insert(Bases.begin() + static_cast<long>(I), {R, Coeff});
      return;
    }
  }
  Bases.emplace_back(R, Coeff);
}

void Derivation::addAll(const Derivation &O, int Sign) {
  for (const auto &[R, C] : O.Bases)
    add(R, Sign * C);
}

std::string Derivation::str() const {
  std::string S;
  for (const auto &[R, C] : Bases) {
    S += C >= 0 ? "+" : "-";
    int A = C >= 0 ? C : -C;
    if (A != 1)
      S += std::to_string(A) + "*";
    S += "%" + std::to_string(R);
  }
  if (S.empty())
    S = "(E only)";
  return S;
}

std::vector<VReg> DerivState::baseVRegs() const {
  std::vector<VReg> Out;
  if (K == Kind::Single)
    for (const auto &[R, C] : D.Bases)
      Out.push_back(R);
  if (K == Kind::Ambiguous) {
    for (const Derivation &Alt : Alts)
      for (const auto &[R, C] : Alt.Bases)
        Out.push_back(R);
    std::sort(Out.begin(), Out.end());
    Out.erase(std::unique(Out.begin(), Out.end()), Out.end());
  }
  return Out;
}

namespace {
/// The state with exactly the alternatives \p Alts (never empty).
DerivState fromAlts(const std::set<Derivation> &Alts) {
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

void insertAlts(std::set<Derivation> &Into, const DerivState &S) {
  if (S.K == DerivState::Kind::Single)
    Into.insert(S.D);
  else
    Into.insert(S.Alts.begin(), S.Alts.end());
}

uint64_t pairKey(uint32_t A, uint32_t B) {
  return static_cast<uint64_t>(A) << 32 | B;
}
} // namespace

size_t DerivationAnalysis::StateHash::operator()(const DerivState &S) const {
  size_t H = static_cast<size_t>(S.K);
  auto Mix = [&](const Derivation &D) {
    for (const auto &[R, C] : D.Bases)
      H = (H ^ static_cast<size_t>(R) * 31 ^ static_cast<size_t>(C)) *
          0x100000001b3ull;
    H = (H ^ 0xff) * 0x100000001b3ull;
  };
  Mix(S.D);
  for (const Derivation &Alt : S.Alts)
    Mix(Alt);
  return H;
}

DerivationAnalysis::StateId DerivationAnalysis::intern(DerivState S) {
  auto [It, Inserted] = Ids.try_emplace(S, static_cast<StateId>(States.size()));
  if (Inserted) {
    StateBases.push_back(S.baseVRegs());
    States.push_back(std::move(S));
  }
  return It->second;
}

/// The state an operand contributes: a non-derived pointer-like vreg is its
/// own (single) base; a derived vreg contributes its current state (Unknown
/// when used before defined, on a dead path); an immediate or a non-pointer
/// contributes nothing (part of E).
DerivationAnalysis::StateId
DerivationAnalysis::operandState(const Operand &O,
                                 const std::vector<StateId> &State) {
  if (!O.isReg())
    return EOnly;
  int Slot = slotOf(O.R);
  if (Slot >= 0)
    return State[static_cast<size_t>(Slot)] == Absent
               ? Unknown
               : State[static_cast<size_t>(Slot)];
  StateId &Memo = OperandMemo[static_cast<size_t>(O.R)];
  if (Memo == Absent) {
    if (F.kindOf(O.R) == PtrKind::NonPtr) {
      Memo = EOnly;
    } else {
      DerivState S;
      S.K = DerivState::Kind::Single;
      S.D.add(O.R, 1);
      Memo = intern(std::move(S));
    }
  }
  return Memo;
}

DerivationAnalysis::StateId DerivationAnalysis::diff(StateId A, StateId B) {
  if (A == Unknown || B == Unknown)
    return Unknown;
  auto [It, Inserted] = DiffMemo.try_emplace(pairKey(A, B), Absent);
  if (!Inserted)
    return It->second;
  std::set<Derivation> AltsA, AltsB, Result;
  insertAlts(AltsA, States[A]);
  insertAlts(AltsB, States[B]);
  for (const Derivation &DA : AltsA)
    for (const Derivation &DB : AltsB) {
      Derivation D = DA;
      D.addAll(DB, -1);
      Result.insert(std::move(D));
    }
  return It->second = intern(fromAlts(Result));
}

DerivationAnalysis::StateId DerivationAnalysis::merge(StateId T, StateId S) {
  auto [It, Inserted] = MergeMemo.try_emplace(pairKey(T, S), Absent);
  if (!Inserted)
    return It->second;
  std::set<Derivation> Alts;
  insertAlts(Alts, States[T]);
  insertAlts(Alts, States[S]);
  return It->second = intern(fromAlts(Alts));
}

void DerivationAnalysis::transfer(const Instr &I,
                                  std::vector<StateId> &State) {
  if (I.Dst == NoVReg || slotOf(I.Dst) < 0)
    return;
  StateId &Dst = State[static_cast<size_t>(slotOf(I.Dst))];
  switch (I.Op) {
  case Opcode::Mov:
  case Opcode::DeriveAdd:
  case Opcode::DeriveSub:
    // The integer offset operand of a DeriveAdd/Sub is part of E; only the
    // base matters.
    Dst = operandState(I.A, State);
    return;
  case Opcode::DeriveDiff: {
    StateId A = operandState(I.A, State);
    Dst = diff(A, operandState(I.B, State));
    return;
  }
  default:
    assert(false && "derived vreg defined by a non-derive instruction");
    return;
  }
}

/// Joins a predecessor's exit state into a block's entry state.  A vreg the
/// entry lacks takes the incoming state as is, Unknown included; otherwise
/// Unknown gives way to any defined state, and two distinct defined states
/// merge their alternatives.
bool DerivationAnalysis::joinInto(StateId *Into,
                                  const std::vector<StateId> &From) {
  bool Changed = false;
  for (size_t K = 0; K != From.size(); ++K) {
    StateId S = From[K], T = Into[K];
    if (S == Absent || S == T)
      continue;
    if (T != Absent && T != Unknown) {
      if (S == Unknown)
        continue;
      S = merge(T, S);
      if (S == T)
        continue;
    }
    Into[K] = S;
    Changed = true;
  }
  return Changed;
}

DerivationAnalysis::DerivationAnalysis(const Function &F) : F(F) {
  SlotOf.assign(F.VRegs.size(), -1);
  for (size_t R = 0; R != F.VRegs.size(); ++R)
    if (F.VRegs[R].Kind == PtrKind::Derived) {
      SlotOf[R] = static_cast<int>(Derived.size());
      Derived.push_back(static_cast<VReg>(R));
    }
  if (Derived.empty())
    return;

  States.resize(2); // Absent and Unknown.
  StateBases.resize(2);
  Ids.emplace(DerivState(), Unknown);
  DerivState E;
  E.K = DerivState::Kind::Single;
  EOnly = intern(std::move(E));
  OperandMemo.assign(F.VRegs.size(), Absent);

  // Rounds over the blocks in reverse post-order, joining into successors
  // in CFG order, until nothing changes.  A block whose entry state did not
  // change since its last visit would join the same exit state again,
  // which changes nothing, so it is skipped.
  size_t N = Derived.size();
  In.assign(F.Blocks.size() * N, Absent);
  std::vector<unsigned> Order = F.reversePostOrder();
  std::vector<char> Dirty(F.Blocks.size(), 1);
  std::vector<StateId> State;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (unsigned B : Order) {
      if (!Dirty[B])
        continue;
      Dirty[B] = 0;
      blockInIds(B, State);
      for (const Instr &I : F.Blocks[B]->Instrs)
        transfer(I, State);
      F.Blocks[B]->forEachSuccessor([&](unsigned Succ) {
        if (joinInto(In.data() + Succ * N, State)) {
          Dirty[Succ] = 1;
          Changed = true;
        }
      });
    }
  }
}

bool DerivationAnalysis::anyAmbiguous() const {
  return std::any_of(States.begin(), States.end(), [](const DerivState &S) {
    return S.K == DerivState::Kind::Ambiguous;
  });
}

void DerivationAnalysis::blockInIds(unsigned Block,
                                    std::vector<StateId> &State) const {
  size_t N = Derived.size();
  State.assign(In.begin() + static_cast<long>(Block * N),
               In.begin() + static_cast<long>((Block + 1) * N));
}

ExtraUses DerivationAnalysis::computeExtraUses() {
  ExtraUses Extra;
  if (Derived.empty())
    return Extra;
  size_t NumInstrs = 0;
  for (const auto &BB : F.Blocks)
    NumInstrs += BB->Instrs.size();
  Extra.BlockBase.reserve(F.Blocks.size());
  Extra.Begin.reserve(NumInstrs + 1);
  Extra.Begin.push_back(0);
  std::vector<StateId> State;
  for (const auto &BB : F.Blocks) {
    Extra.BlockBase.push_back(static_cast<uint32_t>(Extra.Begin.size() - 1));
    blockInIds(BB->Id, State);
    for (const Instr &I : BB->Instrs) {
      size_t Start = Extra.VRegs.size();
      unsigned DerivedUses = 0;
      I.forEachUse([&](VReg R) {
        int Slot = slotOf(R);
        if (Slot < 0)
          return;
        ++DerivedUses;
        const std::vector<VReg> &Bases =
            StateBases[State[static_cast<size_t>(Slot)]];
        Extra.VRegs.insert(Extra.VRegs.end(), Bases.begin(), Bases.end());
      });
      if (DerivedUses > 1) {
        auto First = Extra.VRegs.begin() + static_cast<long>(Start);
        std::sort(First, Extra.VRegs.end());
        Extra.VRegs.erase(std::unique(First, Extra.VRegs.end()),
                          Extra.VRegs.end());
      }
      Extra.Begin.push_back(static_cast<uint32_t>(Extra.VRegs.size()));
      transfer(I, State);
    }
  }
  return Extra;
}
