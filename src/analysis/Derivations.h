//===- analysis/Derivations.h - Derived-value dataflow ----------*- C++ -*-===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Forward dataflow computing, at every program point, how each live
/// derived value was derived: a signed multiset of *non-derived* base vregs
/// (Tidy heap pointers, IncomingAddr VAR parameters, or FrameAddr values)
/// plus an implicit pointer-free remainder E, exactly the model of §3:
///
///     a  =  Σ pi  −  Σ qj  +  E
///
/// Chained derivations collapse onto their ultimate bases (so the strength
/// reduction self-update `p := p + 4` keeps base A), and DeriveDiff unions
/// negated bases (double indexing yields {+B, −A}).  When different
/// derivations of the same vreg merge at a join point the state becomes
/// Ambiguous, listing every alternative — the trigger for the paper's path
/// variables or path splitting (§4).
///
/// The solver interns every state it meets, so within one analysis a state
/// is a small integer id.  A program point's state is one id per Derived
/// vreg of the function, and joins and DeriveDiff combinations are
/// memoized on id pairs, so the optimizer can rebuild the analysis after
/// every change at little cost.
///
//===----------------------------------------------------------------------===//

#ifndef MGC_ANALYSIS_DERIVATIONS_H
#define MGC_ANALYSIS_DERIVATIONS_H

#include "analysis/Liveness.h"
#include "ir/IR.h"

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace mgc {
namespace analysis {

/// A signed multiset of base vregs.  Coefficients are small integers
/// (almost always ±1); entries are sorted by vreg and never zero.
struct Derivation {
  std::vector<std::pair<ir::VReg, int>> Bases;

  void add(ir::VReg R, int Coeff);
  void addAll(const Derivation &O, int Sign);
  bool operator==(const Derivation &O) const { return Bases == O.Bases; }
  bool operator<(const Derivation &O) const { return Bases < O.Bases; }
  std::string str() const;
};

/// The abstract state of one derived vreg at a program point.
struct DerivState {
  enum class Kind {
    Unknown,   ///< Not yet defined on this path.
    Single,    ///< One derivation reaches.
    Ambiguous, ///< Multiple distinct derivations reach (§4).
  };
  Kind K = Kind::Unknown;
  Derivation D;                 ///< Single.
  std::vector<Derivation> Alts; ///< Ambiguous (sorted, deduplicated).

  bool operator==(const DerivState &O) const {
    return K == O.K && D == O.D && Alts == O.Alts;
  }

  /// All base vregs across all alternatives.
  std::vector<ir::VReg> baseVRegs() const;
};

class DerivationAnalysis {
public:
  /// A state's id within this analysis.
  using StateId = uint32_t;
  /// No definition of the vreg reaches on any path yet.
  static constexpr StateId Absent = 0;
  /// A definition reaches, but it derives from a vreg used before being
  /// defined (DerivState::Kind::Unknown).
  static constexpr StateId Unknown = 1;

  explicit DerivationAnalysis(const ir::Function &F);

  /// The function's Derived vregs in ascending order.  A state vector holds
  /// one id per entry, in this order.
  const std::vector<ir::VReg> &derivedVRegs() const { return Derived; }
  /// The position of \p R in a state vector, or -1 when R is not Derived.
  int slotOf(ir::VReg R) const { return SlotOf[static_cast<size_t>(R)]; }

  /// The state behind an id; Absent reads as Kind::Unknown.
  const DerivState &state(StateId Id) const { return States[Id]; }
  /// Whether any state the solver met is Ambiguous.  When false, no point
  /// of the function has an ambiguous derivation.
  bool anyAmbiguous() const;

  /// Sets \p State to the ids at entry to \p Block.
  void blockInIds(unsigned Block, std::vector<StateId> &State) const;
  /// Applies one instruction's effect to \p State (a state vector), so
  /// clients can walk a block forward.
  void transfer(const ir::Instr &I, std::vector<StateId> &State);

  /// The extra uses for Liveness implementing the dead-base rule: any
  /// instruction using a derived vreg also uses that vreg's bases (as
  /// derived at that point).
  ExtraUses computeExtraUses();

private:
  struct StateHash {
    size_t operator()(const DerivState &S) const;
  };

  StateId intern(DerivState S);
  StateId operandState(const ir::Operand &O,
                       const std::vector<StateId> &State);
  /// A − B over all alternatives; either being Unknown gives Unknown.
  StateId diff(StateId A, StateId B);
  /// Union of the alternatives of two distinct defined states.
  StateId merge(StateId T, StateId S);
  bool joinInto(StateId *Into, const std::vector<StateId> &From);

  const ir::Function &F;
  std::vector<ir::VReg> Derived;
  std::vector<int> SlotOf;
  /// Block-major: Derived.size() ids per block.
  std::vector<StateId> In;

  std::vector<DerivState> States;
  std::vector<std::vector<ir::VReg>> StateBases; ///< Each state's baseVRegs().
  std::unordered_map<DerivState, StateId, StateHash> Ids;
  std::unordered_map<uint64_t, StateId> MergeMemo, DiffMemo;
  /// Per non-derived vreg: the state it contributes as an operand (Absent
  /// until first needed).
  std::vector<StateId> OperandMemo;
  StateId EOnly = Absent; ///< The empty derivation: E only.
};

} // namespace analysis
} // namespace mgc

#endif // MGC_ANALYSIS_DERIVATIONS_H
