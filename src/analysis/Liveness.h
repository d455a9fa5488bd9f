//===- analysis/Liveness.h - Virtual register liveness ----------*- C++ -*-===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Backward liveness over virtual registers.  The analysis optionally
/// applies the paper's *dead base* rule (§4): every use of a derived value
/// is also treated as a use of each of its base values, which forces base
/// lifetimes to cover the lifetimes of values derived from them.  The
/// extra-uses table is supplied by the derivation analysis.
///
/// The fixpoint runs over per-block gen/kill summaries, so it allocates
/// nothing and touches no instruction after the summaries are built.
///
//===----------------------------------------------------------------------===//

#ifndef MGC_ANALYSIS_LIVENESS_H
#define MGC_ANALYSIS_LIVENESS_H

#include "ir/IR.h"
#include "support/DynBitset.h"

#include <cstdint>
#include <span>
#include <vector>

namespace mgc {
namespace analysis {

/// Extra uses attached to instructions, flat over the function: when
/// instruction (Block, Index) executes, the vregs at(Block, Index) are
/// considered used as well.  A default-constructed table attaches none.
struct ExtraUses {
  /// Flat number of each block's first instruction.
  std::vector<uint32_t> BlockBase;
  /// Flat instruction I's vregs are VRegs[Begin[I], Begin[I + 1]).
  std::vector<uint32_t> Begin;
  std::vector<ir::VReg> VRegs;

  bool empty() const { return VRegs.empty(); }
  std::span<const ir::VReg> at(unsigned Block, unsigned Index) const {
    if (VRegs.empty())
      return {};
    size_t I = BlockBase[Block] + Index;
    return {VRegs.data() + Begin[I], VRegs.data() + Begin[I + 1]};
  }

  /// Drops the rows of the flat instructions marked in \p Dead (one flag
  /// per instruction, in this table's numbering), in step with deleting
  /// those instructions from the function.
  void erase(std::span<const char> Dead);
};

class Liveness {
public:
  /// An empty solve, for compute() to fill.
  Liveness() = default;
  /// Computes liveness for \p F.  \p Extra may be null.
  Liveness(const ir::Function &F, const ExtraUses *Extra = nullptr) {
    compute(F, Extra);
  }

  /// Solves again for \p F, reusing this object's storage.  \p F and
  /// \p Extra (which may be null) must outlive the queries.
  void compute(const ir::Function &F, const ExtraUses *Extra = nullptr);

  const DynBitset &liveIn(unsigned Block) const { return LiveIn[Block]; }
  const DynBitset &liveOut(unsigned Block) const { return LiveOut[Block]; }

  /// The set of vregs live immediately *before* instruction \p Index of
  /// \p Block executes — for a call gc-point this includes the call's own
  /// arguments, which is exactly the "live at the gc-point" set the tables
  /// must describe (an active call's argument slots are still read by the
  /// callee).
  DynBitset liveBefore(unsigned Block, unsigned Index) const;

  /// The extra uses of instruction (Block, Index).
  std::span<const ir::VReg> extraUses(unsigned Block, unsigned Index) const {
    return Extra ? Extra->at(Block, Index) : std::span<const ir::VReg>();
  }

  /// Updates \p Live across instruction (Block, Index), backward.
  void transfer(unsigned Block, unsigned Index, DynBitset &Live) const;

  /// Visits instructions of \p Block backwards; \p Visit(Index, LiveBefore)
  /// sees the live set before each instruction.
  template <typename Fn> void visitBlock(unsigned Block, Fn &&Visit) const {
    const ir::BasicBlock &BB = *F->Blocks[Block];
    DynBitset Live = LiveOut[Block];
    for (size_t I = BB.Instrs.size(); I-- > 0;) {
      transfer(Block, static_cast<unsigned>(I), Live);
      Visit(static_cast<unsigned>(I), Live);
    }
  }

private:
  const ir::Function *F = nullptr;
  const ExtraUses *Extra = nullptr;
  /// Kill is every block's definitions, kept only for its storage.
  std::vector<DynBitset> LiveIn, LiveOut, Kill;
};

} // namespace analysis
} // namespace mgc

#endif // MGC_ANALYSIS_LIVENESS_H
