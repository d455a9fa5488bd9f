//===- analysis/Loops.h - Natural loop detection ----------------*- C++ -*-===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Natural-loop discovery for the loop optimizations (LICM, strength
/// reduction) and for §5.3's rule that every loop without a guaranteed
/// gc-point receives a poll.  The front end produces reducible CFGs, so back
/// edges found by DFS identify natural loops.
///
//===----------------------------------------------------------------------===//

#ifndef MGC_ANALYSIS_LOOPS_H
#define MGC_ANALYSIS_LOOPS_H

#include "ir/IR.h"
#include "support/DynBitset.h"

#include <span>
#include <utility>
#include <vector>

namespace mgc {
namespace analysis {

struct Loop {
  unsigned Header = 0;
  std::vector<unsigned> Latches; ///< Sources of back edges into Header.
  DynBitset Blocks;              ///< Body including the header.
  int Parent = -1;               ///< Index of the innermost enclosing loop.
  unsigned Depth = 1;

  bool contains(unsigned Block) const { return Blocks.test(Block); }
};

class LoopInfo {
public:
  /// No loops, for recompute() to fill.
  LoopInfo() = default;
  explicit LoopInfo(const ir::Function &F) { recompute(F); }

  /// Finds the loops of \p F again, reusing this object's storage.
  void recompute(const ir::Function &F);

  std::span<const Loop> loops() const { return {Loops.data(), NumLoops}; }

private:
  /// The first NumLoops entries are the loops; any after them only keep
  /// their storage for later calls, as do the search's vectors below.
  std::vector<Loop> Loops;
  size_t NumLoops = 0;
  std::vector<uint8_t> State;
  std::vector<std::pair<unsigned, size_t>> Stack;
  std::vector<std::pair<unsigned, unsigned>> BackEdges;
  std::vector<unsigned> Work;
  ir::Predecessors Preds;
};

/// Ensures the loop has a preheader: a block that is the unique non-loop
/// predecessor of the header, ending in an unconditional jump to it.
/// Creates one (appending a block and rewriting edges) when needed.
/// Invalidates LoopInfo; returns the preheader's block id.
unsigned ensurePreheader(ir::Function &F, const Loop &L);

} // namespace analysis
} // namespace mgc

#endif // MGC_ANALYSIS_LOOPS_H
