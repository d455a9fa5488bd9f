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
  explicit LoopInfo(const ir::Function &F);

  const std::vector<Loop> &loops() const { return Loops; }

private:
  std::vector<Loop> Loops;
};

/// Ensures the loop has a preheader: a block that is the unique non-loop
/// predecessor of the header, ending in an unconditional jump to it.
/// Creates one (appending a block and rewriting edges) when needed.
/// Invalidates LoopInfo; returns the preheader's block id.
unsigned ensurePreheader(ir::Function &F, const Loop &L);

} // namespace analysis
} // namespace mgc

#endif // MGC_ANALYSIS_LOOPS_H
