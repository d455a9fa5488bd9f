//===- opt/Passes.h - Optimization passes -----------------------*- C++ -*-===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The optimization passes.  Each returns true when it changed the
/// function.  Together they reproduce the derived-value-creating
/// optimizations §2 of the paper lists:
///
///   - reduceStrength: array-walk loops become pointer increments
///     (`*p++ = 13`), leaving the original base possibly dead (§4's dead
///     base problem).
///   - rewriteVirtualOrigins: `base + (i-lo)*s` becomes
///     `(base - lo*s) + i*s`, a derived pointer that can point *outside*
///     its object.
///   - cseLocal: shares address subexpressions (`&A[i]` reused for
///     `A[i,j]` and `A[i,k]`).
///   - hoistLoopInvariants: speculatively hoists pure invariant
///     computations (including Derive*) to preheaders.
///   - mergeDiamondTails + hoistInvariantDiamonds: cross-jumping of
///     diamond arms and hoisting of invariant diamonds, which together
///     manufacture §4's *ambiguous derivations* (resolved later with path
///     variables).
///   - unswitchLoops: the alternative *path splitting* transformation of
///     Figure 2 — duplicates the loop so each copy sees one derivation.
///
//===----------------------------------------------------------------------===//

#ifndef MGC_OPT_PASSES_H
#define MGC_OPT_PASSES_H

#include "analysis/Liveness.h"
#include "analysis/Loops.h"
#include "ir/IR.h"

#include <cstdint>
#include <vector>

namespace mgc {
namespace opt {

/// One available expression of local CSE and the vreg holding its value.
struct AvailableExpr {
  ir::Opcode Op = ir::Opcode::Mov;
  ir::Operand A, B;
  int64_t Disp = 0;
  int Index = 0;
  ir::VReg Holder = ir::NoVReg;
};

/// Storage the passes reuse from call to call.  driver::compile keeps one
/// per compile and hands it to every pass call, so a pass refills what
/// earlier calls grew instead of allocating it again; no member carries
/// meaning from one call to the next.  The form of each pass without a
/// Scratch uses a fresh one.
struct Scratch {
  // propagateCopiesLocal: each vreg's known value, and the vregs with one.
  std::vector<ir::Operand> Env;
  std::vector<ir::VReg> Keys;
  // cseLocal: the block's available expressions.
  std::vector<AvailableExpr> Exprs;
  // simplifyCFG.
  std::vector<unsigned> Seen;
  ir::Predecessors Preds;
  // eliminateDeadCode.
  analysis::Liveness Live;
  analysis::ExtraUses Extra;
  DynBitset LiveSet;
  std::vector<char> Dead, MayBeBase;
  // The loop and diamond passes.
  analysis::LoopInfo Loops;
  std::vector<unsigned> Defs;

  /// Sets Defs to the number of definitions of each vreg of \p F,
  /// parameters counting as defined on entry.
  void countDefs(const ir::Function &F);
};

/// Constant folding and trivial algebraic simplification.
bool foldConstants(ir::Function &F, Scratch &S);

/// Block-local copy and constant propagation.
bool propagateCopiesLocal(ir::Function &F, Scratch &S);

/// Block-local common subexpression elimination over pure instructions.
bool cseLocal(ir::Function &F, Scratch &S);

/// Jump threading, merging of straight-line block pairs, unreachable-block
/// removal.
bool simplifyCFG(ir::Function &F, Scratch &S);

/// Removes pure instructions whose results are dead.  Liveness includes the
/// dead-base extension so derivation bases are never dropped while a value
/// derived from them lives.
bool eliminateDeadCode(ir::Function &F, Scratch &S);

/// Loop-invariant code motion of single-def pure instructions.
bool hoistLoopInvariants(ir::Function &F, Scratch &S);

/// Classic strength reduction of `base + (i*s)` address computations on
/// basic induction variables.
bool reduceStrength(ir::Function &F, Scratch &S);

/// The virtual array origin rewrite for non-zero lower bounds.
bool rewriteVirtualOrigins(ir::Function &F, Scratch &S);

/// Cross-jumping: merges structurally identical diamond arms, introducing
/// merged vregs (and, for pointer operands, merged derived values).
bool mergeDiamondTails(ir::Function &F, Scratch &S);

/// Hoists a fully invariant diamond (invariant condition, invariant pure
/// arms) out of its loop.  After mergeDiamondTails this leaves an
/// ambiguously derived value live across the loop.
bool hoistInvariantDiamonds(ir::Function &F, Scratch &S);

/// Loop unswitching on an invariant branch: duplicates the loop per arm
/// (the paper's path-splitting alternative, Figure 2).
bool unswitchLoops(ir::Function &F, Scratch &S);

// The passes with a fresh Scratch.
inline bool foldConstants(ir::Function &F) {
  Scratch S;
  return foldConstants(F, S);
}
inline bool propagateCopiesLocal(ir::Function &F) {
  Scratch S;
  return propagateCopiesLocal(F, S);
}
inline bool cseLocal(ir::Function &F) {
  Scratch S;
  return cseLocal(F, S);
}
inline bool simplifyCFG(ir::Function &F) {
  Scratch S;
  return simplifyCFG(F, S);
}
inline bool eliminateDeadCode(ir::Function &F) {
  Scratch S;
  return eliminateDeadCode(F, S);
}
inline bool hoistLoopInvariants(ir::Function &F) {
  Scratch S;
  return hoistLoopInvariants(F, S);
}
inline bool reduceStrength(ir::Function &F) {
  Scratch S;
  return reduceStrength(F, S);
}
inline bool rewriteVirtualOrigins(ir::Function &F) {
  Scratch S;
  return rewriteVirtualOrigins(F, S);
}
inline bool mergeDiamondTails(ir::Function &F) {
  Scratch S;
  return mergeDiamondTails(F, S);
}
inline bool hoistInvariantDiamonds(ir::Function &F) {
  Scratch S;
  return hoistInvariantDiamonds(F, S);
}
inline bool unswitchLoops(ir::Function &F) {
  Scratch S;
  return unswitchLoops(F, S);
}

} // namespace opt
} // namespace mgc

#endif // MGC_OPT_PASSES_H
