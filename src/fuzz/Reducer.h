//===- fuzz/Reducer.h - Greedy test-case reducer ----------------*- C++ -*-===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shrinks a diverging program while the divergence keeps reproducing.
/// Works on the generator's structured form (GProgram), so every candidate
/// re-renders as syntactically valid MG; semantic validity is enforced by
/// the predicate itself (a candidate whose reference run no longer
/// compiles or succeeds is rejected).
///
/// Candidate transformations, tried greedily with restart-on-accept:
///   - drop a statement (any block, outermost first);
///   - drop a whole procedure or a global VAR group (pre-filtered by a
///     textual use check to avoid pointless compiles);
///   - shrink a FOR bound to its lower bound, or halve it;
///   - replace an IF with its THEN or ELSE branch, a WHILE with one body
///     iteration;
///   - inline a WITH block (substitute the aliased designator for the
///     alias in the body).
///
//===----------------------------------------------------------------------===//

#ifndef MGC_FUZZ_REDUCER_H
#define MGC_FUZZ_REDUCER_H

#include "fuzz/Generator.h"
#include "fuzz/Oracle.h"

#include <functional>

namespace mgc {
namespace fuzz {

/// Returns true while the candidate still exhibits the divergence.
using FailPredicate = std::function<bool(const GProgram &)>;

struct ReduceStats {
  unsigned Tries = 0;    ///< Oracle evaluations spent.
  unsigned Accepted = 0; ///< Candidates that kept the divergence.
};

/// Greedily reduces \p P under \p StillFails, spending at most
/// \p MaxTries predicate evaluations.
GProgram reduceProgram(const GProgram &P, const FailPredicate &StillFails,
                       unsigned MaxTries = 600,
                       ReduceStats *Stats = nullptr);

/// Reduces \p P, on which the oracle found \p Found (a divergence with a
/// clean reference run), while the divergence keeps reproducing.  A
/// candidate's reference run may retire ten times the instructions of
/// \p P's: one that no longer terminates is rejected at that cost, not
/// at the matrix's own budget.
GProgram reduceDivergence(const GProgram &P, const OracleResult &Found,
                          unsigned MaxTries, ReduceStats *Stats = nullptr);

} // namespace fuzz
} // namespace mgc

#endif // MGC_FUZZ_REDUCER_H
