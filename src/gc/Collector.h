//===- gc/Collector.h - Precise compacting collection -----------*- C++ -*-===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The table-driven collectors:
///
///  - installPreciseCollector: a two-space copying (Cheney) collector whose
///    root enumeration is driven entirely by the compile-time tables.  The
///    stack walk extracts return addresses, maps each to its gc-point
///    (§3's pc→tables search), reconstructs register contents from
///    callee-save areas, and applies the derived-value update protocol:
///    un-derive (callee before caller, §3's ordering), trace and update
///    every tidy root, copy/scan, then re-derive in exactly reverse order.
///
///  - conservativeTrace: an ambiguous-roots baseline in the style of
///    Boehm-Weiser (§7): every word of every stack, register file, and the
///    global area is tested against the heap; no object moves.  Used by
///    the ablation benchmarks to ground the precise-vs-conservative
///    comparison.
///
//===----------------------------------------------------------------------===//

#ifndef MGC_GC_COLLECTOR_H
#define MGC_GC_COLLECTOR_H

#include "vm/VM.h"

#include <cstdint>
#include <unordered_set>

namespace mgc {
namespace gc {

/// How the precise collector resolves gc-point tables.
struct CollectorOptions {
  /// Use the load-time FuncMapIndex + decoded-point cache (MapIndex.h).
  /// When false, every frame decodes through the reference walk-from-start
  /// decoder — the §6.3 measured artifact (`--no-map-index` in mgc).
  bool UseMapIndex = true;
  /// Re-decode every gc-point through the reference decoder as well and
  /// abort on any disagreement with the indexed/cached result; after every
  /// collection, also abort unless every reachable pointer lands on a
  /// copied object (minor: none left in the evacuated nursery half; full:
  /// every root and field on an object header in to-space).
  bool CrossCheck = false;
};

/// Installs the precise copying collector on \p M.  The collector's decode
/// state (point cache, root/derived buffers) persists across collections,
/// so steady-state collections perform no decode allocations.
void installPreciseCollector(vm::VM &M, const CollectorOptions &Opts = {});

/// Statistics of a conservative (non-moving) trace.
struct ConservativeStats {
  uint64_t WordsScanned = 0;
  uint64_t CandidatePointers = 0;
  uint64_t ObjectsReached = 0;
  uint64_t Nanos = 0;
};

/// Scans every word of all thread stacks, register files, and globals as a
/// potential pointer and marks transitively reachable objects, without
/// moving anything.  Returns counts and timing.  When \p MarkedOut is
/// non-null the reached object addresses are also copied into it (the
/// snapshot cross-check's superset test).
ConservativeStats conservativeTrace(vm::VM &M,
                                    std::unordered_set<vm::Word> *MarkedOut =
                                        nullptr);

} // namespace gc
} // namespace mgc

#endif // MGC_GC_COLLECTOR_H
