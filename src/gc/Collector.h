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
///    stack walk (vm/FrameWalk.h) extracts return addresses, maps each to
///    its gc-point (§3's pc→tables search) and reconstructs register
///    contents from callee-save areas; the collector applies the
///    derived-value update protocol:
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

/// Installs the precise copying collector on \p M.  It decodes gc-points
/// the way \p M's options say (VMOptions::UseMapIndex, CrossCheck), and
/// its decode state (point cache, root/derived buffers) persists across
/// collections, so steady-state collections perform no decode allocations.
void installPreciseCollector(vm::VM &M);

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
