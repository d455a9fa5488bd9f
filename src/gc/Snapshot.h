//===- gc/Snapshot.h - Heap snapshot capture and validation -----*- C++ -*-===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Captures precise heap snapshots (obs/HeapSnapshot.h) out of a live VM.
/// The capture walks the stacks with the precise collector's walker
/// (vm/FrameWalk.h) — return-address lookup, gc-point decode, register
/// reconstruction from callee-save areas, ambiguous-derivation selection
/// through path variables — but keeps the *provenance* of every root
/// (thread, frame depth, function, slot kind and index) instead of just
/// the pointer, then breadth-first walks the object graph through the
/// heap type descriptors.  Capture is a rare, pause-time operation: it
/// always decodes through an uncached reference decoder and touches no
/// collector state, so it cannot pollute the decoded-point cache or the
/// mutator hot path.
///
/// Capture runs at safe points only: inside a VM::PostGcHook (threads
/// suspended at gc-points, heap freshly compacted) or after run() returns.
/// On VM error paths thread stacks are not at gc-points; pass
/// WalkStacks=false to take a globals-only post-mortem snapshot instead
/// (flagged in the snapshot so analyses know the node set is partial).
///
/// crosscheckSnapshot is the --gc-crosscheck / fuzz-oracle validator: the
/// snapshot's node set must equal an independently recomputed precise
/// reachable set (count and total bytes), and every node must fall inside
/// the conservative-trace superset (gc/Collector.h) — precise ⊆
/// conservative is the paper's correctness ordering.
///
//===----------------------------------------------------------------------===//

#ifndef MGC_GC_SNAPSHOT_H
#define MGC_GC_SNAPSHOT_H

#include "obs/HeapSnapshot.h"
#include "vm/VM.h"

#include <string>

namespace mgc {
namespace gc {

/// Captures the current heap graph into \p Out (cleared first; reusing one
/// snapshot across captures reuses its vector storage).  \p WalkStacks
/// must be true only when every live thread is suspended at a gc-point
/// (PostGcHook, or after a successful run when no threads remain); false
/// enumerates globals only.  Returns false and sets \p Err on a
/// malformed heap, table or frame chain (never aborts — tools report and
/// exit).
bool captureHeapSnapshot(vm::VM &M, obs::HeapSnapshot &Out, bool WalkStacks,
                         std::string &Err);

/// Validates \p S against the live VM it was just captured from:
///  - node count and total shallow bytes equal an independent precise
///    mark traversal from the same root set;
///  - every node address is inside the conservative-trace mark set.
/// Returns false and sets \p Err on any violation.
bool crosscheckSnapshot(vm::VM &M, const obs::HeapSnapshot &S,
                        bool WalkStacks, std::string &Err);

} // namespace gc
} // namespace mgc

#endif // MGC_GC_SNAPSHOT_H
