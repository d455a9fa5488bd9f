//===- vm/FrameWalk.h - The table-driven stack walk -------------*- C++ -*-===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// §3's stack walk, written once for every reader of the gc tables: the
/// collector (tidy roots and derived values), heap-snapshot capture (roots
/// with provenance) and the sampling profiler (its verification walk).
/// DESIGN.md §3 describes the walk; each frame is checked to lie inside
/// the thread's stack and below its callee before it is visited, so a
/// corrupt control word ends the walk with an error, not a stray read.
///
//===----------------------------------------------------------------------===//

#ifndef MGC_VM_FRAMEWALK_H
#define MGC_VM_FRAMEWALK_H

#include "gcmaps/MapIndex.h"
#include "vm/VM.h"

#include <cassert>
#include <utility>

namespace mgc {
namespace vm {

/// One frame, as the walk hands it to a visitor.
struct WalkFrame {
  unsigned Func = 0; ///< Index into Program::Funcs.
  /// Gc-point ordinal of TablePC in Func; -1 when TablePC is not one of
  /// its gc-points.
  int Ordinal = -1;
  /// The decoded tables of that gc-point (null when Ordinal < 0); valid
  /// during the visit.
  const gcmaps::GcPointInfo *Point = nullptr;
  uint32_t TablePC = 0; ///< The frame's return address (gc-point pc + 1).
  uint32_t Depth = 0;   ///< 0 for the innermost frame.
  uint32_t FP = 0;
  uint32_t AP = 0;
  ThreadContext *T = nullptr;
  /// Where each register's value as of this frame lives.
  Word *RegHome[NumRegs];

  /// The word holding location \p L of this frame.
  Word *home(const Location &L) const {
    switch (L.K) {
    case Location::Kind::FpSlot:
      return &T->Stack[FP + static_cast<unsigned>(L.Index)];
    case Location::Kind::ApSlot:
      return &T->Stack[AP + static_cast<unsigned>(L.Index)];
    case Location::Kind::Reg:
      return RegHome[L.Index];
    case Location::Kind::None:
      break;
    }
    assert(false && "unresolvable location");
    return nullptr;
  }

  /// The bases of derivation record \p Rec: its own or, for an ambiguous
  /// record, those of the alternative its path variable selects (§4).
  /// Null when the path variable selects no known alternative.
  const std::vector<gcmaps::BaseRef> *
  bases(const gcmaps::DerivationRecord &Rec) const {
    if (!Rec.Ambiguous)
      return &Rec.Bases;
    const gcmaps::DerivationAlt *Alt = gcmaps::findDerivationAlt(
        Rec, static_cast<int32_t>(*home(Rec.PathVar)));
    return Alt ? &Alt->Bases : nullptr;
  }
};

/// Walks thread \p T of \p P from table pc \p TablePC, innermost frame
/// first, decoding each frame's gc-point through \p D and calling
/// \p Visit(const WalkFrame &) on it.  Returns true when the walk reached
/// the root frame; false when the visitor returned false to stop it, or
/// at a frame outside the stack or a caller not below its callee.
template <typename Visitor>
bool walkThread(const Program &P, ThreadContext &T, uint32_t TablePC,
                   gcmaps::PointDecoder &D, Visitor &&Visit) {
  WalkFrame Fr;
  Fr.T = &T;
  Fr.TablePC = TablePC;
  Fr.FP = T.FP;
  Fr.AP = T.AP;
  for (unsigned R = 0; R != NumRegs; ++R)
    Fr.RegHome[R] = &T.R[R];
  for (;; ++Fr.Depth) {
    Fr.Func = P.funcOfPC(Fr.TablePC - 1);
    const CompiledFunction &F = P.Funcs[Fr.Func];
    if (Fr.FP < CtlWords ||
        uint64_t{Fr.FP} + F.FrameWords > T.StackWords ||
        uint64_t{Fr.AP} + F.NumParams > T.StackWords)
      return false;
    Fr.Ordinal = gcmaps::findGcPoint(P.Maps[Fr.Func], Fr.TablePC);
    Fr.Point = Fr.Ordinal < 0
                   ? nullptr
                   : &D.decode(P.Maps, P.MapIndexes, Fr.Func,
                               static_cast<unsigned>(Fr.Ordinal));
    if (!Visit(std::as_const(Fr)))
      return false;

    // Step to the caller: registers this frame saved now live in its save
    // area as far as outer frames are concerned.
    for (size_t K = 0; K != F.SavedRegs.size(); ++K)
      Fr.RegHome[F.SavedRegs[K]] = &T.Stack[Fr.FP + K];
    uint32_t RetPC = static_cast<uint32_t>(T.Stack[Fr.FP - 1]);
    if (RetPC == SentinelRetPC)
      return true;
    uint32_t CallerFP = static_cast<uint32_t>(T.Stack[Fr.FP - 2]);
    if (CallerFP >= Fr.FP)
      return false;
    Fr.AP = static_cast<uint32_t>(T.Stack[Fr.FP - 3]);
    Fr.FP = CallerFP;
    Fr.TablePC = RetPC;
  }
}

/// Walks every live thread of \p M that is stopped at a gc-point
/// (VM::SuspendPCs: valid while the collector runs and in PostGcHook), in
/// thread order, calling \p Visit(ThreadIndex, const WalkFrame &) on each
/// frame.  Returns false at the first walk that does not reach its root
/// frame, with its thread in \p *Thread when given.
template <typename Visitor>
bool walkSuspendedThreads(VM &M, gcmaps::PointDecoder &D, Visitor &&Visit,
                          size_t *Thread = nullptr) {
  for (size_t TI = 0; TI != M.Threads.size(); ++TI) {
    ThreadContext &T = *M.Threads[TI];
    if (!T.Live || TI >= M.SuspendPCs.size())
      continue; // Finished threads have no frames to scan.
    uint32_t TablePC = M.SuspendPCs[TI];
    if (TablePC == SentinelRetPC || TablePC == 0)
      continue;
    if (!walkThread(M.Prog, T, TablePC, D,
                    [&](const WalkFrame &Fr) { return Visit(TI, Fr); })) {
      if (Thread)
        *Thread = TI;
      return false;
    }
  }
  return true;
}

} // namespace vm
} // namespace mgc

#endif // MGC_VM_FRAMEWALK_H
