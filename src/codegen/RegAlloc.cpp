//===- codegen/RegAlloc.cpp -----------------------------------------------===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//

#include "codegen/RegAlloc.h"

#include <algorithm>
#include <array>
#include <cassert>

using namespace mgc;
using namespace mgc::codegen;
using namespace mgc::ir;
using namespace mgc::vm;

namespace {
struct Interval {
  VReg R = NoVReg;
  int Start = -1;
  int End = -1;
};
} // namespace

Assignment codegen::allocateRegisters(Function &F,
                                      const analysis::Liveness &LV) {
  Assignment Out;
  Out.LocOf.assign(F.VRegs.size(), Location());

  // Parameters live in their AP slots for the function's lifetime; the
  // preference for stack homes over registers follows the paper's §4
  // base-selection heuristic and keeps VAR parameters updatable in place.
  for (unsigned I = 0; I != F.numParams(); ++I)
    Out.LocOf[I] = Location::apSlot(static_cast<int>(I));

  // Linear positions: blocks in id order, two positions per instruction so
  // def-after-use at the same instruction orders correctly.
  std::vector<Interval> Intervals(F.VRegs.size());
  for (size_t R = 0; R != F.VRegs.size(); ++R)
    Intervals[R].R = static_cast<VReg>(R);

  int Pos = 0;
  std::vector<int> BlockStart(F.Blocks.size(), 0);
  for (const auto &BB : F.Blocks) {
    BlockStart[BB->Id] = Pos;
    Pos += 2 * static_cast<int>(BB->Instrs.size()) + 2;
  }

  auto Touch = [&](VReg R, int P) {
    Interval &IV = Intervals[static_cast<size_t>(R)];
    if (IV.Start < 0 || P < IV.Start)
      IV.Start = P;
    if (P > IV.End)
      IV.End = P;
  };

  for (const auto &BB : F.Blocks) {
    int Base = BlockStart[BB->Id];
    // Live-in and live-out extend intervals across the block boundary.
    LV.liveIn(BB->Id).forEach([&](size_t R) { Touch(static_cast<VReg>(R), Base); });
    LV.liveOut(BB->Id).forEach([&](size_t R) {
      Touch(static_cast<VReg>(R),
            Base + 2 * static_cast<int>(BB->Instrs.size()) + 1);
    });
    // Inside the block a vreg is live from a definition (or the block
    // entry) to a use, extra uses included (or the block exit), so
    // touching those ends extends its interval as touching every point
    // where it is live would.
    for (unsigned Index = 0; Index != BB->Instrs.size(); ++Index) {
      int P = Base + 2 * static_cast<int>(Index);
      const Instr &I = BB->Instrs[Index];
      if (I.Dst != NoVReg)
        Touch(I.Dst, P + 1);
      I.forEachUse([&](VReg R) { Touch(R, P); });
      for (VReg R : LV.extraUses(BB->Id, Index))
        Touch(R, P);
    }
  }

  // Linear scan.
  std::vector<Interval> Sorted;
  Sorted.reserve(Intervals.size());
  for (const Interval &IV : Intervals)
    if (IV.Start >= 0 && static_cast<unsigned>(IV.R) >= F.numParams())
      Sorted.push_back(IV);
  std::sort(Sorted.begin(), Sorted.end(), [](const Interval &A,
                                             const Interval &B) {
    return A.Start < B.Start || (A.Start == B.Start && A.R < B.R);
  });

  std::vector<Interval> Active; // Sorted by End; one per busy register.
  Active.reserve(NumAllocatableRegs);
  std::array<bool, NumAllocatableRegs> RegBusy{}, RegEverUsed{};

  auto SpillToSlot = [&](VReg R) {
    SlotInfo SI;
    SI.Name = "spill." + std::to_string(R);
    SI.SizeWords = 1;
    SI.IsSpill = true;
    if (F.kindOf(R) == PtrKind::Tidy) {
      SI.IsPtrScalar = true;
      SI.PtrOffsets.push_back(0);
    }
    int Slot = F.newSlot(std::move(SI));
    Out.LocOf[static_cast<size_t>(R)] =
        Location::fpSlot(Slot); // Encoded as a slot id; Emit resolves the
                                // actual FP word offset.
  };

  for (const Interval &Cur : Sorted) {
    // Expire finished intervals.
    for (size_t I = Active.size(); I-- > 0;)
      if (Active[I].End < Cur.Start) {
        int Reg = Out.LocOf[static_cast<size_t>(Active[I].R)].Index;
        RegBusy[static_cast<size_t>(Reg)] = false;
        Active.erase(Active.begin() + static_cast<long>(I));
      }

    int FreeReg = -1;
    for (unsigned R = 0; R != NumAllocatableRegs; ++R)
      if (!RegBusy[R]) {
        FreeReg = static_cast<int>(R);
        break;
      }

    if (FreeReg >= 0) {
      Out.LocOf[static_cast<size_t>(Cur.R)] = Location::reg(FreeReg);
      RegBusy[static_cast<size_t>(FreeReg)] = true;
      RegEverUsed[static_cast<size_t>(FreeReg)] = true;
      Active.push_back(Cur);
      std::sort(Active.begin(), Active.end(),
                [](const Interval &A, const Interval &B) {
                  return A.End < B.End;
                });
      continue;
    }

    // All registers busy: spill the interval that ends last.
    Interval &Victim = Active.back();
    if (Victim.End > Cur.End) {
      Location VictimLoc = Out.LocOf[static_cast<size_t>(Victim.R)];
      SpillToSlot(Victim.R);
      Out.LocOf[static_cast<size_t>(Cur.R)] = VictimLoc;
      Active.back() = Cur;
      std::sort(Active.begin(), Active.end(),
                [](const Interval &A, const Interval &B) {
                  return A.End < B.End;
                });
    } else {
      SpillToSlot(Cur.R);
    }
  }

  Out.UsedRegs.reserve(static_cast<size_t>(
      std::count(RegEverUsed.begin(), RegEverUsed.end(), true)));
  for (unsigned R = 0; R != NumAllocatableRegs; ++R)
    if (RegEverUsed[R])
      Out.UsedRegs.push_back(static_cast<uint8_t>(R));
  return Out;
}
