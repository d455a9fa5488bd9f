//===- codegen/RegAlloc.h - Linear-scan register allocation -----*- C++ -*-===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Assigns every virtual register one home for its entire lifetime: a
/// machine register, a frame (spill) slot, or — for parameters — its
/// AP-relative argument slot.  Because the target accepts memory operands,
/// spilled vregs are simply addressed in place; no reload code is needed.
/// The liveness it reads includes the dead-base extension so that base
/// values remain allocatable (and locatable by the collector) wherever a
/// value derived from them lives.
///
//===----------------------------------------------------------------------===//

#ifndef MGC_CODEGEN_REGALLOC_H
#define MGC_CODEGEN_REGALLOC_H

#include "analysis/Liveness.h"
#include "codegen/Machine.h"
#include "ir/IR.h"

#include <vector>

namespace mgc {
namespace codegen {

struct Assignment {
  /// Home of each vreg (None for vregs that never occur).
  std::vector<vm::Location> LocOf;
  /// Machine registers used by the function (saved in the prologue; all
  /// allocatable registers are callee-saved).
  std::vector<uint8_t> UsedRegs;
};

/// Allocates registers for \p F from \p LV, its liveness with the dead-base
/// extra uses.  Appends spill slots to F.Slots, which leaves \p LV valid.
Assignment allocateRegisters(ir::Function &F, const analysis::Liveness &LV);

} // namespace codegen
} // namespace mgc

#endif // MGC_CODEGEN_REGALLOC_H
