//===- codegen/Machine.h - VAX-like target machine --------------*- C++ -*-===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The target machine: a register machine in the VAX mould, chosen because
/// the paper's implementation targets a VAX and several of its problems
/// (register reconstruction from save areas, FP/AP-relative ground-table
/// entries, indirect references through memory operands) only arise on such
/// a machine.
///
///   - 16 registers; r0..r11 are allocatable and callee-saved, r15 carries
///     return values across calls (never live at a gc-point).
///   - Instructions take general operands: register, frame slot
///     (FP-relative), argument slot (AP-relative), immediate, global word,
///     or memory through a register/slot base with displacement — the
///     CISC addressing that makes §4's indirect-reference problem real.
///   - Frames: AP → incoming args (in the caller's outgoing area); a
///     3-word control area (saved AP, saved FP, return PC); FP → the
///     callee-save area, then local/spill slots, then the outgoing args.
///
//===----------------------------------------------------------------------===//

#ifndef MGC_CODEGEN_MACHINE_H
#define MGC_CODEGEN_MACHINE_H

#include "ir/IR.h"

#include <cstdint>
#include <string>
#include <vector>

namespace mgc {
namespace vm {

constexpr unsigned NumRegs = 16;
constexpr unsigned NumAllocatableRegs = 12;
constexpr unsigned RetValReg = 15;
/// Words of control information pushed by a call (saved AP, saved FP,
/// return PC).
constexpr unsigned CtlWords = 3;

enum class MOp : uint8_t {
  Mov,
  Add, Sub, Mul, Div, Mod, Neg, Not,
  CmpEq, CmpNe, CmpLt, CmpLe, CmpGt, CmpGe,
  AddrSlot,   ///< D = FP-slot address + Disp-in-Imm bytes
  AddrGlobal, ///< D = global word address + Disp-in-Imm bytes
  NewObj,     ///< D = allocate(desc Index); gc-point
  NewArr,     ///< D = allocate(desc Index, len A); gc-point
  Call,       ///< call Funcs[Index]; args at outgoing slots; gc-point
  CallRt,     ///< runtime intrinsic Index; gc-point only for GcCollect
  GcPoll,     ///< gc-point
  WriteBarrier, ///< generational barrier: record slot A + Imm-in-B if old→young
  Jump, Branch, Ret, Trap,
};

/// A general machine operand.
struct MOperand {
  enum class Kind : uint8_t {
    None,
    Reg,      ///< R[Reg]
    Slot,     ///< stack[FP + Index]
    ASlot,    ///< stack[AP + Index]
    Global,   ///< globals[Index]
    Imm,      ///< Imm
    MemReg,   ///< mem[R[Reg] + Disp]
    MemSlot,  ///< mem[stack[FP + Index] + Disp]  (memory indirect)
    MemASlot, ///< mem[stack[AP + Index] + Disp]
  };
  Kind K = Kind::None;
  int Reg = -1;
  int Index = -1;
  int64_t Imm = 0;
  int64_t Disp = 0;

  static MOperand none() { return MOperand(); }
  static MOperand reg(int R) {
    MOperand O;
    O.K = Kind::Reg;
    O.Reg = R;
    return O;
  }
  static MOperand slot(int S) {
    MOperand O;
    O.K = Kind::Slot;
    O.Index = S;
    return O;
  }
  static MOperand aslot(int S) {
    MOperand O;
    O.K = Kind::ASlot;
    O.Index = S;
    return O;
  }
  static MOperand global(int W) {
    MOperand O;
    O.K = Kind::Global;
    O.Index = W;
    return O;
  }
  static MOperand imm(int64_t V) {
    MOperand O;
    O.K = Kind::Imm;
    O.Imm = V;
    return O;
  }
  static MOperand memReg(int R, int64_t D) {
    MOperand O;
    O.K = Kind::MemReg;
    O.Reg = R;
    O.Disp = D;
    return O;
  }
  static MOperand memSlot(int S, int64_t D) {
    MOperand O;
    O.K = Kind::MemSlot;
    O.Index = S;
    O.Disp = D;
    return O;
  }
  static MOperand memASlot(int S, int64_t D) {
    MOperand O;
    O.K = Kind::MemASlot;
    O.Index = S;
    O.Disp = D;
    return O;
  }

  bool isNone() const { return K == Kind::None; }
};

/// Sentinel allocation-site id: the instruction has no attribution (set
/// only before the driver links the site table, or on hand-built code).
constexpr uint32_t NoAllocSite = 0xFFFFFFFFu;

struct MInstr {
  MOp Op;
  MOperand D, A, B;
  int Index = -1;          ///< Callee / descriptor / intrinsic / trap code.
  uint32_t Target0 = 0, Target1 = 0; ///< Global instruction indices.
  /// NewObj/NewArr: allocation-site id into Program::SiteTab, assigned by
  /// the driver from the decoded site table.  Carried in the in-memory
  /// instruction only; the byte image excludes it (the encoded site table
  /// accounts for the full cost of site attribution).
  uint32_t Site = NoAllocSite;
  uint16_t ArgBase = 0;    ///< Call/CallRt: first outgoing arg slot.
  uint16_t NArgs = 0;
  /// §5.3 interprocedural refinement: the callee can never trigger a
  /// collection, so this call is not a gc-point.
  bool NoGcCallee = false;

  bool isGcPoint() const {
    switch (Op) {
    case MOp::NewObj:
    case MOp::NewArr:
    case MOp::GcPoll:
      return true;
    case MOp::Call:
      return !NoGcCallee;
    case MOp::CallRt:
      return Index == static_cast<int>(ir::RtFn::GcCollect);
    default:
      return false;
    }
  }
};

/// Where a virtual register lives for its entire lifetime.
struct Location {
  enum class Kind : uint8_t { None, Reg, FpSlot, ApSlot };
  Kind K = Kind::None;
  int Index = -1; ///< Register number or word offset from FP/AP.

  static Location reg(int R) { return {Kind::Reg, R}; }
  static Location fpSlot(int S) { return {Kind::FpSlot, S}; }
  static Location apSlot(int S) { return {Kind::ApSlot, S}; }
  bool operator==(const Location &O) const {
    return K == O.K && Index == O.Index;
  }
  bool operator<(const Location &O) const {
    return std::tie(K, Index) < std::tie(O.K, O.Index);
  }
  std::string str() const;
};

/// Metadata for one compiled function.
struct CompiledFunction {
  std::string Name;
  uint32_t EntryIndex = 0; ///< First instruction in the flat code array.
  uint32_t NumInstrs = 0;
  uint32_t FrameWords = 0; ///< Save area + slots + outgoing args.
  uint16_t NumParams = 0;
  bool HasRet = false;
  /// Registers saved in the prologue (to FP+0 .. FP+n-1, in this order).
  std::vector<uint8_t> SavedRegs;
};

} // namespace vm
} // namespace mgc

#endif // MGC_CODEGEN_MACHINE_H
