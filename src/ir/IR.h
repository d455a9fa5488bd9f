//===- ir/IR.h - Three-address intermediate representation ------*- C++ -*-===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The optimizer-level IR.  It is a conventional three-address code over
/// virtual registers, with one deliberate feature from the paper: pointer
/// arithmetic is expressed only through the Derive* opcodes, so every
/// *derived value* (§2 of the paper) is syntactically identifiable and its
/// base values are the operands of its defining instruction.
///
/// Virtual registers carry a pointer kind:
///   - Tidy:         a heap reference pointing at an object header; traced
///                   and updated by the collector via the stack/register
///                   pointer tables.
///   - Derived:      a value produced by Derive*; never traced, but
///                   un-derived/re-derived around a collection via the
///                   derivations tables.
///   - FrameAddr:    the address of a frame slot or global (VM stack /
///                   global area); invisible to the collector since frames
///                   do not move.
///   - IncomingAddr: a VAR parameter — an address whose provenance (heap
///                   interior or frame) only the caller knows.  The caller's
///                   tables keep the argument slot correct; the callee never
///                   copies such a value across a gc-point (enforced by the
///                   gc-safety pass) and may use it as a derivation base.
///   - NonPtr:       everything else.
///
//===----------------------------------------------------------------------===//

#ifndef MGC_IR_IR_H
#define MGC_IR_IR_H

#include "support/Diagnostics.h"

#include <cassert>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace mgc {
namespace ir {

/// Bytes per VM word (all MG values are word sized).
constexpr unsigned WordSize = 8;

using VReg = int;
constexpr VReg NoVReg = -1;

enum class PtrKind : uint8_t { NonPtr, Tidy, Derived, FrameAddr, IncomingAddr };

const char *ptrKindName(PtrKind K);

enum class Opcode : uint8_t {
  // Moves and integer arithmetic.
  Mov, Add, Sub, Mul, Div, Mod, Neg, Not,
  CmpEq, CmpNe, CmpLt, CmpLe, CmpGt, CmpGe,
  // Memory access through a computed address.
  Load,       ///< Dst = mem[A + Disp]
  Store,      ///< mem[A + Disp] = B
  // Direct access to named storage.
  LoadSlot,   ///< Dst = frame slot #Index (scalar memory locals)
  StoreSlot,  ///< frame slot #Index = B
  LoadGlobal, ///< Dst = global word #Index
  StoreGlobal,///< global word #Index = B
  AddrSlot,   ///< Dst = address of frame slot #Index (+Disp bytes)
  AddrGlobal, ///< Dst = address of global word #Index (+Disp bytes)
  // Pointer arithmetic: the only creators of derived values.
  DeriveAdd,  ///< Dst = A + B, A pointer-like, B an integer byte offset
  DeriveSub,  ///< Dst = A - B, likewise
  DeriveDiff, ///< Dst = A - B, both pointer-like (double indexing)
  // Allocation and calls.
  New,        ///< Dst = allocate(TypeDesc #Index); gc-point
  NewArray,   ///< Dst = allocate(TypeDesc #Index, length A); gc-point
  Call,       ///< Dst? = Functions[Index](Args...); gc-point
  CallRt,     ///< Runtime intrinsic #Rt(Args...); gc-point only for GcCollect
  GcPoll,     ///< Loop gc-point for threaded mode (§5.3)
  WriteBarrier, ///< Generational barrier: record slot A + Disp if old→young
  // Terminators.
  Jump,       ///< goto Target0
  Branch,     ///< if A goto Target0 else Target1
  Ret,        ///< return [A]
  Trap,       ///< runtime error #Index
};

const char *opcodeName(Opcode Op);

/// Runtime intrinsics; all except GcCollect are statically known not to
/// allocate, so calls to them are not gc-points (§5.3).
enum class RtFn : uint8_t { PutInt, PutChar, PutLn, GcCollect, Halt, ReqDone };

/// Trap reasons.
enum class TrapKind : uint8_t { MissingReturn, BoundsCheck, NilDeref };

struct Operand {
  enum class Kind : uint8_t { None, Reg, Imm };
  Kind K = Kind::None;
  VReg R = NoVReg;
  int64_t Imm = 0;

  Operand() = default;
  static Operand reg(VReg R) {
    Operand O;
    O.K = Kind::Reg;
    O.R = R;
    return O;
  }
  static Operand imm(int64_t V) {
    Operand O;
    O.K = Kind::Imm;
    O.Imm = V;
    return O;
  }
  bool isReg() const { return K == Kind::Reg; }
  bool isImm() const { return K == Kind::Imm; }
  bool isNone() const { return K == Kind::None; }

  bool operator==(const Operand &O) const {
    return K == O.K && R == O.R && Imm == O.Imm;
  }
};

struct Instr {
  Opcode Op;
  VReg Dst = NoVReg;
  Operand A, B;
  int64_t Disp = 0;       ///< Byte displacement for Load/Store/Addr*.
  int Index = -1;         ///< Slot/global/typedesc/function/trap index.
  RtFn Rt = RtFn::PutInt; ///< For CallRt.
  unsigned Target0 = 0, Target1 = 0; ///< Block ids for Jump/Branch.
  std::vector<Operand> Args;         ///< Call/CallRt arguments.
  SourceLoc Loc;
  /// Interprocedural refinement (§5.3): the callee is statically known
  /// never to trigger a collection, so this call is not a gc-point.
  bool NoGcCallee = false;

  bool isTerminator() const {
    return Op == Opcode::Jump || Op == Opcode::Branch || Op == Opcode::Ret ||
           Op == Opcode::Trap;
  }

  /// Whether a collection can occur at this instruction (§5.3: calls to
  /// possibly-allocating procedures, allocations, and loop polls).
  bool isGcPoint() const {
    switch (Op) {
    case Opcode::New:
    case Opcode::NewArray:
    case Opcode::GcPoll:
      return true;
    case Opcode::Call:
      return !NoGcCallee;
    case Opcode::CallRt:
      return Rt == RtFn::GcCollect;
    default:
      return false;
    }
  }

  /// Instructions with no side effect other than defining Dst; candidates
  /// for CSE/LICM/DCE.
  bool isPure() const {
    switch (Op) {
    case Opcode::Mov: case Opcode::Add: case Opcode::Sub: case Opcode::Mul:
    case Opcode::Neg: case Opcode::Not:
    case Opcode::CmpEq: case Opcode::CmpNe: case Opcode::CmpLt:
    case Opcode::CmpLe: case Opcode::CmpGt: case Opcode::CmpGe:
    case Opcode::AddrSlot: case Opcode::AddrGlobal:
    case Opcode::DeriveAdd: case Opcode::DeriveSub: case Opcode::DeriveDiff:
      return true;
    // Div/Mod can trap on zero; keep them out of speculative motion.
    default:
      return false;
    }
  }

  /// Calls \p Visit on every vreg this instruction reads, in operand order
  /// (A, B, then call arguments); repeated reads are visited repeatedly.
  template <typename Fn> void forEachUse(Fn &&Visit) const {
    if (A.isReg())
      Visit(A.R);
    if (B.isReg())
      Visit(B.R);
    for (const Operand &O : Args)
      if (O.isReg())
        Visit(O.R);
  }
  /// Rewrites every use of \p From into \p To; returns true on change.
  bool replaceUses(VReg From, VReg To);

  //===--- Factories -------------------------------------------------------===
  static Instr mov(VReg Dst, Operand Src) {
    Instr I;
    I.Op = Opcode::Mov;
    I.Dst = Dst;
    I.A = Src;
    return I;
  }
  static Instr bin(Opcode Op, VReg Dst, Operand A, Operand B) {
    Instr I;
    I.Op = Op;
    I.Dst = Dst;
    I.A = A;
    I.B = B;
    return I;
  }
  static Instr un(Opcode Op, VReg Dst, Operand A) {
    Instr I;
    I.Op = Op;
    I.Dst = Dst;
    I.A = A;
    return I;
  }
  static Instr load(VReg Dst, VReg Addr, int64_t Disp) {
    Instr I;
    I.Op = Opcode::Load;
    I.Dst = Dst;
    I.A = Operand::reg(Addr);
    I.Disp = Disp;
    return I;
  }
  static Instr store(VReg Addr, int64_t Disp, Operand Val) {
    Instr I;
    I.Op = Opcode::Store;
    I.A = Operand::reg(Addr);
    I.B = Val;
    I.Disp = Disp;
    return I;
  }
  static Instr loadSlot(VReg Dst, int Slot) {
    Instr I;
    I.Op = Opcode::LoadSlot;
    I.Dst = Dst;
    I.Index = Slot;
    return I;
  }
  static Instr storeSlot(int Slot, Operand Val) {
    Instr I;
    I.Op = Opcode::StoreSlot;
    I.B = Val;
    I.Index = Slot;
    return I;
  }
  static Instr loadGlobal(VReg Dst, int Word) {
    Instr I;
    I.Op = Opcode::LoadGlobal;
    I.Dst = Dst;
    I.Index = Word;
    return I;
  }
  static Instr storeGlobal(int Word, Operand Val) {
    Instr I;
    I.Op = Opcode::StoreGlobal;
    I.B = Val;
    I.Index = Word;
    return I;
  }
  static Instr addrSlot(VReg Dst, int Slot, int64_t Disp) {
    Instr I;
    I.Op = Opcode::AddrSlot;
    I.Dst = Dst;
    I.Index = Slot;
    I.Disp = Disp;
    return I;
  }
  static Instr addrGlobal(VReg Dst, int Word, int64_t Disp) {
    Instr I;
    I.Op = Opcode::AddrGlobal;
    I.Dst = Dst;
    I.Index = Word;
    I.Disp = Disp;
    return I;
  }
  static Instr jump(unsigned Target) {
    Instr I;
    I.Op = Opcode::Jump;
    I.Target0 = Target;
    return I;
  }
  static Instr branch(VReg Cond, unsigned T, unsigned F) {
    Instr I;
    I.Op = Opcode::Branch;
    I.A = Operand::reg(Cond);
    I.Target0 = T;
    I.Target1 = F;
    return I;
  }
  static Instr ret(Operand Val) {
    Instr I;
    I.Op = Opcode::Ret;
    I.A = Val;
    return I;
  }
  static Instr trap(TrapKind K) {
    Instr I;
    I.Op = Opcode::Trap;
    I.Index = static_cast<int>(K);
    return I;
  }
  static Instr writeBarrier(VReg Addr, int64_t Disp) {
    Instr I;
    I.Op = Opcode::WriteBarrier;
    I.A = Operand::reg(Addr);
    I.Disp = Disp;
    return I;
  }
};

class BasicBlock {
public:
  unsigned Id = 0;
  std::vector<Instr> Instrs;

  bool hasTerminator() const {
    return !Instrs.empty() && Instrs.back().isTerminator();
  }
  const Instr &terminator() const {
    assert(hasTerminator() && "block lacks a terminator");
    return Instrs.back();
  }

  /// Calls \p Visit on each successor block id in CFG order (at most two).
  template <typename Fn> void forEachSuccessor(Fn &&Visit) const {
    if (!hasTerminator())
      return;
    const Instr &T = Instrs.back();
    if (T.Op == Opcode::Jump) {
      Visit(T.Target0);
    } else if (T.Op == Opcode::Branch) {
      Visit(T.Target0);
      if (T.Target1 != T.Target0)
        Visit(T.Target1);
    }
  }
};

/// Per-vreg metadata.
struct VRegInfo {
  PtrKind Kind = PtrKind::NonPtr;
  std::string Name;      ///< User variable name, if any.
  bool IsUserVar = false;
};

/// A frame slot: a memory-resident local (aggregate, address-taken scalar,
/// or a spill created by the register allocator).
struct SlotInfo {
  std::string Name;
  unsigned SizeWords = 1;
  /// Word offsets within the slot that hold tidy pointers (for aggregates,
  /// each contained pointer is a separate ground-table candidate, as in the
  /// paper's implementation).
  std::vector<unsigned> PtrOffsets;
  bool IsPtrScalar = false; ///< Scalar slot holding a tidy pointer.
  /// Spill slots have liveness-tracked pointer contents (listed in the
  /// tables only where live); lowering-created slots holding pointers are
  /// zero-initialized in the prologue and described at every gc-point.
  bool IsSpill = false;
};

class Function;

/// Every block's predecessor list in one table: block B's predecessors are
/// Ids[Begin[B], Begin[B + 1]), in ascending block order, one entry per
/// distinct successor edge (BasicBlock::forEachSuccessor).
class Predecessors {
public:
  Predecessors() = default;
  explicit Predecessors(const Function &F) { recompute(F); }

  /// Rebuilds the table for \p F, reusing its storage.
  void recompute(const Function &F);

  std::span<const unsigned> operator[](unsigned Block) const {
    return {Ids.data() + Begin[Block], Ids.data() + Begin[Block + 1]};
  }

private:
  std::vector<unsigned> Begin;
  std::vector<unsigned> Ids;
};

/// Information about one function parameter.
struct ParamInfo {
  std::string Name;
  PtrKind Kind = PtrKind::NonPtr; ///< Tidy / IncomingAddr / NonPtr.
  bool IsVarParam = false;
};

class Function {
public:
  std::string Name;
  unsigned Index = 0;
  std::vector<ParamInfo> Params;
  bool HasRet = false;
  std::vector<VRegInfo> VRegs;
  std::vector<SlotInfo> Slots;
  std::vector<std::unique_ptr<BasicBlock>> Blocks;

  unsigned numParams() const { return static_cast<unsigned>(Params.size()); }

  VReg newVReg(PtrKind K, std::string Name = "", bool IsUserVar = false) {
    VRegs.push_back({K, std::move(Name), IsUserVar});
    return static_cast<VReg>(VRegs.size() - 1);
  }

  PtrKind kindOf(VReg R) const {
    assert(R >= 0 && static_cast<size_t>(R) < VRegs.size());
    return VRegs[R].Kind;
  }

  int newSlot(SlotInfo Info) {
    Slots.push_back(std::move(Info));
    return static_cast<int>(Slots.size() - 1);
  }

  BasicBlock *newBlock() {
    auto BB = std::make_unique<BasicBlock>();
    BB->Id = static_cast<unsigned>(Blocks.size());
    Blocks.push_back(std::move(BB));
    return Blocks.back().get();
  }

  BasicBlock *entry() const { return Blocks.front().get(); }
  BasicBlock *block(unsigned Id) const {
    assert(Id < Blocks.size());
    return Blocks[Id].get();
  }

  /// Computes predecessor lists (indexed by block id).
  Predecessors predecessors() const { return Predecessors(*this); }

  /// Blocks in reverse post-order from the entry.
  std::vector<unsigned> reversePostOrder() const;

  /// Removes blocks unreachable from the entry and renumbers the rest,
  /// fixing branch targets.
  void removeUnreachableBlocks();
};

/// A heap type descriptor (Modula-3 requires one per heap type; the
/// collector uses it to size objects and find interior pointers).
struct TypeDesc {
  std::string Name;
  bool IsOpenArray = false;
  /// Payload words, excluding the header.  For open arrays this is the
  /// fixed part (the length word).
  unsigned SizeWords = 0;
  /// Payload word offsets holding pointers (fixed part only).
  std::vector<unsigned> PtrOffsets;
  /// Open arrays: element stride and pointer offsets within an element.
  unsigned ElemSizeWords = 0;
  std::vector<unsigned> ElemPtrOffsets;
};

/// A module-level variable flattened into the global area.
struct GlobalInfo {
  std::string Name;
  unsigned BaseWord = 0;
  unsigned SizeWords = 1;
  std::vector<unsigned> PtrOffsets; ///< Relative to BaseWord.
};

class IRModule {
public:
  std::string Name;
  std::vector<std::unique_ptr<Function>> Functions;
  unsigned MainIndex = 0;
  std::vector<GlobalInfo> Globals;
  unsigned GlobalAreaWords = 0;
  std::vector<TypeDesc> TypeDescs;

  Function *newFunction(std::string Name) {
    auto F = std::make_unique<Function>();
    F->Name = std::move(Name);
    F->Index = static_cast<unsigned>(Functions.size());
    Functions.push_back(std::move(F));
    return Functions.back().get();
  }

  /// Absolute global-area word offsets holding pointers (the collector's
  /// global roots).
  std::vector<unsigned> globalPointerWords() const;
};

} // namespace ir
} // namespace mgc

#endif // MGC_IR_IR_H
