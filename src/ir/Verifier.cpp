//===- ir/Verifier.cpp ----------------------------------------------------===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//

#include "ir/Verifier.h"

#include "ir/Printer.h"

using namespace mgc;
using namespace mgc::ir;

namespace {
class Verifier {
public:
  explicit Verifier(const IRModule &M) : M(M) {}

  std::vector<std::string> run() {
    for (const auto &F : M.Functions)
      verifyFunction(*F);
    return std::move(Issues);
  }

private:
  void issue(const Function &F, const Instr *I, const std::string &Msg) {
    std::string S = F.Name + ": " + Msg;
    if (I)
      S += " in '" + toString(F, *I) + "'";
    Issues.push_back(std::move(S));
  }

  bool pointerLike(PtrKind K) const {
    return K == PtrKind::Tidy || K == PtrKind::Derived ||
           K == PtrKind::FrameAddr || K == PtrKind::IncomingAddr;
  }

  void verifyFunction(const Function &F) {
    if (F.Blocks.empty()) {
      issue(F, nullptr, "function has no blocks");
      return;
    }
    if (F.numParams() > F.VRegs.size())
      issue(F, nullptr, "fewer vregs than parameters");

    for (const auto &BB : F.Blocks) {
      if (!BB->hasTerminator()) {
        issue(F, nullptr,
              "bb" + std::to_string(BB->Id) + " lacks a terminator");
        continue;
      }
      for (size_t K = 0; K != BB->Instrs.size(); ++K) {
        const Instr &I = BB->Instrs[K];
        bool IsLast = K + 1 == BB->Instrs.size();
        if (I.isTerminator() != IsLast) {
          issue(F, &I, "terminator placement");
          continue;
        }
        verifyInstr(F, I);
      }
    }
  }

  bool checkReg(const Function &F, const Instr &I, VReg R) {
    if (R >= 0 && static_cast<size_t>(R) < F.VRegs.size())
      return true;
    issue(F, &I, "vreg out of range");
    return false;
  }

  void verifyInstr(const Function &F, const Instr &I) {
    if (I.Dst != NoVReg)
      checkReg(F, I, I.Dst);
    bool InRange = true;
    I.forEachUse([&](VReg R) { InRange &= checkReg(F, I, R); });
    if (!InRange)
      return; // Range errors already reported.

    auto KindOfOperand = [&](const Operand &O) {
      return O.isReg() ? F.kindOf(O.R) : PtrKind::NonPtr;
    };

    switch (I.Op) {
    case Opcode::Add: case Opcode::Sub: case Opcode::Mul:
    case Opcode::Div: case Opcode::Mod: case Opcode::Neg:
      // Plain arithmetic may involve frame addresses (which the collector
      // ignores) but never heap pointers: those must use Derive*.
      if (KindOfOperand(I.A) == PtrKind::Tidy ||
          KindOfOperand(I.A) == PtrKind::Derived ||
          KindOfOperand(I.B) == PtrKind::Tidy ||
          KindOfOperand(I.B) == PtrKind::Derived)
        issue(F, &I, "integer arithmetic on a heap pointer (use Derive*)");
      break;
    case Opcode::DeriveAdd:
    case Opcode::DeriveSub:
      if (!I.A.isReg() || !pointerLike(F.kindOf(I.A.R)))
        issue(F, &I, "Derive base is not pointer-like");
      if (I.B.isReg() && pointerLike(F.kindOf(I.B.R)))
        issue(F, &I, "Derive offset must be an integer");
      if (I.Dst == NoVReg || F.kindOf(I.Dst) != PtrKind::Derived)
        issue(F, &I, "Derive result must have Derived kind");
      break;
    case Opcode::DeriveDiff:
      if (!I.A.isReg() || !pointerLike(F.kindOf(I.A.R)) || !I.B.isReg() ||
          !pointerLike(F.kindOf(I.B.R)))
        issue(F, &I, "DeriveDiff operands must be pointer-like");
      if (I.Dst == NoVReg || F.kindOf(I.Dst) != PtrKind::Derived)
        issue(F, &I, "DeriveDiff result must have Derived kind");
      break;
    case Opcode::Load:
      if (!I.A.isReg() || !pointerLike(F.kindOf(I.A.R)))
        issue(F, &I, "Load address is not pointer-like");
      break;
    case Opcode::Store:
      if (!I.A.isReg() || !pointerLike(F.kindOf(I.A.R)))
        issue(F, &I, "Store address is not pointer-like");
      break;
    case Opcode::WriteBarrier:
      if (!I.A.isReg() || !pointerLike(F.kindOf(I.A.R)))
        issue(F, &I, "WriteBarrier address is not pointer-like");
      break;
    case Opcode::LoadSlot:
    case Opcode::StoreSlot:
    case Opcode::AddrSlot:
      if (I.Index < 0 || static_cast<size_t>(I.Index) >= F.Slots.size())
        issue(F, &I, "slot index out of range");
      break;
    case Opcode::LoadGlobal:
    case Opcode::StoreGlobal:
    case Opcode::AddrGlobal:
      if (I.Index < 0 || static_cast<unsigned>(I.Index) >= M.GlobalAreaWords)
        issue(F, &I, "global word out of range");
      break;
    case Opcode::New:
    case Opcode::NewArray:
      if (I.Index < 0 || static_cast<size_t>(I.Index) >= M.TypeDescs.size())
        issue(F, &I, "type descriptor out of range");
      if (I.Dst == NoVReg || F.kindOf(I.Dst) != PtrKind::Tidy)
        issue(F, &I, "allocation result must be Tidy");
      break;
    case Opcode::Call: {
      if (I.Index < 0 || static_cast<size_t>(I.Index) >= M.Functions.size()) {
        issue(F, &I, "callee index out of range");
        break;
      }
      const Function &Callee = *M.Functions[I.Index];
      if (I.Args.size() != Callee.numParams())
        issue(F, &I, "argument count mismatch");
      if ((I.Dst != NoVReg) && !Callee.HasRet)
        issue(F, &I, "result taken from a proper procedure");
      break;
    }
    case Opcode::Jump:
      if (I.Target0 >= F.Blocks.size())
        issue(F, &I, "jump target out of range");
      break;
    case Opcode::Branch:
      if (I.Target0 >= F.Blocks.size() || I.Target1 >= F.Blocks.size())
        issue(F, &I, "branch target out of range");
      break;
    default:
      break;
    }
  }

  const IRModule &M;
  std::vector<std::string> Issues;
};
} // namespace

std::vector<std::string> ir::verifyModule(const IRModule &M) {
  return Verifier(M).run();
}

bool ir::isValid(const IRModule &M) { return verifyModule(M).empty(); }
