//===- ir/IR.cpp ----------------------------------------------------------===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//

#include "ir/IR.h"

#include "support/DynBitset.h"

#include <algorithm>

using namespace mgc;
using namespace mgc::ir;

const char *ir::ptrKindName(PtrKind K) {
  switch (K) {
  case PtrKind::NonPtr: return "i";
  case PtrKind::Tidy: return "t";
  case PtrKind::Derived: return "d";
  case PtrKind::FrameAddr: return "fa";
  case PtrKind::IncomingAddr: return "ia";
  }
  return "?";
}

const char *ir::opcodeName(Opcode Op) {
  switch (Op) {
  case Opcode::Mov: return "mov";
  case Opcode::Add: return "add";
  case Opcode::Sub: return "sub";
  case Opcode::Mul: return "mul";
  case Opcode::Div: return "div";
  case Opcode::Mod: return "mod";
  case Opcode::Neg: return "neg";
  case Opcode::Not: return "not";
  case Opcode::CmpEq: return "cmpeq";
  case Opcode::CmpNe: return "cmpne";
  case Opcode::CmpLt: return "cmplt";
  case Opcode::CmpLe: return "cmple";
  case Opcode::CmpGt: return "cmpgt";
  case Opcode::CmpGe: return "cmpge";
  case Opcode::Load: return "load";
  case Opcode::Store: return "store";
  case Opcode::LoadSlot: return "loadslot";
  case Opcode::StoreSlot: return "storeslot";
  case Opcode::LoadGlobal: return "loadglobal";
  case Opcode::StoreGlobal: return "storeglobal";
  case Opcode::AddrSlot: return "addrslot";
  case Opcode::AddrGlobal: return "addrglobal";
  case Opcode::DeriveAdd: return "deriveadd";
  case Opcode::DeriveSub: return "derivesub";
  case Opcode::DeriveDiff: return "derivediff";
  case Opcode::New: return "new";
  case Opcode::NewArray: return "newarray";
  case Opcode::Call: return "call";
  case Opcode::CallRt: return "callrt";
  case Opcode::GcPoll: return "gcpoll";
  case Opcode::WriteBarrier: return "wrbar";
  case Opcode::Jump: return "jump";
  case Opcode::Branch: return "branch";
  case Opcode::Ret: return "ret";
  case Opcode::Trap: return "trap";
  }
  return "?";
}

bool Instr::replaceUses(VReg From, VReg To) {
  bool Changed = false;
  auto Fix = [&](Operand &O) {
    if (O.isReg() && O.R == From) {
      O.R = To;
      Changed = true;
    }
  };
  Fix(A);
  Fix(B);
  for (Operand &O : Args)
    Fix(O);
  return Changed;
}

void Predecessors::recompute(const Function &F) {
  // Count each block's predecessors and sum the counts, so Begin[B] is
  // where B's list ends; then fill every list from its end, walking the
  // blocks backwards, which leaves Begin[B] where it starts.  A block is
  // a predecessor of each successor once, so each list ascends.
  size_t N = F.Blocks.size();
  Begin.assign(N + 1, 0);
  for (const auto &BB : F.Blocks)
    BB->forEachSuccessor([&](unsigned Succ) { ++Begin[Succ]; });
  for (size_t B = 0; B != N; ++B)
    Begin[B + 1] += Begin[B];
  Ids.resize(Begin[N]);
  for (size_t B = N; B-- > 0;)
    F.Blocks[B]->forEachSuccessor(
        [&](unsigned Succ) { Ids[--Begin[Succ]] = F.Blocks[B]->Id; });
}

std::vector<unsigned> Function::reversePostOrder() const {
  std::vector<unsigned> PostOrder;
  PostOrder.reserve(Blocks.size());
  DynBitset Seen(Blocks.size());
  // Iterative DFS to avoid deep recursion on long block chains.  An entry
  // holds a block and the number of its successors already visited; each
  // block is pushed at most once, so the stack never reallocates.
  std::vector<std::pair<unsigned, unsigned>> Stack;
  Stack.reserve(Blocks.size());
  Stack.emplace_back(0, 0);
  Seen.set(0);
  while (!Stack.empty()) {
    auto &[Id, Visited] = Stack.back();
    unsigned Succs[2], NumSuccs = 0;
    Blocks[Id]->forEachSuccessor([&](unsigned S) { Succs[NumSuccs++] = S; });
    if (Visited < NumSuccs) {
      unsigned S = Succs[Visited++];
      if (!Seen.test(S)) {
        Seen.set(S);
        Stack.emplace_back(S, 0);
      }
      continue;
    }
    PostOrder.push_back(Id);
    Stack.pop_back();
  }
  std::reverse(PostOrder.begin(), PostOrder.end());
  return PostOrder;
}

void Function::removeUnreachableBlocks() {
  std::vector<unsigned> Order = reversePostOrder();
  // Every block reachable and already in reverse post-order: nothing moves.
  bool InOrder = Order.size() == Blocks.size();
  for (unsigned I = 0; InOrder && I != Order.size(); ++I)
    InOrder = Order[I] == I;
  if (InOrder)
    return;
  std::vector<int> NewId(Blocks.size(), -1);
  for (unsigned I = 0; I != Order.size(); ++I)
    NewId[Order[I]] = static_cast<int>(I);

  std::vector<std::unique_ptr<BasicBlock>> Kept(Order.size());
  for (auto &BB : Blocks) {
    int Id = NewId[BB->Id];
    if (Id < 0)
      continue;
    BB->Id = static_cast<unsigned>(Id);
    if (BB->hasTerminator()) {
      Instr &T = BB->Instrs.back();
      if (T.Op == Opcode::Jump || T.Op == Opcode::Branch) {
        T.Target0 = static_cast<unsigned>(NewId[T.Target0]);
        if (T.Op == Opcode::Branch)
          T.Target1 = static_cast<unsigned>(NewId[T.Target1]);
      }
    }
    Kept[BB->Id] = std::move(BB);
  }
  Blocks = std::move(Kept);
}

std::vector<unsigned> IRModule::globalPointerWords() const {
  std::vector<unsigned> Words;
  for (const GlobalInfo &G : Globals)
    for (unsigned Off : G.PtrOffsets)
      Words.push_back(G.BaseWord + Off);
  return Words;
}
