//===- analysis/Loops.cpp -------------------------------------------------===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//

#include "analysis/Loops.h"

#include <algorithm>
#include <cassert>

using namespace mgc;
using namespace mgc::analysis;
using namespace mgc::ir;

void LoopInfo::recompute(const Function &F) {
  size_t NumBlocks = F.Blocks.size();
  NumLoops = 0;

  // DFS to find back edges: an edge B -> H where H is on the current DFS
  // stack.  The front end generates reducible control flow, so each such H
  // heads a natural loop.
  State.assign(NumBlocks, 0); // 0 unseen, 1 on stack, 2 done
  Stack.clear();
  BackEdges.clear(); // (latch, header)
  if (NumBlocks != 0) {
    Stack.emplace_back(0, 0);
    State[0] = 1;
  }
  while (!Stack.empty()) {
    unsigned Id = Stack.back().first;
    unsigned Succs[2], NumSuccs = 0;
    F.Blocks[Id]->forEachSuccessor([&](unsigned S) { Succs[NumSuccs++] = S; });
    if (Stack.back().second < NumSuccs) {
      unsigned S = Succs[Stack.back().second++];
      if (State[S] == 0) {
        State[S] = 1;
        Stack.emplace_back(S, 0);
      } else if (State[S] == 1) {
        BackEdges.emplace_back(Id, S);
      }
      continue;
    }
    State[Id] = 2;
    Stack.pop_back();
  }
  if (BackEdges.empty())
    return;

  // Group back edges by header; compute each loop's body with the standard
  // backward reachability from the latches.
  Preds.recompute(F);
  std::sort(BackEdges.begin(), BackEdges.end(),
            [](auto &A, auto &B) { return A.second < B.second; });
  for (size_t I = 0; I != BackEdges.size();) {
    unsigned Header = BackEdges[I].second;
    if (NumLoops == Loops.size())
      Loops.emplace_back();
    Loop &L = Loops[NumLoops++];
    L.Header = Header;
    L.Latches.clear();
    L.Blocks = DynBitset(NumBlocks);
    L.Blocks.set(Header);
    L.Parent = -1;
    Work.clear();
    while (I != BackEdges.size() && BackEdges[I].second == Header) {
      unsigned Latch = BackEdges[I].first;
      L.Latches.push_back(Latch);
      if (!L.Blocks.test(Latch)) {
        L.Blocks.set(Latch);
        Work.push_back(Latch);
      }
      ++I;
    }
    while (!Work.empty()) {
      unsigned B = Work.back();
      Work.pop_back();
      for (unsigned P : Preds[B])
        if (!L.Blocks.test(P)) {
          L.Blocks.set(P);
          Work.push_back(P);
        }
    }
  }

  // Nesting: loop A is inside loop B if B contains A's header and A != B.
  // The innermost parent is the smallest containing loop.
  for (size_t A = 0; A != NumLoops; ++A) {
    size_t BestSize = NumBlocks + 1;
    for (size_t B = 0; B != NumLoops; ++B) {
      if (A == B || !Loops[B].contains(Loops[A].Header))
        continue;
      if (Loops[B].Blocks.count() >= Loops[A].Blocks.count() &&
          Loops[B].Blocks.count() < BestSize) {
        // Guard against identical block sets (irreducible shapes don't
        // occur, but self-comparison safety costs nothing).
        Loops[A].Parent = static_cast<int>(B);
        BestSize = Loops[B].Blocks.count();
      }
    }
  }
  for (size_t A = 0; A != NumLoops; ++A) {
    Loop &L = Loops[A];
    unsigned Depth = 1;
    int P = L.Parent;
    while (P >= 0) {
      ++Depth;
      P = Loops[P].Parent;
    }
    L.Depth = Depth;
  }
}

unsigned analysis::ensurePreheader(Function &F, const Loop &L) {
  auto Preds = F.predecessors();
  std::vector<unsigned> Outside;
  for (unsigned P : Preds[L.Header])
    if (!L.contains(P))
      Outside.push_back(P);

  if (Outside.size() == 1) {
    const BasicBlock *P = F.Blocks[Outside[0]].get();
    if (P->hasTerminator() && P->terminator().Op == Opcode::Jump)
      return Outside[0];
  }

  BasicBlock *Pre = F.newBlock();
  Pre->Instrs.push_back(Instr::jump(L.Header));
  for (unsigned P : Outside) {
    Instr &T = F.Blocks[P]->Instrs.back();
    assert(T.isTerminator());
    if (T.Op == Opcode::Jump && T.Target0 == L.Header)
      T.Target0 = Pre->Id;
    if (T.Op == Opcode::Branch) {
      if (T.Target0 == L.Header)
        T.Target0 = Pre->Id;
      if (T.Target1 == L.Header)
        T.Target1 = Pre->Id;
    }
  }
  return Pre->Id;
}
