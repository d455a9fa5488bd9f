//===- tests/AnalysisTest.cpp - Liveness, loops, derivations ---------------===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//

#include "analysis/Derivations.h"
#include "analysis/Liveness.h"
#include "analysis/Loops.h"
#include "frontend/Lower.h"
#include "frontend/Parser.h"
#include "frontend/Sema.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "opt/Passes.h"

#include "ReferenceSolvers.h"

#include <gtest/gtest.h>

using namespace mgc;
using namespace mgc::ir;
using namespace mgc::analysis;
using mgc::test::DerivMap;

namespace {

std::unique_ptr<IRModule> lower(const std::string &Src) {
  Diagnostics D;
  auto AST = parseModule(Src, D);
  EXPECT_TRUE(AST != nullptr) << D.str();
  if (!AST)
    return nullptr;
  EXPECT_TRUE(checkModule(*AST, D)) << D.str();
  auto M = lowerModule(*AST);
  EXPECT_TRUE(isValid(*M)) << toString(*M);
  return M;
}

Function *findFunc(IRModule &M, const std::string &Name) {
  for (auto &F : M.Functions)
    if (F->Name == Name)
      return F.get();
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Hand-built IR helpers
//===----------------------------------------------------------------------===//

/// func(p: Tidy): derived d = p + 8; gc-point; use d.
std::unique_ptr<Function> makeDerivedFunction() {
  auto F = std::make_unique<Function>();
  F->Name = "test";
  F->Params.push_back({"p", PtrKind::Tidy, false});
  VReg P = F->newVReg(PtrKind::Tidy, "p", true);
  (void)P;
  BasicBlock *BB = F->newBlock();
  VReg D = F->newVReg(PtrKind::Derived, "d");
  VReg V = F->newVReg(PtrKind::NonPtr, "v");
  BB->Instrs.push_back(
      Instr::bin(Opcode::DeriveAdd, D, Operand::reg(0), Operand::imm(8)));
  Instr Poll;
  Poll.Op = Opcode::GcPoll;
  BB->Instrs.push_back(Poll);
  BB->Instrs.push_back(Instr::load(V, D, 0));
  BB->Instrs.push_back(Instr::ret(Operand::reg(V)));
  F->HasRet = true;
  return F;
}

TEST(Liveness, DerivedValueKeepsBaseAliveAtGcPoint) {
  auto F = makeDerivedFunction();
  // Without the dead-base extension the base p (vreg 0) is dead after the
  // DeriveAdd...
  Liveness Plain(*F);
  DynBitset AtPoll = Plain.liveBefore(0, 1);
  EXPECT_FALSE(AtPoll.test(0));
  EXPECT_TRUE(AtPoll.test(1)); // d is live.

  // ...but with it, the use of d at the load also uses p (§4's dead base
  // solution).
  DerivationAnalysis DA(*F);
  auto Extra = DA.computeExtraUses();
  EXPECT_FALSE(Extra.empty());
  Liveness Extended(*F, &Extra);
  DynBitset AtPoll2 = Extended.liveBefore(0, 1);
  EXPECT_TRUE(AtPoll2.test(0)) << "base must stay live while d lives";
}

TEST(Derivations, SimpleBase) {
  auto F = makeDerivedFunction();
  DerivationAnalysis DA(*F);
  DerivMap S = test::stateBefore(DA, *F, 0, 1);
  ASSERT_TRUE(S.count(1));
  EXPECT_EQ(S[1].K, DerivState::Kind::Single);
  ASSERT_EQ(S[1].D.Bases.size(), 1u);
  EXPECT_EQ(S[1].D.Bases[0].first, 0);
  EXPECT_EQ(S[1].D.Bases[0].second, 1);
}

TEST(Derivations, SelfUpdateKeepsUltimateBase) {
  // p' = p + 8; loop { p' = p' + 8 }: bases stay {+p} (the strength
  // reduction shape).
  auto F = std::make_unique<Function>();
  F->Params.push_back({"p", PtrKind::Tidy, false});
  F->newVReg(PtrKind::Tidy, "p", true);
  VReg D = F->newVReg(PtrKind::Derived, "d");
  BasicBlock *Entry = F->newBlock();
  BasicBlock *Loop = F->newBlock();
  BasicBlock *Exit = F->newBlock();
  Entry->Instrs.push_back(
      Instr::bin(Opcode::DeriveAdd, D, Operand::reg(0), Operand::imm(8)));
  Entry->Instrs.push_back(Instr::jump(Loop->Id));
  Loop->Instrs.push_back(
      Instr::bin(Opcode::DeriveAdd, D, Operand::reg(D), Operand::imm(8)));
  VReg C = F->newVReg(PtrKind::NonPtr, "c");
  Loop->Instrs.push_back(
      Instr::bin(Opcode::CmpLt, C, Operand::reg(D), Operand::reg(D)));
  Loop->Instrs.push_back(Instr::branch(C, Loop->Id, Exit->Id));
  Exit->Instrs.push_back(Instr::ret(Operand()));

  DerivationAnalysis DA(*F);
  DerivMap S = test::blockIn(DA, Loop->Id);
  ASSERT_TRUE(S.count(D));
  EXPECT_EQ(S[D].K, DerivState::Kind::Single);
  ASSERT_EQ(S[D].D.Bases.size(), 1u);
  EXPECT_EQ(S[D].D.Bases[0].first, 0) << "base collapses to the original p";
}

TEST(Derivations, DeriveDiffUnionsNegatedBases) {
  // t = p - q (double indexing): bases {+p, -q}.
  auto F = std::make_unique<Function>();
  F->Params.push_back({"p", PtrKind::Tidy, false});
  F->Params.push_back({"q", PtrKind::Tidy, false});
  F->newVReg(PtrKind::Tidy, "p", true);
  F->newVReg(PtrKind::Tidy, "q", true);
  VReg D = F->newVReg(PtrKind::Derived, "t");
  BasicBlock *BB = F->newBlock();
  BB->Instrs.push_back(
      Instr::bin(Opcode::DeriveDiff, D, Operand::reg(0), Operand::reg(1)));
  BB->Instrs.push_back(Instr::ret(Operand()));

  DerivationAnalysis DA(*F);
  DerivMap S = test::stateBefore(DA, *F, 0, 1);
  ASSERT_TRUE(S.count(D));
  EXPECT_EQ(S[D].K, DerivState::Kind::Single);
  ASSERT_EQ(S[D].D.Bases.size(), 2u);
  EXPECT_EQ(S[D].D.Bases[0], (std::pair<VReg, int>{0, 1}));
  EXPECT_EQ(S[D].D.Bases[1], (std::pair<VReg, int>{1, -1}));
}

TEST(Derivations, CancellationWhenBasesCoincide) {
  // d1 = p + 8, d2 = p + 16, t = d1 - d2: the +p and -p cancel; t is pure E
  // and needs no adjustment.
  auto F = std::make_unique<Function>();
  F->Params.push_back({"p", PtrKind::Tidy, false});
  F->newVReg(PtrKind::Tidy, "p", true);
  VReg D1 = F->newVReg(PtrKind::Derived, "d1");
  VReg D2 = F->newVReg(PtrKind::Derived, "d2");
  VReg T = F->newVReg(PtrKind::Derived, "t");
  BasicBlock *BB = F->newBlock();
  BB->Instrs.push_back(
      Instr::bin(Opcode::DeriveAdd, D1, Operand::reg(0), Operand::imm(8)));
  BB->Instrs.push_back(
      Instr::bin(Opcode::DeriveAdd, D2, Operand::reg(0), Operand::imm(16)));
  BB->Instrs.push_back(
      Instr::bin(Opcode::DeriveDiff, T, Operand::reg(D1), Operand::reg(D2)));
  BB->Instrs.push_back(Instr::ret(Operand()));

  DerivationAnalysis DA(*F);
  DerivMap S = test::stateBefore(DA, *F, 0, 3);
  ASSERT_TRUE(S.count(T));
  EXPECT_EQ(S[T].K, DerivState::Kind::Single);
  EXPECT_TRUE(S[T].D.Bases.empty());
}

TEST(Derivations, JoinOfDifferentDerivationsIsAmbiguous) {
  // if c: t = Mov d_p else t = Mov d_q; join: Ambiguous{{+p},{+q}}.
  auto F = std::make_unique<Function>();
  F->Params.push_back({"p", PtrKind::Tidy, false});
  F->Params.push_back({"q", PtrKind::Tidy, false});
  F->Params.push_back({"c", PtrKind::NonPtr, false});
  F->newVReg(PtrKind::Tidy, "p", true);
  F->newVReg(PtrKind::Tidy, "q", true);
  F->newVReg(PtrKind::NonPtr, "c", true);
  VReg DP = F->newVReg(PtrKind::Derived, "dp");
  VReg DQ = F->newVReg(PtrKind::Derived, "dq");
  VReg T = F->newVReg(PtrKind::Derived, "t");
  BasicBlock *Entry = F->newBlock();
  BasicBlock *A1 = F->newBlock();
  BasicBlock *A2 = F->newBlock();
  BasicBlock *J = F->newBlock();
  Entry->Instrs.push_back(
      Instr::bin(Opcode::DeriveAdd, DP, Operand::reg(0), Operand::imm(8)));
  Entry->Instrs.push_back(
      Instr::bin(Opcode::DeriveAdd, DQ, Operand::reg(1), Operand::imm(8)));
  Entry->Instrs.push_back(Instr::branch(2, A1->Id, A2->Id));
  A1->Instrs.push_back(Instr::mov(T, Operand::reg(DP)));
  A1->Instrs.push_back(Instr::jump(J->Id));
  A2->Instrs.push_back(Instr::mov(T, Operand::reg(DQ)));
  A2->Instrs.push_back(Instr::jump(J->Id));
  J->Instrs.push_back(Instr::ret(Operand()));

  DerivationAnalysis DA(*F);
  DerivMap S = test::blockIn(DA, J->Id);
  ASSERT_TRUE(S.count(T));
  EXPECT_EQ(S[T].K, DerivState::Kind::Ambiguous);
  EXPECT_EQ(S[T].Alts.size(), 2u);
  std::vector<VReg> Bases = S[T].baseVRegs();
  EXPECT_EQ(Bases, (std::vector<VReg>{0, 1}));
}

TEST(Derivations, AbsentAndUnknownJoinRules) {
  // if c: t = Mov u (u never defined: Unknown) else: t untouched (absent)
  //       or t = p + 8 (Single).  At the join an absent entry takes the
  // incoming Unknown, and Unknown gives way to a defined state.
  for (bool DefineOnElse : {false, true}) {
    auto F = std::make_unique<Function>();
    F->Params.push_back({"p", PtrKind::Tidy, false});
    F->Params.push_back({"c", PtrKind::NonPtr, false});
    F->newVReg(PtrKind::Tidy, "p", true);
    F->newVReg(PtrKind::NonPtr, "c", true);
    VReg U = F->newVReg(PtrKind::Derived, "u");
    VReg T = F->newVReg(PtrKind::Derived, "t");
    BasicBlock *Entry = F->newBlock();
    BasicBlock *A1 = F->newBlock();
    BasicBlock *A2 = F->newBlock();
    BasicBlock *J = F->newBlock();
    Entry->Instrs.push_back(Instr::branch(1, A1->Id, A2->Id));
    A1->Instrs.push_back(Instr::mov(T, Operand::reg(U)));
    A1->Instrs.push_back(Instr::jump(J->Id));
    if (DefineOnElse)
      A2->Instrs.push_back(
          Instr::bin(Opcode::DeriveAdd, T, Operand::reg(0), Operand::imm(8)));
    A2->Instrs.push_back(Instr::jump(J->Id));
    J->Instrs.push_back(Instr::ret(Operand()));

    DerivationAnalysis DA(*F);
    DerivMap S = test::blockIn(DA, J->Id);
    EXPECT_EQ(S.count(U), 0u) << "u is never defined: no entry";
    ASSERT_EQ(S.count(T), 1u);
    if (DefineOnElse) {
      EXPECT_EQ(S[T].K, DerivState::Kind::Single);
      EXPECT_EQ(S[T].baseVRegs(), std::vector<VReg>{0});
    } else {
      EXPECT_EQ(S[T].K, DerivState::Kind::Unknown);
    }
    EXPECT_TRUE(S == test::ref::derivationIn(*F)[J->Id]);
  }
}

TEST(DeadCode, ChainAcrossTwoBlocksGoesInOneCall) {
  // bb0: a = p + 1; d = p + 8 (derived); e = d + 8; jump bb1
  // bb1: b = a * 2; f = mov e; ret p
  // b and f are dead; deleting them kills a and e in bb0, and with e gone
  // d dies too.  One call must reach that fixpoint.
  auto F = std::make_unique<Function>();
  F->Params.push_back({"p", PtrKind::Tidy, false});
  F->newVReg(PtrKind::Tidy, "p", true);
  VReg A = F->newVReg(PtrKind::NonPtr, "a");
  VReg B = F->newVReg(PtrKind::NonPtr, "b");
  VReg D = F->newVReg(PtrKind::Derived, "d");
  VReg E = F->newVReg(PtrKind::Derived, "e");
  VReg Fv = F->newVReg(PtrKind::Derived, "f");
  BasicBlock *B0 = F->newBlock();
  BasicBlock *B1 = F->newBlock();
  B0->Instrs.push_back(
      Instr::bin(Opcode::Add, A, Operand::reg(0), Operand::imm(1)));
  B0->Instrs.push_back(
      Instr::bin(Opcode::DeriveAdd, D, Operand::reg(0), Operand::imm(8)));
  B0->Instrs.push_back(
      Instr::bin(Opcode::DeriveAdd, E, Operand::reg(D), Operand::imm(8)));
  B0->Instrs.push_back(Instr::jump(B1->Id));
  B1->Instrs.push_back(
      Instr::bin(Opcode::Mul, B, Operand::reg(A), Operand::imm(2)));
  B1->Instrs.push_back(Instr::mov(Fv, Operand::reg(E)));
  B1->Instrs.push_back(Instr::ret(Operand::reg(0)));
  F->HasRet = true;

  EXPECT_TRUE(opt::eliminateDeadCode(*F));
  ASSERT_EQ(B0->Instrs.size(), 1u) << toString(*F);
  EXPECT_EQ(B0->Instrs[0].Op, Opcode::Jump);
  ASSERT_EQ(B1->Instrs.size(), 1u) << toString(*F);
  EXPECT_EQ(B1->Instrs[0].Op, Opcode::Ret);
  EXPECT_FALSE(opt::eliminateDeadCode(*F));
}

//===----------------------------------------------------------------------===//
// DynBitset across its inline/heap boundary, flat predecessor lists
//===----------------------------------------------------------------------===//

/// A set of \p Size bits holding every multiple of \p Stride.
DynBitset multiplesOf(size_t Size, size_t Stride) {
  DynBitset S(Size);
  for (size_t I = 0; I < Size; I += Stride)
    S.set(I);
  return S;
}

std::vector<size_t> bitsOf(const DynBitset &S) {
  std::vector<size_t> Bits;
  S.forEach([&](size_t I) { Bits.push_back(I); });
  return Bits;
}

/// The largest set kept inline and the smallest one on the heap.
constexpr size_t InlineBits = DynBitset::InlineWords * 64;
static_assert(InlineBits == 256);

TEST(DynBitset, CopyMoveAndAssignAcrossTheInlineBoundary) {
  for (size_t Size : {InlineBits, InlineBits + 1}) {
    SCOPED_TRACE(Size);
    DynBitset A = multiplesOf(Size, 3);
    A.set(Size - 1);
    std::vector<size_t> Want = bitsOf(A);
    EXPECT_EQ(A.onHeap(), Size > InlineBits);

    DynBitset Copy(A);
    EXPECT_TRUE(Copy == A);
    Copy.reset(0);
    EXPECT_TRUE(A.test(0)) << "a copy shares no words with its source";
    EXPECT_FALSE(Copy == A);

    DynBitset Moved(std::move(Copy));
    EXPECT_EQ(Moved.size(), Size);
    EXPECT_FALSE(Moved.test(0));
    EXPECT_TRUE(Moved.test(Size - 1));
    Moved.set(0);
    EXPECT_EQ(bitsOf(Moved), Want);
  }

  const DynBitset Inline = multiplesOf(InlineBits, 5);
  const DynBitset Heap = multiplesOf(InlineBits + 1, 7);
  // Copy assignment, both ways and onto a set that already holds words.
  DynBitset X = Inline;
  X = Heap;
  EXPECT_TRUE(X == Heap);
  EXPECT_TRUE(X.onHeap());
  X = Inline;
  EXPECT_TRUE(X == Inline);
  EXPECT_EQ(X.size(), InlineBits);
  X = X;
  EXPECT_TRUE(X == Inline);
  // Move assignment, both ways.
  DynBitset H = Heap, I = Inline;
  X = std::move(H);
  EXPECT_TRUE(X == Heap);
  X = std::move(I);
  EXPECT_TRUE(X == Inline);
  DynBitset Y = Inline;
  DynBitset H2 = Heap;
  Y = std::move(H2);
  EXPECT_TRUE(Y == Heap);
  EXPECT_EQ(bitsOf(Y), bitsOf(Heap));
  // Sets of different sizes differ even when no bit is set.
  EXPECT_FALSE(DynBitset(InlineBits) == DynBitset(InlineBits + 1));
}

TEST(DynBitset, SetOperationsAcrossTheInlineBoundary) {
  for (size_t Size : {InlineBits, InlineBits + 1}) {
    SCOPED_TRACE(Size);
    DynBitset Twos = multiplesOf(Size, 2), Threes = multiplesOf(Size, 3);
    Twos.set(Size - 1);
    std::vector<size_t> Union, Diff;
    for (size_t I = 0; I != Size; ++I) {
      if (Twos.test(I) || Threes.test(I))
        Union.push_back(I);
      if (Twos.test(I) && !Threes.test(I))
        Diff.push_back(I);
    }

    DynBitset U = Twos;
    EXPECT_TRUE(U.unionWith(Threes));
    EXPECT_FALSE(U.unionWith(Threes));
    EXPECT_EQ(bitsOf(U), Union);
    EXPECT_EQ(U.count(), Union.size());

    DynBitset D(Size);
    EXPECT_TRUE(D.unionWithDifference(Twos, Threes));
    EXPECT_FALSE(D.unionWithDifference(Twos, Threes));
    EXPECT_EQ(bitsOf(D), Diff);
    EXPECT_EQ(D.count(), Diff.size());

    DynBitset Last(Size);
    Last.set(Size - 1);
    EXPECT_EQ(bitsOf(Last), std::vector<size_t>{Size - 1});
    EXPECT_FALSE(Last == DynBitset(Size));
    Last.clear();
    EXPECT_TRUE(Last == DynBitset(Size));
    EXPECT_EQ(Last.count(), 0u);
  }
}

TEST(IR, PredecessorsKeepOrderAndMultiplicity) {
  // bb0: branch c, bb3, bb1    bb1: jump bb3    bb2: ret (unreachable)
  // bb3: branch c, bb4, bb4    bb4: ret
  // A branch names a successor once even when both its targets are that
  // block, and each list ascends by block.
  auto F = std::make_unique<Function>();
  VReg C = F->newVReg(PtrKind::NonPtr, "c");
  for (int B = 0; B != 5; ++B)
    F->newBlock();
  F->Blocks[0]->Instrs.push_back(Instr::branch(C, 3, 1));
  F->Blocks[1]->Instrs.push_back(Instr::jump(3));
  F->Blocks[2]->Instrs.push_back(Instr::ret(Operand()));
  F->Blocks[3]->Instrs.push_back(Instr::branch(C, 4, 4));
  F->Blocks[4]->Instrs.push_back(Instr::ret(Operand()));
  auto List = [](const auto &Preds, unsigned B) {
    return std::vector<unsigned>(Preds[B].begin(), Preds[B].end());
  };
  auto Preds = F->predecessors();
  EXPECT_EQ(List(Preds, 0), std::vector<unsigned>{});
  EXPECT_EQ(List(Preds, 1), std::vector<unsigned>{0});
  EXPECT_EQ(List(Preds, 2), std::vector<unsigned>{});
  EXPECT_EQ(List(Preds, 3), (std::vector<unsigned>{0, 1}));
  EXPECT_EQ(List(Preds, 4), std::vector<unsigned>{3});

  // Rebuilt after an edit, the lists follow the new edges.
  F->Blocks[2]->Instrs.back() = Instr::jump(4);
  F->Blocks[1]->Instrs.back() = Instr::branch(C, 2, 4);
  Preds = F->predecessors();
  EXPECT_EQ(List(Preds, 2), std::vector<unsigned>{1});
  EXPECT_EQ(List(Preds, 3), std::vector<unsigned>{0});
  EXPECT_EQ(List(Preds, 4), (std::vector<unsigned>{1, 2, 3}));
}

//===----------------------------------------------------------------------===//
// Loop detection on lowered code
//===----------------------------------------------------------------------===//

TEST(Loops, NestedLoopsDetectedWithDepths) {
  auto M = lower(R"(
MODULE M;
VAR s: INTEGER;
BEGIN
  FOR i := 1 TO 3 DO
    FOR j := 1 TO 3 DO
      s := s + i * j
    END
  END
END M.)");
  ASSERT_TRUE(M != nullptr);
  Function *Main = findFunc(*M, "@main");
  ASSERT_TRUE(Main != nullptr);
  LoopInfo LI(*Main);
  ASSERT_EQ(LI.loops().size(), 2u);
  unsigned MaxDepth = 0;
  for (const Loop &L : LI.loops())
    MaxDepth = std::max(MaxDepth, L.Depth);
  EXPECT_EQ(MaxDepth, 2u);
}

TEST(Loops, PreheaderCreationIdempotent) {
  auto M = lower(R"(
MODULE M;
VAR s, i: INTEGER;
BEGIN
  i := 0;
  WHILE i < 10 DO INC(i) END;
  s := i
END M.)");
  Function *Main = findFunc(*M, "@main");
  LoopInfo LI(*Main);
  ASSERT_EQ(LI.loops().size(), 1u);
  unsigned Pre1 = ensurePreheader(*Main, LI.loops()[0]);
  LoopInfo LI2(*Main);
  unsigned Pre2 = ensurePreheader(*Main, LI2.loops()[0]);
  EXPECT_EQ(Pre1, Pre2) << "an existing preheader is reused";
  EXPECT_TRUE(isValid(*M));
}

//===----------------------------------------------------------------------===//
// Lowered pointer kinds
//===----------------------------------------------------------------------===//

TEST(Lowering, HeapIndexingEmitsDerives) {
  auto M = lower(R"(
MODULE M;
TYPE A = REF ARRAY [1..10] OF INTEGER;
VAR a: A; s, k: INTEGER;
BEGIN
  a := NEW(A);
  k := 3;
  s := a[k]
END M.)");
  std::string IR = toString(*findFunc(*M, "@main"));
  EXPECT_NE(IR.find("deriveadd"), std::string::npos) << IR;
}

TEST(Lowering, VarParamsAreIncomingAddr) {
  auto M = lower(R"(
MODULE M;
PROCEDURE P(VAR x: INTEGER; y: INTEGER);
BEGIN
  x := y
END P;
VAR g: INTEGER;
BEGIN
  P(g, 3)
END M.)");
  Function *P = findFunc(*M, "P");
  ASSERT_TRUE(P != nullptr);
  EXPECT_EQ(P->kindOf(0), PtrKind::IncomingAddr);
  EXPECT_EQ(P->kindOf(1), PtrKind::NonPtr);
}

TEST(Lowering, FrameAddressesAreNotHeapPointers) {
  auto M = lower(R"(
MODULE M;
PROCEDURE P(VAR x: INTEGER);
BEGIN
  x := 1
END P;
VAR l: INTEGER;
BEGIN
  P(l)
END M.)");
  // The address of a module variable passed VAR is FrameAddr
  // (collector-invisible: the global area does not move).
  std::string IR = toString(*findFunc(*M, "@main"));
  EXPECT_NE(IR.find("addrglobal"), std::string::npos) << IR;
  EXPECT_NE(IR.find(":fa"), std::string::npos) << IR;
}

TEST(Lowering, RefLocalsAreTidy) {
  auto M = lower(R"(
MODULE M;
TYPE R = REF RECORD x: INTEGER END;
VAR r: R;
BEGIN
  r := NEW(R)
END M.)");
  std::string IR = toString(*findFunc(*M, "@main"));
  EXPECT_NE(IR.find(":t"), std::string::npos) << IR;
}

} // namespace
