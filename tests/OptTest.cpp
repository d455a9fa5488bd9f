//===- tests/OptTest.cpp - Optimization passes -----------------------------===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//

#include "CheckedInPrograms.h"
#include "ReferenceSolvers.h"
#include "TestUtil.h"

#include "frontend/Lower.h"
#include "frontend/Parser.h"
#include "frontend/Sema.h"
#include "fuzz/Generator.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "analysis/Loops.h"
#include "opt/Passes.h"

using namespace mgc;
using namespace mgc::ir;
using namespace mgc::test;

namespace {

std::unique_ptr<IRModule> lower(const std::string &Src) {
  Diagnostics D;
  auto AST = parseModule(Src, D);
  EXPECT_TRUE(AST != nullptr) << D.str();
  if (!AST)
    return nullptr;
  EXPECT_TRUE(checkModule(*AST, D)) << D.str();
  return lowerModule(*AST);
}

Function *findFunc(IRModule &M, const std::string &Name) {
  for (auto &F : M.Functions)
    if (F->Name == Name)
      return F.get();
  return nullptr;
}

unsigned countOpcode(const Function &F, Opcode Op) {
  unsigned N = 0;
  for (const auto &BB : F.Blocks)
    for (const Instr &I : BB->Instrs)
      if (I.Op == Op)
        ++N;
  return N;
}

//===----------------------------------------------------------------------===//
// Scalar passes
//===----------------------------------------------------------------------===//

TEST(Opt, ConstantFoldingCollapsesArithmetic) {
  auto M = lower(R"(
MODULE M;
VAR x: INTEGER;
BEGIN
  x := 2 + 3 * 4
END M.)");
  Function *Main = findFunc(*M, "@main");
  bool Changed = true;
  while (Changed) {
    Changed = opt::foldConstants(*Main);
    Changed |= opt::propagateCopiesLocal(*Main);
    Changed |= opt::eliminateDeadCode(*Main);
  }
  EXPECT_EQ(countOpcode(*Main, Opcode::Mul), 0u) << toString(*Main);
  EXPECT_EQ(countOpcode(*Main, Opcode::Add), 0u) << toString(*Main);
  EXPECT_TRUE(isValid(*M));
}

TEST(Opt, BranchOnConstantBecomesJump) {
  auto M = lower(R"(
MODULE M;
VAR x: INTEGER;
BEGIN
  IF TRUE THEN x := 1 ELSE x := 2 END
END M.)");
  Function *Main = findFunc(*M, "@main");
  bool Changed = true;
  while (Changed) {
    Changed = opt::foldConstants(*Main);
    Changed |= opt::propagateCopiesLocal(*Main);
    Changed |= opt::simplifyCFG(*Main);
  }
  EXPECT_EQ(countOpcode(*Main, Opcode::Branch), 0u) << toString(*Main);
}

TEST(Opt, LocalCseSharesAddressComputations) {
  // The paper's CSE example: A[i,j] and A[i,k] share &A[i].
  auto M = lower(R"(
MODULE M;
TYPE Mat = REF ARRAY OF ARRAY [0..9] OF INTEGER;
PROCEDURE Set(a: Mat; i, j, k: INTEGER);
BEGIN
  a[i, j] := 10;
  a[i, k] := 20
END Set;
VAR m: Mat;
BEGIN
  m := NEW(Mat, 10);
  Set(m, 1, 2, 3)
END M.)");
  Function *Main = findFunc(*M, "Set");
  unsigned Before = countOpcode(*Main, Opcode::DeriveAdd);
  bool Changed = true;
  while (Changed) {
    Changed = opt::cseLocal(*Main);
    Changed |= opt::propagateCopiesLocal(*Main);
    Changed |= opt::eliminateDeadCode(*Main);
  }
  unsigned After = countOpcode(*Main, Opcode::DeriveAdd);
  EXPECT_LT(After, Before) << toString(*Main);
}

TEST(Opt, FolderLeavesMinDivMinusOneToRunTime) {
  // INT64_MIN DIV -1 and MOD -1 overflow in the host; the folder must not
  // compute them, so the compile succeeds at every level.
  const char *Src = R"(
MODULE M;
PROCEDURE D(): INTEGER;
VAR a, b: INTEGER;
BEGIN
  a := -9223372036854775807 - 1; b := -1; RETURN a DIV b
END D;
PROCEDURE R(): INTEGER;
VAR a, b: INTEGER;
BEGIN
  a := -9223372036854775807 - 1; b := -1; RETURN a MOD b
END R;
BEGIN
END M.)";
  for (int Opt : {0, 2}) {
    driver::CompilerOptions CO;
    CO.OptLevel = Opt;
    driver::CompileResult C = driver::compile(Src, CO);
    ASSERT_TRUE(C.Prog) << "opt=" << Opt << "\n" << C.Diags.str();
    if (Opt == 2) {
      EXPECT_EQ(countOpcode(*findFunc(*C.IR, "D"), Opcode::Div), 1u);
      EXPECT_EQ(countOpcode(*findFunc(*C.IR, "R"), Opcode::Mod), 1u);
    }
  }
}

TEST(Opt, FolderWrapsOnOverflow) {
  auto M = lower(R"(
MODULE M;
VAR x, y, z: INTEGER;
BEGIN
  x := 9223372036854775807 + 1;
  y := -(-9223372036854775807 - 1);
  z := 4611686018427387904 * 2
END M.)");
  Function *Main = findFunc(*M, "@main");
  bool Changed = true;
  while (Changed) {
    Changed = opt::foldConstants(*Main);
    Changed |= opt::propagateCopiesLocal(*Main);
    Changed |= opt::eliminateDeadCode(*Main);
  }
  std::string Text = toString(*Main);
  EXPECT_EQ(countOccurrences(Text, "-9223372036854775808"), 3u) << Text;
  EXPECT_EQ(countOpcode(*Main, Opcode::Add), 0u) << Text;
  EXPECT_EQ(countOpcode(*Main, Opcode::Neg), 0u) << Text;
  EXPECT_EQ(countOpcode(*Main, Opcode::Mul), 0u) << Text;
}

TEST(Opt, DeadCodeKeepsSideEffects) {
  auto M = lower(R"(
MODULE M;
PROCEDURE P(x: INTEGER);
VAR y: INTEGER;
BEGIN
  y := x + 2;   (* dead: y is never read *)
  PutInt(x)
END P;
BEGIN
  P(1)
END M.)");
  Function *F = findFunc(*M, "P");
  opt::propagateCopiesLocal(*F);
  opt::eliminateDeadCode(*F);
  EXPECT_EQ(countOpcode(*F, Opcode::CallRt), 1u);
  EXPECT_EQ(countOpcode(*F, Opcode::Add), 0u) << toString(*F);
}

TEST(Opt, DeadCodeKeepsABaseOnlyTheDeadBaseRuleUses) {
  // bb0: branch c, bb1, bb2
  // bb1: b = mov p; d = deriveadd b, 8; jump bb3
  // bb2: b = mov q; d = deriveadd e, 8; jump bb3
  // bb3: gcpoll; v = load [d+0]; ret v
  // Nothing reads bb2's b, so it is dead on plain liveness.  But at bb3, d
  // is Ambiguous{b, e}: the use of d there uses b too, so b must stay
  // live, and with it bb2's definition.
  auto F = std::make_unique<Function>();
  for (const char *P : {"p", "q", "c", "e"}) {
    PtrKind K = std::string(P) == "c" ? PtrKind::NonPtr : PtrKind::Tidy;
    F->Params.push_back({P, K, false});
    F->newVReg(K, P, true);
  }
  VReg B = F->newVReg(PtrKind::Tidy, "b", true);
  VReg D = F->newVReg(PtrKind::Derived, "d");
  VReg V = F->newVReg(PtrKind::NonPtr, "v");
  BasicBlock *BB0 = F->newBlock();
  BasicBlock *BB1 = F->newBlock();
  BasicBlock *BB2 = F->newBlock();
  BasicBlock *BB3 = F->newBlock();
  BB0->Instrs.push_back(Instr::branch(2, BB1->Id, BB2->Id));
  BB1->Instrs.push_back(Instr::mov(B, Operand::reg(0)));
  BB1->Instrs.push_back(
      Instr::bin(Opcode::DeriveAdd, D, Operand::reg(B), Operand::imm(8)));
  BB1->Instrs.push_back(Instr::jump(BB3->Id));
  BB2->Instrs.push_back(Instr::mov(B, Operand::reg(1)));
  BB2->Instrs.push_back(
      Instr::bin(Opcode::DeriveAdd, D, Operand::reg(3), Operand::imm(8)));
  BB2->Instrs.push_back(Instr::jump(BB3->Id));
  Instr Poll;
  Poll.Op = Opcode::GcPoll;
  BB3->Instrs.push_back(Poll);
  BB3->Instrs.push_back(Instr::load(V, D, 0));
  BB3->Instrs.push_back(Instr::ret(Operand::reg(V)));

  std::string Before = toString(*F);
  EXPECT_FALSE(opt::eliminateDeadCode(*F)) << toString(*F);
  EXPECT_EQ(toString(*F), Before);
  EXPECT_EQ(countOpcode(*F, Opcode::Mov), 2u);
}

//===----------------------------------------------------------------------===//
// Loop passes
//===----------------------------------------------------------------------===//

TEST(Opt, LicmHoistsInvariantDerive) {
  auto M = lower(R"(
MODULE M;
TYPE A = REF ARRAY [1..8] OF INTEGER;
VAR a: A; s: INTEGER;
PROCEDURE Work(p: A): INTEGER;
VAR i, s: INTEGER;
BEGIN
  s := 0;
  FOR i := 1 TO 8 DO
    s := s + p[i]
  END;
  RETURN s
END Work;
BEGIN
  a := NEW(A);
  s := Work(a)
END M.)");
  Function *Work = findFunc(*M, "Work");
  opt::rewriteVirtualOrigins(*Work);
  // The virtual origin (p - lo*stride) is loop invariant; LICM hoists it.
  EXPECT_TRUE(opt::hoistLoopInvariants(*Work));
  EXPECT_TRUE(isValid(*M)) << toString(*Work);
  // After hoisting, the loop body (blocks in the loop) contains no
  // DeriveSub.
  analysis::LoopInfo LI(*Work);
  ASSERT_FALSE(LI.loops().empty());
  const analysis::Loop &L = LI.loops()[0];
  unsigned InLoop = 0;
  L.Blocks.forEach([&](size_t B) {
    for (const Instr &I : Work->Blocks[B]->Instrs)
      if (I.Op == Opcode::DeriveSub)
        ++InLoop;
  });
  EXPECT_EQ(InLoop, 0u) << toString(*Work);
}

TEST(Opt, VirtualArrayOriginCreatesOutOfObjectPointer) {
  // §2's virtual array origin: ARRAY [7..13] accessed via a pointer to
  // (virtual) element 0, which lies outside the object.
  auto M = lower(R"(
MODULE M;
TYPE A = REF ARRAY [7..13] OF INTEGER;
PROCEDURE Get(p: A; i: INTEGER): INTEGER;
BEGIN
  RETURN p[i]
END Get;
VAR a: A; v: INTEGER;
BEGIN
  a := NEW(A);
  a[9] := 42;
  v := Get(a, 9)
END M.)");
  Function *Get = findFunc(*M, "Get");
  EXPECT_EQ(countOpcode(*Get, Opcode::DeriveSub), 0u);
  EXPECT_TRUE(opt::rewriteVirtualOrigins(*Get));
  EXPECT_EQ(countOpcode(*Get, Opcode::DeriveSub), 1u) << toString(*Get);
  // The old i - lo subtraction is now dead; DCE removes it.
  opt::eliminateDeadCode(*Get);
  EXPECT_EQ(countOpcode(*Get, Opcode::Sub), 0u)
      << "the i - lo subtraction is gone:\n"
      << toString(*Get);
  EXPECT_TRUE(isValid(*M));
}

TEST(Opt, StrengthReductionCreatesSelfUpdatingPointer) {
  // §2's strength reduction: the loop walks the array with a derived
  // pointer updated by the element stride.
  auto M = lower(R"(
MODULE M;
TYPE A = REF ARRAY [1..10] OF INTEGER;
PROCEDURE Fill(p: A);
VAR i: INTEGER;
BEGIN
  FOR i := 1 TO 10 DO
    p[i] := 13
  END
END Fill;
VAR a: A;
BEGIN
  a := NEW(A);
  Fill(a)
END M.)");
  Function *Fill = findFunc(*M, "Fill");
  opt::rewriteVirtualOrigins(*Fill);
  opt::hoistLoopInvariants(*Fill);
  bool Changed = opt::reduceStrength(*Fill);
  EXPECT_TRUE(Changed) << toString(*Fill);
  EXPECT_TRUE(isValid(*M)) << toString(*Fill);
  // A derived vreg now updates itself: deriveadd %d, %d, const.
  bool FoundSelfUpdate = false;
  for (const auto &BB : Fill->Blocks)
    for (const Instr &I : BB->Instrs)
      if (I.Op == Opcode::DeriveAdd && I.A.isReg() && I.A.R == I.Dst)
        FoundSelfUpdate = true;
  EXPECT_TRUE(FoundSelfUpdate) << toString(*Fill);
  // The multiply in the loop dies once DCE runs.
  opt::propagateCopiesLocal(*Fill);
  opt::eliminateDeadCode(*Fill);
  analysis::LoopInfo LI(*Fill);
  ASSERT_FALSE(LI.loops().empty());
  unsigned MulsInLoop = 0;
  LI.loops()[0].Blocks.forEach([&](size_t B) {
    for (const Instr &I : Fill->Blocks[B]->Instrs)
      if (I.Op == Opcode::Mul)
        ++MulsInLoop;
  });
  EXPECT_EQ(MulsInLoop, 0u) << toString(*Fill);
}

//===----------------------------------------------------------------------===//
// Diamond passes
//===----------------------------------------------------------------------===//

const char *AmbigSource = R"(
MODULE M;
TYPE Arr = REF ARRAY [1..8] OF INTEGER;
PROCEDURE Use(x: INTEGER): INTEGER;
BEGIN
  RETURN x
END Use;
PROCEDURE Work(inv: BOOLEAN; p, q: Arr): INTEGER;
VAR i, s, v: INTEGER;
BEGIN
  s := 0;
  FOR i := 1 TO 8 DO
    IF inv THEN v := p[i] ELSE v := q[i] END;
    s := s + Use(v)
  END;
  RETURN s
END Work;
VAR a, b: Arr; r: INTEGER;
BEGIN
  a := NEW(Arr); b := NEW(Arr);
  r := Work(TRUE, a, b)
END M.)";

TEST(Opt, TailMergeUnifiesDiamondArms) {
  auto M = lower(AmbigSource);
  Function *Work = findFunc(*M, "Work");
  // Prepare: VAO + LICM make the per-arm address bases invariant and
  // hoisted; the arms become structurally identical modulo those bases.
  bool Changed = true;
  while (Changed) {
    Changed = opt::rewriteVirtualOrigins(*Work);
    Changed |= opt::hoistLoopInvariants(*Work);
    Changed |= opt::cseLocal(*Work);
    Changed |= opt::propagateCopiesLocal(*Work);
    Changed |= opt::eliminateDeadCode(*Work);
    Changed |= opt::simplifyCFG(*Work);
  }
  EXPECT_TRUE(opt::mergeDiamondTails(*Work)) << toString(*Work);
  EXPECT_TRUE(isValid(*M)) << toString(*Work);
}

TEST(Opt, UnswitchDuplicatesLoopBody) {
  auto M = lower(AmbigSource);
  Function *Work = findFunc(*M, "Work");
  size_t BlocksBefore = Work->Blocks.size();
  EXPECT_TRUE(opt::unswitchLoops(*Work));
  EXPECT_TRUE(isValid(*M)) << toString(*Work);
  EXPECT_GT(Work->Blocks.size(), BlocksBefore)
      << "path splitting duplicates the loop (Fig. 2)";
  // After unswitching no invariant branch remains inside the loop.
  EXPECT_FALSE(opt::unswitchLoops(*Work));
}

//===----------------------------------------------------------------------===//
// Whole-pipeline semantic preservation
//===----------------------------------------------------------------------===//

/// Programs whose -O0 and -O2 outputs must agree exactly (the pipeline may
/// transform arbitrarily but not change meaning).
class PipelineEquivalence : public ::testing::TestWithParam<const char *> {};

TEST_P(PipelineEquivalence, OutputsAgree) {
  driver::CompilerOptions O0;
  O0.OptLevel = 0;
  RunResult R0 = compileAndRun(GetParam(), O0);
  ASSERT_TRUE(R0.Ok) << R0.Error;

  driver::CompilerOptions O2;
  O2.OptLevel = 2;
  RunResult R2 = compileAndRun(GetParam(), O2);
  ASSERT_TRUE(R2.Ok) << R2.Error;
  EXPECT_EQ(R0.Out, R2.Out);

  driver::CompilerOptions OSplit = O2;
  OSplit.Mode = driver::Disambiguation::PathSplitting;
  RunResult RS = compileAndRun(GetParam(), OSplit);
  ASSERT_TRUE(RS.Ok) << RS.Error;
  EXPECT_EQ(R0.Out, RS.Out);
}

INSTANTIATE_TEST_SUITE_P(
    Snippets, PipelineEquivalence,
    ::testing::Values(
        R"(MODULE M;
VAR s: INTEGER;
BEGIN
  s := 0;
  FOR i := 1 TO 100 DO s := s + i * i END;
  PutInt(s); PutLn();
END M.)",
        R"(MODULE M;
TYPE A = REF ARRAY [3..17] OF INTEGER;
VAR a: A; s: INTEGER;
BEGIN
  a := NEW(A);
  FOR i := 3 TO 17 DO a[i] := i * 2 END;
  s := 0;
  FOR i := 3 TO 17 DO s := s + a[i] END;
  PutInt(s); PutLn();
END M.)",
        R"(MODULE M;
TYPE L = REF R; R = RECORD v: INTEGER; n: L END;
VAR h, t: L; s: INTEGER;
BEGIN
  h := NIL;
  FOR i := 1 TO 20 DO
    t := NEW(L);
    t^.v := i;
    t^.n := h;
    h := t
  END;
  s := 0;
  WHILE h # NIL DO s := s + h^.v; h := h^.n END;
  PutInt(s); PutLn();
END M.)",
        R"(MODULE M;
TYPE Arr = REF ARRAY [1..6] OF INTEGER;
PROCEDURE Pick(c: BOOLEAN; x, y: Arr): INTEGER;
VAR s, v: INTEGER;
BEGIN
  s := 0;
  FOR i := 1 TO 6 DO
    IF c THEN v := x[i] ELSE v := y[i] END;
    s := s + v
  END;
  RETURN s
END Pick;
VAR a, b: Arr; t: INTEGER;
BEGIN
  a := NEW(Arr); b := NEW(Arr);
  FOR i := 1 TO 6 DO a[i] := i; b[i] := 100 * i END;
  t := Pick(TRUE, a, b) * 1000 + Pick(FALSE, a, b);
  PutInt(t); PutLn();
END M.)"));

//===----------------------------------------------------------------------===//
// The pass schedule
//===----------------------------------------------------------------------===//

using Pass = bool (*)(Function &);

/// driver::compile's optimizer rounds for one function, calling every pass
/// through \p Call: the schedule without skipped calls.
template <typename CallFn>
void runEveryPass(driver::Disambiguation Mode, CallFn &&Call) {
  auto Cleanup = [&] {
    bool Changed = true;
    unsigned Rounds = 0;
    while (Changed && Rounds++ < 8) {
      Changed = false;
      Changed |= Call(opt::simplifyCFG);
      Changed |= Call(opt::foldConstants);
      Changed |= Call(opt::propagateCopiesLocal);
      Changed |= Call(opt::cseLocal);
      Changed |= Call(opt::eliminateDeadCode);
    }
  };
  Cleanup();
  bool Changed = true;
  unsigned Rounds = 0;
  while (Changed && Rounds++ < 8) {
    Changed = false;
    Changed |= Call(opt::rewriteVirtualOrigins);
    Changed |= Call(opt::hoistLoopInvariants);
    if (Mode == driver::Disambiguation::PathSplitting) {
      Changed |= Call(opt::unswitchLoops);
    } else {
      Changed |= Call(opt::mergeDiamondTails);
      Changed |= Call(opt::hoistInvariantDiamonds);
    }
    Changed |= Call(opt::reduceStrength);
    if (Changed)
      Cleanup();
  }
  Cleanup();
}

TEST(Opt, PassesReportingNoChangeLeaveTheFunctionUntouched) {
  // driver::compile skips a pass that reported no change until another
  // pass changes the function.  That is exact only if a pass that returns
  // false leaves the function as it found it; and then driver::compile's
  // optimized IR is that of calling every pass.
  std::vector<NamedSource> Sources = checkedInPrograms();
  for (uint64_t Seed = 1; Seed <= 100; ++Seed)
    Sources.push_back({"seed " + std::to_string(Seed),
                       fuzz::generateProgram(Seed).render()});
  // A BOOLEAN local assigned TRUE and tested in the same block: copy
  // propagation puts the immediate into the branch, and the next
  // foldConstants call has only that branch to fold.
  Sources.push_back({"constant branch", R"(MODULE ConstBranch;
VAR x: INTEGER;
PROCEDURE P(n: INTEGER): INTEGER;
VAR b: BOOLEAN;
BEGIN
  b := TRUE;
  IF b THEN n := n + 1 END;
  RETURN n
END P;
BEGIN
  x := P(3);
  PutInt(x)
END ConstBranch.)"});
  unsigned Calls = 0, Unchanged = 0;
  for (const NamedSource &S : Sources)
    for (driver::Disambiguation Mode : {driver::Disambiguation::PathVariables,
                                        driver::Disambiguation::PathSplitting}) {
      SCOPED_TRACE(S.Name + (Mode == driver::Disambiguation::PathSplitting
                                 ? " (path splitting)"
                                 : " (path variables)"));
      std::unique_ptr<IRModule> M = lower(S.Source);
      ASSERT_TRUE(M);
      for (auto &F : M->Functions) {
        // The text before the next call, kept while calls change nothing.
        std::string Text = toString(*F);
        runEveryPass(Mode, [&](Pass P) {
          size_t VRegs = F->VRegs.size(), Slots = F->Slots.size(),
                 Blocks = F->Blocks.size();
          ++Calls;
          if (P(*F)) {
            Text = toString(*F);
            return true;
          }
          ++Unchanged;
          std::string After = toString(*F);
          EXPECT_EQ(After, Text) << F->Name;
          EXPECT_EQ(F->VRegs.size(), VRegs) << F->Name;
          EXPECT_EQ(F->Slots.size(), Slots) << F->Name;
          EXPECT_EQ(F->Blocks.size(), Blocks) << F->Name;
          Text = std::move(After);
          return false;
        });
      }
      driver::CompilerOptions CO;
      CO.Mode = Mode;
      CO.GcTables = false; // No path variables: the IR is the optimizer's.
      driver::CompileResult C = driver::compile(S.Source, CO);
      ASSERT_TRUE(C.IR) << C.Diags.str();
      EXPECT_EQ(toString(*C.IR), toString(*M));
    }
  EXPECT_GT(Unchanged, Calls / 2) << "most calls change nothing";
}

/// A copy of \p F that shares nothing with it.
std::unique_ptr<Function> cloneFunction(const Function &F) {
  auto C = std::make_unique<Function>();
  C->Name = F.Name;
  C->Index = F.Index;
  C->Params = F.Params;
  C->HasRet = F.HasRet;
  C->VRegs = F.VRegs;
  C->Slots = F.Slots;
  for (const auto &BB : F.Blocks)
    C->Blocks.push_back(std::make_unique<BasicBlock>(*BB));
  return C;
}

TEST(Opt, DeadCodeMatchesTheAlwaysDerivingReference) {
  // eliminateDeadCode derives only when a sweep on plain liveness would
  // delete a definition of a possible base; the reference derives on
  // every call.  At every DCE call of the optimizer's rounds both must
  // report the same change and leave the same IR.
  std::vector<NamedSource> Sources = checkedInPrograms();
  for (uint64_t Seed = 1; Seed <= 100; ++Seed)
    Sources.push_back({"seed " + std::to_string(Seed),
                       fuzz::generateProgram(Seed).render()});
  unsigned Calls = 0;
  for (const NamedSource &S : Sources)
    for (driver::Disambiguation Mode : {driver::Disambiguation::PathVariables,
                                        driver::Disambiguation::PathSplitting}) {
      SCOPED_TRACE(S.Name + (Mode == driver::Disambiguation::PathSplitting
                                 ? " (path splitting)"
                                 : " (path variables)"));
      std::unique_ptr<IRModule> M = lower(S.Source);
      ASSERT_TRUE(M);
      for (auto &F : M->Functions)
        runEveryPass(Mode, [&](Pass P) {
          if (P != static_cast<Pass>(opt::eliminateDeadCode))
            return P(*F);
          std::unique_ptr<Function> Ref = cloneFunction(*F);
          bool RefChanged = ref::eliminateDeadCode(*Ref);
          bool Changed = opt::eliminateDeadCode(*F);
          ++Calls;
          EXPECT_EQ(Changed, RefChanged) << F->Name;
          EXPECT_EQ(toString(*F), toString(*Ref)) << F->Name;
          return Changed;
        });
    }
  EXPECT_GT(Calls, 1000u);
}

} // namespace
