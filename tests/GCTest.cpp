//===- tests/GCTest.cpp - Precise collection correctness -------------------===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Each test forces collections at interesting moments (GcCollect calls or
/// GcStress mode) and checks both the program result and collector
/// statistics.  Frames are poisoned and tidy roots assert-validated, so an
/// imprecise table crashes rather than silently passing.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "CheckedInPrograms.h"
#include "Programs.h"
#include "TestUtil.h"

using namespace mgc;
using namespace mgc::test;

namespace {

RunResult runStressed(const std::string &Src, driver::CompilerOptions CO = {},
                      size_t HeapBytes = 1u << 16) {
  vm::VMOptions VO;
  VO.GcStress = true;
  VO.HeapBytes = HeapBytes;
  return compileAndRun(Src, CO, VO);
}

TEST(GC, MovesObjectsAndUpdatesTidyPointers) {
  RunResult R = runStressed(R"(
MODULE M;
TYPE R = REF RECORD v: INTEGER; next: R END;
VAR head, n: R; s: INTEGER;
BEGIN
  head := NIL;
  FOR i := 1 TO 50 DO
    n := NEW(R);
    n^.v := i;
    n^.next := head;
    head := n
  END;
  s := 0;
  WHILE head # NIL DO s := s + head^.v; head := head^.next END;
  PutInt(s); PutLn();
END M.)");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Out, "1275\n");
  EXPECT_GT(R.Stats.Collections, 10u);
  EXPECT_GT(R.Stats.BytesCopied, 0u);
}

TEST(GC, CollectionAtExplicitGcPointWithLiveDerived) {
  // A strength-reduced array walk with a collection inside the loop: the
  // derived pointer must be un-derived and re-derived around every move.
  driver::CompilerOptions CO;
  CO.OptLevel = 2;
  RunResult R = compileAndRun(R"(
MODULE M;
TYPE A = REF ARRAY [1..16] OF INTEGER;
PROCEDURE Fill(p: A);
VAR i: INTEGER;
BEGIN
  FOR i := 1 TO 16 DO
    GcCollect();       (* gc-point inside the strength-reduced loop *)
    p[i] := i * 3
  END
END Fill;
PROCEDURE Sum(p: A): INTEGER;
VAR i, s: INTEGER;
BEGIN
  s := 0;
  FOR i := 1 TO 16 DO
    s := s + p[i];
    GcCollect()
  END;
  RETURN s
END Sum;
VAR a: A;
BEGIN
  a := NEW(A);
  Fill(a);
  PutInt(Sum(a)); PutLn();
END M.)",
                              CO);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Out, "408\n");
  EXPECT_GE(R.Stats.Collections, 32u);
  EXPECT_GT(R.Stats.DerivedAdjusted, 0u)
      << "the optimized loop should carry a derived pointer across the "
         "collection";
}

TEST(GC, VirtualOriginPointerOutsideObjectSurvives) {
  // ARRAY [7..13]: the virtual origin points *before* the object; it must
  // still be adjusted correctly.
  driver::CompilerOptions CO;
  CO.OptLevel = 2;
  RunResult R = compileAndRun(R"(
MODULE M;
TYPE A = REF ARRAY [7..13] OF INTEGER;
PROCEDURE Sum(p: A): INTEGER;
VAR s, i: INTEGER;
BEGIN
  s := 0;
  FOR i := 7 TO 13 DO
    GcCollect();
    s := s + p[i]
  END;
  RETURN s
END Sum;
VAR a: A;
BEGIN
  a := NEW(A);
  FOR i := 7 TO 13 DO a[i] := i END;
  PutInt(Sum(a)); PutLn();
END M.)",
                              CO);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Out, "70\n");
  EXPECT_GT(R.Stats.DerivedAdjusted, 0u);
}

TEST(GC, InteriorPointerFromWithSurvivesCollection) {
  // WITH binds the address of a heap record field: an untidy interior
  // pointer live across collections.
  RunResult R = runStressed(R"(
MODULE M;
TYPE R = REF RECORD a, b, c: INTEGER END;
VAR r: R; junk: R;
BEGIN
  r := NEW(R);
  WITH f = r^.c DO
    f := 1;
    junk := NEW(R);     (* may move r while f's address is live *)
    f := f + 10;
    junk := NEW(R);
    f := f + 100
  END;
  PutInt(r^.c); PutLn();
END M.)");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Out, "111\n");
  EXPECT_GT(R.Stats.DerivedAdjusted, 0u);
}

TEST(GC, VarParameterIntoHeapUpdatedAcrossCollection) {
  // The call-by-reference case the paper highlights: the argument is an
  // interior pointer live at the call gc-point; the callee allocates, so
  // the object moves while the callee holds the address.
  RunResult R = runStressed(R"(
MODULE M;
TYPE A = REF ARRAY [1..8] OF INTEGER;
VAR a: A;
PROCEDURE Fill(VAR x: INTEGER; v: INTEGER);
VAR junk: A;
BEGIN
  junk := NEW(A);    (* forces a move under stress *)
  x := v;
  junk := NEW(A);
  x := x + 1
END Fill;
BEGIN
  a := NEW(A);
  Fill(a[5], 41);
  PutInt(a[5]); PutLn();
END M.)");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Out, "42\n");
}

TEST(GC, VarParameterForwardingChain) {
  // VAR params forwarded through two frames: the derivation chain
  // (outgoing slot <- incoming slot <- caller's derived arg) must update
  // innermost-first and re-derive outermost-first (§3's ordering).
  RunResult R = runStressed(R"(
MODULE M;
TYPE A = REF ARRAY [1..4] OF INTEGER;
VAR a: A;
PROCEDURE Leaf(VAR x: INTEGER);
VAR junk: A;
BEGIN
  junk := NEW(A);
  x := x * 2;
  junk := NEW(A);
  x := x + 1
END Leaf;
PROCEDURE Mid(VAR y: INTEGER);
VAR junk: A;
BEGIN
  junk := NEW(A);
  Leaf(y);
  junk := NEW(A)
END Mid;
BEGIN
  a := NEW(A);
  a[2] := 10;
  Mid(a[2]);
  PutInt(a[2]); PutLn();
END M.)");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Out, "21\n");
}

TEST(GC, DeadBaseKeptAliveForDerivedValue) {
  // After strength reduction the array base has no explicit uses inside
  // the loop; the dead-base rule must keep it live so the walking pointer
  // can be updated.
  driver::CompilerOptions CO;
  CO.OptLevel = 2;
  RunResult R = compileAndRun(R"(
MODULE M;
TYPE A = REF ARRAY [1..12] OF INTEGER;
PROCEDURE Init(p: A);
VAR i: INTEGER;
BEGIN
  FOR i := 1 TO 12 DO
    p[i] := 13;
    GcCollect()
  END
END Init;
VAR a: A; s: INTEGER;
BEGIN
  a := NEW(A);
  Init(a);
  s := 0;
  FOR i := 1 TO 12 DO s := s + a[i] END;
  PutInt(s); PutLn();
END M.)",
                              CO);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Out, "156\n");
  EXPECT_GT(R.Stats.DerivedAdjusted, 0u);
}

TEST(GC, AmbiguousDerivationResolvedByPathVariable) {
  const char *Src = R"(
MODULE M;
TYPE Arr = REF ARRAY [1..8] OF INTEGER;
VAR a, b: Arr; r: INTEGER;

PROCEDURE Use(x: INTEGER): INTEGER;
VAR junk: Arr;
BEGIN
  junk := NEW(Arr);    (* every call collects under stress *)
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

BEGIN
  a := NEW(Arr);
  b := NEW(Arr);
  FOR i := 1 TO 8 DO
    a[i] := i;
    b[i] := 10 * i
  END;
  r := Work(TRUE, a, b) * 1000 + Work(FALSE, a, b);
  PutInt(r); PutLn();
END M.)";

  driver::CompilerOptions CO;
  CO.OptLevel = 2;
  CO.Mode = driver::Disambiguation::PathVariables;
  vm::VMOptions VO;
  VO.GcStress = true;
  VO.HeapBytes = 1u << 16;
  RunResult R = compileAndRun(Src, CO, VO);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Out, "36360\n");
  EXPECT_GT(R.PathVars, 0u) << "the scenario must create a path variable";
  EXPECT_GT(R.Stats.Collections, 16u);

  // Path splitting gives the same behavior with no path variables but more
  // code (Fig. 2's trade-off).
  driver::CompilerOptions Split = CO;
  Split.Mode = driver::Disambiguation::PathSplitting;
  RunResult RS = compileAndRun(Src, Split, VO);
  ASSERT_TRUE(RS.Ok) << RS.Error;
  EXPECT_EQ(RS.Out, "36360\n");
  EXPECT_EQ(RS.PathVars, 0u);
  EXPECT_GT(RS.CodeBytes, R.CodeBytes);
}

TEST(GC, GlobalRootsUpdated) {
  RunResult R = runStressed(R"(
MODULE M;
TYPE R = REF RECORD v: INTEGER END;
VAR g1, g2: R;
PROCEDURE Churn();
VAR t: R;
BEGIN
  FOR i := 1 TO 30 DO
    t := NEW(R);
    t^.v := i
  END
END Churn;
BEGIN
  g1 := NEW(R); g1^.v := 7;
  g2 := NEW(R); g2^.v := 9;
  Churn();
  PutInt(g1^.v * 10 + g2^.v); PutLn();
END M.)");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Out, "79\n");
}

TEST(GC, PointersInFrameAggregatesTraced) {
  // A local array of REFs lives in frame slots; each contained pointer is
  // a separate ground-table entry.
  RunResult R = runStressed(R"(
MODULE M;
TYPE R = REF RECORD v: INTEGER END;
VAR s: INTEGER;
PROCEDURE Work(): INTEGER;
VAR box: ARRAY [0..4] OF R; t: INTEGER;
BEGIN
  FOR i := 0 TO 4 DO
    box[i] := NEW(R);
    box[i]^.v := i + 1
  END;
  t := 0;
  FOR i := 0 TO 4 DO t := t + box[i]^.v END;
  RETURN t
END Work;
BEGIN
  s := Work();
  PutInt(s); PutLn();
END M.)");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Out, "15\n");
}

TEST(GC, OpenArrayOfRefsScanned) {
  RunResult R = runStressed(R"(
MODULE M;
TYPE R = REF RECORD v: INTEGER END;
     V = REF ARRAY OF R;
VAR v: V; s: INTEGER;
BEGIN
  v := NEW(V, 20);
  FOR i := 0 TO 19 DO
    v[i] := NEW(R);
    v[i]^.v := i
  END;
  s := 0;
  FOR i := 0 TO 19 DO s := s + v[i]^.v END;
  PutInt(s); PutLn();
END M.)");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Out, "190\n");
}

TEST(GC, DeepCallChainReconstructsRegisters) {
  // Pointers held in callee-saved registers across nested calls must be
  // found through the save areas during the stack walk.
  RunResult R = runStressed(R"(
MODULE M;
TYPE R = REF RECORD v: INTEGER; n: R END;
PROCEDURE Deep(d: INTEGER; keep: R): INTEGER;
VAR mine: R;
BEGIN
  IF d = 0 THEN RETURN keep^.v END;
  mine := NEW(R);
  mine^.v := d;
  mine^.n := keep;
  RETURN Deep(d - 1, mine) + keep^.v
END Deep;
VAR root: R;
BEGIN
  root := NEW(R);
  root^.v := 100;
  root^.n := NIL;
  PutInt(Deep(12, root)); PutLn();
END M.)");
  ASSERT_TRUE(R.Ok) << R.Error;
  // Values: keep chain carries d..1 then root; result sums them plus the
  // leaf's keep^.v.
  EXPECT_FALSE(R.Out.empty());
  EXPECT_GT(R.Stats.FramesTraced, 50u);
}

TEST(GC, UnreachableDataIsActuallyReclaimed) {
  // Allocate far more than a semispace holds, keeping only a window live:
  // without reclamation this exhausts the heap.
  driver::CompilerOptions CO;
  vm::VMOptions VO;
  VO.HeapBytes = 32u << 10;
  RunResult R = compileAndRun(R"(
MODULE M;
TYPE R = REF RECORD a, b, c, d: INTEGER END;
VAR keep: R; s: INTEGER;
BEGIN
  s := 0;
  FOR i := 1 TO 5000 DO
    keep := NEW(R);
    keep^.a := i
  END;
  PutInt(keep^.a); PutLn();
END M.)",
                              CO, VO);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Out, "5000\n");
  EXPECT_GT(R.Stats.Collections, 5u);
}

TEST(GC, StatsTrackFramesAndRoots) {
  RunResult R = runStressed(R"(
MODULE M;
TYPE R = REF RECORD v: INTEGER END;
PROCEDURE A(x: R): INTEGER;
BEGIN
  RETURN B(x) + 1
END A;
PROCEDURE B(x: R): INTEGER;
VAR t: R;
BEGIN
  t := NEW(R);
  t^.v := x^.v;
  RETURN t^.v
END B;
VAR r: R;
BEGIN
  r := NEW(R);
  r^.v := 5;
  PutInt(A(r)); PutLn();
END M.)");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Out, "6\n");
  EXPECT_GT(R.Stats.FramesTraced, 0u);
  EXPECT_GT(R.Stats.RootsTraced, 0u);
  EXPECT_GT(R.Stats.GcNanos, 0u);
}

TEST(GC, DecoderModesAgreeUnderStress) {
  // The same stressed workload through the reference decoder, the
  // index+cache, and the cross-checking mode: identical output, identical
  // root enumeration; only the accelerated run touches the cache.
  const std::string Src = R"(
MODULE M;
TYPE R = REF RECORD v: INTEGER; next: R END;
PROCEDURE Build(n: INTEGER): R;
VAR h, c: R;
BEGIN
  h := NIL;
  FOR i := 1 TO n DO
    c := NEW(R); c^.v := i; c^.next := h; h := c
  END;
  RETURN h
END Build;
PROCEDURE Sum(h: R): INTEGER;
VAR s: INTEGER;
BEGIN
  s := 0;
  WHILE h # NIL DO s := s + h^.v; h := h^.next END;
  RETURN s
END Sum;
VAR t: INTEGER;
BEGIN
  t := 0;
  FOR k := 1 TO 8 DO
    t := t + Sum(Build(20))
  END;
  PutInt(t); PutLn();
END M.)";
  driver::CompilerOptions CO;
  CO.OptLevel = 2;
  vm::VMOptions VO;
  VO.GcStress = true;
  VO.HeapBytes = 1u << 16;

  vm::VMOptions RefVO = VO;
  RefVO.UseMapIndex = false;
  RunResult Ref = compileAndRun(Src, CO, RefVO);
  ASSERT_TRUE(Ref.Ok) << Ref.Error;
  EXPECT_EQ(Ref.Out, "1680\n");
  EXPECT_GT(Ref.Stats.Collections, 0u);
  EXPECT_EQ(Ref.Stats.DecodeCacheHits, 0u);
  EXPECT_EQ(Ref.Stats.DecodeCacheMisses, 0u);

  RunResult Fast = compileAndRun(Src, CO, VO);
  ASSERT_TRUE(Fast.Ok) << Fast.Error;
  EXPECT_EQ(Fast.Out, Ref.Out);
  EXPECT_EQ(Fast.Stats.RootsTraced, Ref.Stats.RootsTraced);
  EXPECT_EQ(Fast.Stats.DerivedAdjusted, Ref.Stats.DerivedAdjusted);
  EXPECT_EQ(Fast.Stats.FramesTraced, Ref.Stats.FramesTraced);
  // Stress mode revisits the same gc-points constantly: the cache must
  // serve the steady state.
  EXPECT_GT(Fast.Stats.DecodeCacheHits, Fast.Stats.DecodeCacheMisses);
  EXPECT_GT(Fast.Stats.DecodeBytesSkipped, 0u);

  RunResult Cross = compileAndRun(Src, CO, crossChecked(VO));
  ASSERT_TRUE(Cross.Ok) << Cross.Error;
  EXPECT_EQ(Cross.Out, Ref.Out);
  EXPECT_EQ(Cross.Stats.RootsTraced, Ref.Stats.RootsTraced);
}

//===----------------------------------------------------------------------===//
// Allocation-path hardening
//===----------------------------------------------------------------------===//

TEST(GC, OversizedAllocationFailsDeterministically) {
  // An object larger than any space can never be satisfied by collecting;
  // the VM must fail up front instead of spinning the collect-retry loop.
  driver::CompilerOptions CO;
  vm::VMOptions VO;
  VO.HeapBytes = 32u << 10;
  RunResult R = compileAndRun(R"(
MODULE M;
TYPE V = REF ARRAY OF INTEGER;
VAR v: V;
BEGIN
  v := NEW(V, 100000);
  PutInt(0); PutLn();
END M.)",
                              CO, VO);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("out of memory: object of"), std::string::npos)
      << R.Error;
  EXPECT_NE(R.Error.find("exceeds heap capacity"), std::string::npos)
      << R.Error;
}

TEST(GC, OverflowingAllocationSizeFailsDeterministically) {
  // A length whose byte size overflows size_t must not wrap into a small
  // allocation that bypasses the space check.
  driver::CompilerOptions CO;
  vm::VMOptions VO;
  VO.HeapBytes = 32u << 10;
  RunResult R = compileAndRun(R"(
MODULE M;
TYPE V = REF ARRAY OF INTEGER;
VAR v: V;
BEGIN
  v := NEW(V, 4611686018427387904);
  PutInt(0); PutLn();
END M.)",
                              CO, VO);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("out of memory: object of"), std::string::npos)
      << R.Error;
}

TEST(GC, ZeroLengthOpenArraysSurviveCollection) {
  // Zero-length open arrays are real two-word objects (header + length);
  // they must allocate, move, and scan without confusing the collector.
  RunResult R = runStressed(R"(
MODULE M;
TYPE E = REF ARRAY OF INTEGER;
     V = REF ARRAY OF E;
VAR box: V; t: E; n: INTEGER;
BEGIN
  box := NEW(V, 8);
  FOR i := 0 TO 7 DO
    box[i] := NEW(E, 0)
  END;
  t := NEW(E, 3);
  n := 0;
  FOR i := 0 TO 7 DO
    IF box[i] # NIL THEN n := n + 1 END
  END;
  PutInt(n); PutLn();
END M.)");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Out, "8\n");
  EXPECT_GT(R.Stats.Collections, 0u);
}

TEST(GC, AllocationExactlyFillingASpace) {
  // An allocation of exactly the largest representable object must
  // succeed; one element more must fail deterministically.  The largest
  // object is a whole semispace (default mode) or a semispace minus the
  // old-space promotion reserve of one nursery half (generational mode;
  // see Heap::maxObjectBytes).
  bool Gen = std::getenv("MGC_TEST_GEN_GC") != nullptr;
  size_t Space = 32u << 10;
  size_t MaxObj = Gen ? Space - Space / 8 : Space;
  size_t Len = (MaxObj - 2 * sizeof(vm::Word)) / sizeof(vm::Word);

  driver::CompilerOptions CO;
  vm::VMOptions VO;
  VO.HeapBytes = Space;
  RunResult Fit = compileAndRun("MODULE M;\n"
                                "TYPE V = REF ARRAY OF INTEGER;\n"
                                "VAR v: V;\n"
                                "BEGIN\n"
                                "  v := NEW(V, " + std::to_string(Len) +
                                ");\n"
                                "  v[0] := 7;\n"
                                "  PutInt(v[0]); PutLn();\n"
                                "END M.",
                                CO, VO);
  ASSERT_TRUE(Fit.Ok) << Fit.Error;
  EXPECT_EQ(Fit.Out, "7\n");

  RunResult Over = compileAndRun("MODULE M;\n"
                                 "TYPE V = REF ARRAY OF INTEGER;\n"
                                 "VAR v: V;\n"
                                 "BEGIN\n"
                                 "  v := NEW(V, " + std::to_string(Len + 1) +
                                 ");\n"
                                 "  PutInt(0); PutLn();\n"
                                 "END M.",
                                 CO, VO);
  EXPECT_FALSE(Over.Ok);
  EXPECT_NE(Over.Error.find("out of memory"), std::string::npos)
      << Over.Error;
}

//===----------------------------------------------------------------------===//
// Scan plans and the full-collection kernel
//===----------------------------------------------------------------------===//

/// The descriptor walk the scan plans replaced: the fixed PtrOffsets, then
/// each element's ElemPtrOffsets, elements starting after the length
/// word.  Appends the word index of every non-NIL field to \p Offs and
/// returns the object's words.
size_t referenceWalk(const ir::TypeDesc &D, const vm::Word *P,
                     std::vector<size_t> &Offs) {
  for (unsigned Off : D.PtrOffsets)
    if (P[1 + Off] != 0)
      Offs.push_back(1 + Off);
  size_t Words = 1 + D.SizeWords;
  if (D.IsOpenArray) {
    size_t Len = static_cast<size_t>(P[1]);
    for (size_t E = 0; E != Len; ++E)
      for (unsigned Off : D.ElemPtrOffsets)
        if (P[2 + E * D.ElemSizeWords + Off] != 0)
          Offs.push_back(2 + E * D.ElemSizeWords + Off);
    Words += Len * D.ElemSizeWords;
  }
  return Words;
}

TEST(GC, ScanPlanWalksLikeTheDescriptor) {
  // Every descriptor of every checked-in program, plus kinds those
  // programs lack (arrays of records with pointers, empty records).
  std::vector<test::NamedSource> Sources = test::checkedInPrograms();
  Sources.push_back({"kinds", R"(
MODULE M;
TYPE R = REF RECORD v: INTEGER; n: R END;
     Pair = RECORD a: INTEGER; p: R; b: INTEGER; q: R END;
     G = REF ARRAY OF Pair;
     E = REF RECORD END;
     F = REF ARRAY OF RECORD a, b: INTEGER END;
VAR g: G; e: E; f: F;
BEGIN
  g := NEW(G, 2); e := NEW(E); f := NEW(F, 2);
  PutInt(NUMBER(g) + NUMBER(f)); PutLn();
END M.)"});
  bool SawGeneral = false;
  for (const test::NamedSource &Src : Sources) {
    driver::CompileResult C = driver::compile(Src.Source);
    ASSERT_TRUE(C.Prog) << Src.Name << ":\n" << C.Diags.str();
    const std::vector<ir::TypeDesc> &Descs = C.Prog->TypeDescs;
    vm::Heap H(4096, Descs);
    for (size_t I = 0; I != Descs.size(); ++I) {
      const ir::TypeDesc &D = Descs[I];
      SawGeneral |= H.plan(I).K == vm::ScanPlan::GeneralArray;
      // A synthetic object of three elements (open arrays) whose every
      // payload word, so every pointer slot, is non-zero.
      const size_t Len = 3;
      size_t Words =
          1 + D.SizeWords + (D.IsOpenArray ? Len * D.ElemSizeWords : 0);
      std::vector<vm::Word> Obj(Words);
      for (size_t W = 1; W != Words; ++W)
        Obj[W] = 0x1000 + W;
      Obj[0] = vm::Heap::makeHeader(I, 0);
      if (D.IsOpenArray)
        Obj[1] = Len;
      std::vector<size_t> Want, Got;
      size_t WantWords = referenceWalk(D, Obj.data(), Want);
      vm::Word Addr = reinterpret_cast<vm::Word>(Obj.data());
      size_t GotWords = H.forEachPointerField(Addr, [&](vm::Word &F) {
        Got.push_back(static_cast<size_t>(&F - Obj.data()));
      });
      EXPECT_EQ(Got, Want) << Src.Name << " " << D.Name;
      EXPECT_EQ(GotWords, WantWords) << Src.Name << " " << D.Name;
      EXPECT_EQ(H.objectWords(Addr), WantWords) << Src.Name << " " << D.Name;
      EXPECT_EQ(Want.empty(), H.plan(I).K == vm::ScanPlan::PtrFreeRecord ||
                                  H.plan(I).K == vm::ScanPlan::ScalarArray)
          << Src.Name << " " << D.Name;
    }
  }
  EXPECT_TRUE(SawGeneral) << "no descriptor exercised the general array walk";
}

TEST(GC, PointerFreeFixedArrayDescriptorHasNoOffsets) {
  // A fixed array of 2^28 integers, the largest type there is: its
  // descriptor lists no pointer offsets, and building that empty list does
  // not walk the elements.  A fixed array of records with a pointer lists
  // one offset per element.
  driver::CompileResult C = driver::compile(R"(
MODULE M;
TYPE F = REF ARRAY [1..268435456] OF INTEGER;
     R = REF RECORD v: INTEGER END;
     P = REF ARRAY [1..3] OF RECORD a: INTEGER; r: R END;
VAR f: F; p: P;
BEGIN
  f := NEW(F); p := NEW(P);
END M.)");
  ASSERT_TRUE(C.Prog) << C.Diags.str();
  bool SawF = false, SawP = false;
  for (const ir::TypeDesc &D : C.Prog->TypeDescs) {
    if (D.SizeWords == 268435456u) {
      SawF = true;
      EXPECT_TRUE(D.PtrOffsets.empty());
    } else if (D.SizeWords == 6u) {
      SawP = true;
      EXPECT_EQ(D.PtrOffsets, (std::vector<unsigned>{1, 3, 5}));
    }
  }
  EXPECT_TRUE(SawF);
  EXPECT_TRUE(SawP);
}

TEST(GC, FullCollectionCrossCheckPassesOnSec6Programs) {
  // --gc-crosscheck walks to-space after every full collection; the §6
  // programs in bench/pause's 64 KiB heap must pass it.
  uint64_t Collections = 0;
  for (const programs::NamedProgram &P : programs::All) {
    driver::CompilerOptions CO;
    CO.OptLevel = 2;
    vm::VMOptions VO;
    VO.HeapBytes = 64u << 10;
    VO.CrossCheck = true;
    RunResult R = compileAndRun(P.Source, CO, VO);
    ASSERT_TRUE(R.Ok) << P.Name << ": " << R.Error;
    EXPECT_EQ(R.Out, P.Expected) << P.Name;
    Collections += R.Stats.Collections - R.Stats.MinorCollections;
  }
  EXPECT_GT(Collections, 0u) << "no full collection ran the check";
}

//===----------------------------------------------------------------------===//
// Generational mode
//===----------------------------------------------------------------------===//

driver::CompilerOptions genCompilerOptions() {
  driver::CompilerOptions CO;
  CO.OptLevel = 2;
  CO.WriteBarriers = true;
  return CO;
}

vm::VMOptions genVMOptions(size_t HeapBytes, size_t NurseryBytes) {
  vm::VMOptions VO;
  VO.GenGc = true;
  VO.HeapBytes = HeapBytes;
  VO.NurseryBytes = NurseryBytes;
  return VO;
}

TEST(GenGC, OldToYoungEdgesSurviveMinorCollections) {
  // A long-lived list is extended at the tail: once the tail is promoted,
  // every append is an old→young store that only the write barrier and
  // remembered set keep alive across minor collections.
  const std::string Src = R"(
MODULE M;
TYPE R = REF RECORD v: INTEGER; next: R END;
VAR head, tail, n: R; s: INTEGER;
BEGIN
  head := NEW(R); head^.v := 0; head^.next := NIL;
  tail := head;
  FOR i := 1 TO 500 DO
    n := NEW(R);
    n^.v := i;
    n^.next := NIL;
    tail^.next := n;
    tail := n
  END;
  s := 0;
  n := head;
  WHILE n # NIL DO s := s + n^.v; n := n^.next END;
  PutInt(s); PutLn();
END M.)";

  RunResult Gen =
      compileAndRun(Src, genCompilerOptions(),
                    crossChecked(genVMOptions(64u << 10, 1u << 10)));
  ASSERT_TRUE(Gen.Ok) << Gen.Error;
  EXPECT_EQ(Gen.Out, "125250\n");
  EXPECT_GT(Gen.Stats.MinorCollections, 0u);
  EXPECT_GT(Gen.Stats.WriteBarriersRun, 0u);
  EXPECT_GT(Gen.Stats.RemSetRecords, 0u)
      << "tail^.next := n from a promoted tail must hit the remembered set";

  // The same program in default two-space mode produces the same output.
  // (Under MGC_TEST_GEN_GC=1 this run is forced generational too, so only
  // the output is compared, not the collection mix.)
  driver::CompilerOptions CO;
  CO.OptLevel = 2;
  vm::VMOptions VO;
  VO.HeapBytes = 64u << 10;
  RunResult Ref = compileAndRun(Src, CO, crossChecked(VO));
  ASSERT_TRUE(Ref.Ok) << Ref.Error;
  EXPECT_EQ(Ref.Out, Gen.Out);
}

TEST(GenGC, RememberedSetCountsAreExact) {
  // The remembered set is a set of slots: a barrier records a slot only
  // when it is not already in the set, and a minor collection drops the
  // slots that no longer hold a young pointer.  Nodes are 24 bytes, so each
  // 200-node loop fills the 4 KiB nursery once: one minor collection per
  // phase.
  //  - Phase 1: a[0] gets y 50 times (1 record) and a[1..20] get y (20
  //    records); a[11..20] are then overwritten with NIL.  The first minor
  //    starts with 21 entries and keeps a[0..10], whose y survives.
  //  - Phase 2: a[11..20] get y again (10 records, their entries were
  //    dropped), a[5] gets it again (none, still in the set), a[21..30]
  //    get it too (10 records).  The second minor starts with 31 entries:
  //    the peak.  It promotes y, so every entry goes, but p (promoted) now
  //    points at its young next node, a new entry no barrier recorded.
  //  - Phase 3: a[0] gets a new node (1 record); the third minor starts
  //    with 2 entries.
  const std::string Src = R"(
MODULE RemCount;
TYPE Node = REF RECORD v: INTEGER; next: Node END;
     Vec = REF ARRAY OF Node;
VAR a: Vec; y, p, t: Node;
BEGIN
  a := NEW(Vec, 1000);
  y := NEW(Node); y^.v := 1;
  p := NEW(Node);
  FOR i := 1 TO 50 DO a[0] := y END;
  FOR i := 1 TO 20 DO a[i] := y END;
  FOR i := 11 TO 20 DO a[i] := NIL END;
  FOR i := 1 TO 200 DO t := NEW(Node) END;
  FOR i := 11 TO 20 DO a[i] := y END;
  a[5] := y;
  FOR i := 21 TO 30 DO a[i] := y END;
  p^.next := NEW(Node); p^.next^.v := 2;
  FOR i := 1 TO 200 DO t := NEW(Node) END;
  a[0] := NEW(Node); a[0]^.v := 3;
  FOR i := 1 TO 200 DO t := NEW(Node) END;
  PutInt(a[0]^.v + p^.next^.v + a[30]^.v); PutLn();
END RemCount.)";
  for (vm::DispatchTier Tier :
       {vm::DispatchTier::Threaded, vm::DispatchTier::Switch}) {
    vm::VMOptions VO = crossChecked(genVMOptions(64u << 10, 4u << 10));
    VO.Dispatch = Tier;
    RunResult R = compileAndRun(Src, genCompilerOptions(), VO);
    ASSERT_TRUE(R.Ok) << R.Error;
    EXPECT_EQ(R.Out, "6\n");
    EXPECT_EQ(R.Stats.Collections, 3u);
    EXPECT_EQ(R.Stats.MinorCollections, 3u);
    EXPECT_EQ(R.Stats.RemSetRecords, 1u + 20u + 10u + 10u + 1u);
    EXPECT_EQ(R.Stats.RemSetPeak, 31u);
  }
}

TEST(GenGC, CollectionMidForLoopWithLiveDerived_BothModes) {
  // The §3 un-derive/re-derive protocol around a collection triggered
  // mid-FOR, exercised in both the default and the generational heap: the
  // strength-reduced walking pointer must stay correct when the array
  // moves within the nursery, is promoted, or is evacuated by a full
  // collection.
  const std::string Src = R"(
MODULE M;
TYPE A = REF ARRAY [1..16] OF INTEGER;
     R = REF RECORD v: INTEGER END;
PROCEDURE Fill(p: A);
VAR i: INTEGER; junk: R;
BEGIN
  FOR i := 1 TO 16 DO
    junk := NEW(R);    (* allocation mid-loop: gc-point with live derived *)
    p[i] := i * 3
  END
END Fill;
VAR a: A; s: INTEGER;
BEGIN
  a := NEW(A);
  Fill(a);
  s := 0;
  FOR i := 1 TO 16 DO s := s + a[i] END;
  PutInt(s); PutLn();
END M.)";

  // Default two-space mode, stressed so every mid-loop gc-point collects.
  driver::CompilerOptions CO;
  CO.OptLevel = 2;
  vm::VMOptions VO;
  VO.HeapBytes = 1u << 16;
  VO.GcStress = true;
  RunResult Ref = compileAndRun(Src, CO, crossChecked(VO));
  ASSERT_TRUE(Ref.Ok) << Ref.Error;
  EXPECT_EQ(Ref.Out, "408\n");
  EXPECT_GT(Ref.Stats.DerivedAdjusted, 0u);

  // Generational mode, stressed: the same gc-points run minor collections.
  vm::VMOptions GenVO = genVMOptions(1u << 16, 1u << 10);
  GenVO.GcStress = true;
  RunResult Gen = compileAndRun(Src, genCompilerOptions(), crossChecked(GenVO));
  ASSERT_TRUE(Gen.Ok) << Gen.Error;
  EXPECT_EQ(Gen.Out, Ref.Out);
  EXPECT_GT(Gen.Stats.DerivedAdjusted, 0u);
  EXPECT_GT(Gen.Stats.MinorCollections, 0u);
}

TEST(GenGC, PromotionAndFullCollectionFallback) {
  // Each round builds a list that stays live across several minor
  // collections (so its nodes age and get promoted), then drops it.  The
  // promoted garbage accumulates in old space until the minor-headroom
  // check fails and the full Cheney fallback reclaims it, clearing the
  // remembered set.
  const std::string Src = R"(
MODULE M;
TYPE R = REF RECORD v: INTEGER; next: R END;
VAR h, n: R; s: INTEGER;
BEGIN
  s := 0;
  FOR r := 1 TO 40 DO
    h := NIL;
    FOR i := 1 TO 120 DO
      n := NEW(R); n^.v := i; n^.next := h; h := n
    END;
    WHILE h # NIL DO s := s + 1; h := h^.next END
  END;
  PutInt(s); PutLn();
END M.)";
  RunResult R = compileAndRun(Src, genCompilerOptions(),
                              crossChecked(genVMOptions(32u << 10, 1u << 10)));
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Out, "4800\n");
  EXPECT_GT(R.Stats.MinorCollections, 0u);
  EXPECT_GT(R.Stats.Collections, R.Stats.MinorCollections)
      << "old space must fill up and fall back to a full collection";
}

TEST(GenGC, StressedRootCountsMatchDefaultMode) {
  // With a heap large enough that only stress-mode collections happen,
  // both modes collect at exactly the same gc-points and gather the same
  // table-driven root set: the counts must agree exactly.  A small list
  // program, then takl's deep recursion over lists.
  const programs::NamedProgram Inputs[] = {{"list", R"(
MODULE M;
TYPE R = REF RECORD v: INTEGER; next: R END;
VAR h, c: R; s: INTEGER;
BEGIN
  h := NIL;
  FOR i := 1 TO 40 DO
    c := NEW(R); c^.v := i; c^.next := h; h := c
  END;
  s := 0;
  WHILE h # NIL DO s := s + h^.v; h := h^.next END;
  PutInt(s); PutLn();
END M.)", "820\n"},
      {"takl", programs::TaklSource, programs::TaklExpected}};
  for (const programs::NamedProgram &In : Inputs) {
    SCOPED_TRACE(In.Name);
    driver::CompilerOptions CO;
    CO.OptLevel = 2;
    vm::VMOptions VO;
    VO.HeapBytes = 1u << 20;
    VO.GcStress = true;
    RunResult Ref = compileAndRun(In.Source, CO, crossChecked(VO));
    ASSERT_TRUE(Ref.Ok) << Ref.Error;
    EXPECT_EQ(Ref.Out, In.Expected);

    vm::VMOptions GenVO = genVMOptions(1u << 20, 0);
    GenVO.GcStress = true;
    RunResult Gen =
        compileAndRun(In.Source, genCompilerOptions(), crossChecked(GenVO));
    ASSERT_TRUE(Gen.Ok) << Gen.Error;
    EXPECT_EQ(Gen.Out, Ref.Out);
    EXPECT_EQ(Gen.Stats.Collections, Ref.Stats.Collections);
    EXPECT_EQ(Gen.Stats.RootsTraced, Ref.Stats.RootsTraced);
    EXPECT_EQ(Gen.Stats.DerivedAdjusted, Ref.Stats.DerivedAdjusted);
    EXPECT_EQ(Gen.Stats.FramesTraced, Ref.Stats.FramesTraced);
  }
}

TEST(GenGC, ObsWorkloadsPrintTheSameInBothModes) {
  // bench/obs_overhead's workloads, in heaps a few times their live sets:
  // generational mode (minor and full collections, every decode and
  // minor collection cross-checked) prints what two-space mode prints.
  for (const bench::Workload &W : bench::gengcWorkloads()) {
    SCOPED_TRACE(W.Name);
    driver::CompilerOptions CO;
    CO.OptLevel = 2;
    vm::VMOptions VO;
    VO.HeapBytes = W.HeapBytes;
    RunResult Full = compileAndRun(W.Source, CO, crossChecked(VO));
    ASSERT_TRUE(Full.Ok) << Full.Error;
    if (W.Expected) {
      EXPECT_EQ(Full.Out, W.Expected);
    }

    RunResult Gen = compileAndRun(
        W.Source, genCompilerOptions(),
        crossChecked(genVMOptions(W.HeapBytes, W.NurseryBytes)));
    ASSERT_TRUE(Gen.Ok) << Gen.Error;
    EXPECT_EQ(Gen.Out, Full.Out);
    EXPECT_GT(Gen.Stats.MinorCollections, 0u);
  }
}

TEST(GenGC, AmbiguousDerivationBasesStraddleNurseryAndOldSpace) {
  // The §4 diamond (v := p[i] or q[i] resolved by a path variable), but
  // under generational collection with the two alternative bases in
  // *different spaces*: `a` is allocated first and aged past several
  // minor collections (promoted to old space) while `b` is nursery-fresh
  // at the call.  A minor collection at Use's allocation must re-derive v
  // from whichever base the path variable names — moving nursery base or
  // stationary promoted base — without confusing the two.
  const char *Src = R"(
MODULE M;
TYPE Arr = REF ARRAY [1..8] OF INTEGER;
     Cell = REF RECORD v: INTEGER END;
VAR a, b: Arr; junkg: Cell; r: INTEGER;

PROCEDURE Use(x: INTEGER): INTEGER;
VAR junk: Arr;
BEGIN
  junk := NEW(Arr);    (* every call runs a minor collection under stress *)
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

BEGIN
  a := NEW(Arr);
  FOR i := 1 TO 8 DO a[i] := i END;
  (* Age `a` across many stress-driven minor collections so it promotes
     out of the nursery before Work runs. *)
  FOR i := 1 TO 32 DO junkg := NEW(Cell) END;
  b := NEW(Arr);
  FOR i := 1 TO 8 DO b[i] := 10 * i END;
  r := Work(TRUE, a, b) * 1000 + Work(FALSE, a, b);
  PutInt(r); PutLn();
END M.)";

  driver::CompilerOptions CO = genCompilerOptions();
  CO.Mode = driver::Disambiguation::PathVariables;
  vm::VMOptions VO = genVMOptions(1u << 20, 1u << 10);
  VO.GcStress = true;
  RunResult R = compileAndRun(Src, CO, crossChecked(VO));
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Out, "36360\n");
  EXPECT_GT(R.PathVars, 0u) << "the diamond must create a path variable";
  EXPECT_GT(R.Stats.MinorCollections, 16u)
      << "both Work calls must see minor collections";
  EXPECT_GT(R.Stats.DerivedAdjusted, 0u);

  // Path splitting must agree under the same generational pressure.
  driver::CompilerOptions Split = CO;
  Split.Mode = driver::Disambiguation::PathSplitting;
  RunResult RS = compileAndRun(Src, Split, crossChecked(VO));
  ASSERT_TRUE(RS.Ok) << RS.Error;
  EXPECT_EQ(RS.Out, "36360\n");
  EXPECT_EQ(RS.PathVars, 0u);
}

} // namespace
