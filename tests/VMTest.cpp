//===- tests/VMTest.cpp - Language and machine semantics -------------------===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "ir/Printer.h"

using namespace mgc;
using namespace mgc::test;

namespace {

/// Runs at both -O0 and -O2 and expects the same output (every VM test
/// doubles as an optimizer-soundness check).
void expectOutput(const std::string &Src, const std::string &Expected) {
  for (int Opt : {0, 2}) {
    driver::CompilerOptions CO;
    CO.OptLevel = Opt;
    RunResult R = compileAndRun(Src, CO);
    EXPECT_TRUE(R.Ok) << "opt=" << Opt << " error: " << R.Error;
    EXPECT_EQ(R.Out, Expected)
        << "opt=" << Opt << "\nIR:\n"
        << (R.IR ? ir::toString(*R.IR) : std::string("(no IR)"));
  }
}

void expectRuntimeError(const std::string &Src, const std::string &Fragment) {
  for (int Opt : {0, 2}) {
    driver::CompilerOptions CO;
    CO.OptLevel = Opt;
    RunResult R = compileAndRun(Src, CO);
    EXPECT_FALSE(R.Ok) << "opt=" << Opt;
    EXPECT_NE(R.Error.find(Fragment), std::string::npos)
        << "opt=" << Opt << " actual error: " << R.Error;
  }
}

TEST(VM, ArithmeticAndPrecedence) {
  expectOutput(R"(
MODULE M;
BEGIN
  PutInt(2 + 3 * 4); PutLn();
  PutInt((2 + 3) * 4); PutLn();
  PutInt(17 DIV 5); PutChar(32); PutInt(17 MOD 5); PutLn();
  PutInt(-7); PutChar(32); PutInt(ABS(-7)); PutLn();
END M.)",
               "14\n20\n3 2\n-7 7\n");
}

TEST(VM, ComparisonsAndBooleans) {
  expectOutput(R"(
MODULE M;
VAR b: BOOLEAN;
BEGIN
  b := (1 < 2) AND (2 <= 2) AND (3 > 2) AND (3 >= 3) AND (1 # 2) AND (4 = 4);
  IF b THEN PutInt(1) ELSE PutInt(0) END;
  IF NOT b THEN PutInt(1) ELSE PutInt(0) END;
  PutLn();
END M.)",
               "10\n");
}

TEST(VM, ShortCircuitEvaluation) {
  // The second operand must not be evaluated: it would divide by zero.
  expectOutput(R"(
MODULE M;
VAR z: INTEGER;
BEGIN
  z := 0;
  IF (z # 0) AND (10 DIV z > 1) THEN PutInt(1) ELSE PutInt(2) END;
  IF (z = 0) OR (10 DIV z > 1) THEN PutInt(3) ELSE PutInt(4) END;
  PutLn();
END M.)",
               "23\n");
}

TEST(VM, WhileRepeatLoopExit) {
  expectOutput(R"(
MODULE M;
VAR i, s: INTEGER;
BEGIN
  i := 0; s := 0;
  WHILE i < 5 DO s := s + i; INC(i) END;
  PutInt(s); PutChar(32);
  REPEAT DEC(i) UNTIL i = 0;
  PutInt(i); PutChar(32);
  LOOP
    INC(i);
    IF i = 7 THEN EXIT END
  END;
  PutInt(i); PutLn();
END M.)",
               "10 0 7\n");
}

TEST(VM, ForLoopVariants) {
  expectOutput(R"(
MODULE M;
VAR s: INTEGER;
BEGIN
  s := 0;
  FOR i := 1 TO 10 DO s := s + i END;
  PutInt(s); PutChar(32);
  s := 0;
  FOR i := 10 TO 1 BY -2 DO s := s + i END;
  PutInt(s); PutChar(32);
  s := 0;
  FOR i := 5 TO 4 DO s := s + 1 END;  (* zero-trip *)
  PutInt(s); PutLn();
END M.)",
               "55 30 0\n");
}

TEST(VM, ProceduresAndRecursion) {
  expectOutput(R"(
MODULE M;
PROCEDURE Fib(n: INTEGER): INTEGER;
BEGIN
  IF n < 2 THEN RETURN n END;
  RETURN Fib(n - 1) + Fib(n - 2)
END Fib;
BEGIN
  PutInt(Fib(15)); PutLn();
END M.)",
               "610\n");
}

TEST(VM, VarParametersUpdateCaller) {
  expectOutput(R"(
MODULE M;
VAR g: INTEGER;
PROCEDURE Bump(VAR x: INTEGER; by: INTEGER);
BEGIN
  x := x + by
END Bump;
PROCEDURE Twice(VAR y: INTEGER);
BEGIN
  Bump(y, 1);   (* forwarding a VAR parameter *)
  Bump(y, 1)
END Twice;
VAR l: INTEGER;
BEGIN
  g := 10; l := 20;
  Bump(g, 5);
  Twice(l);
  PutInt(g); PutChar(32); PutInt(l); PutLn();
END M.)",
               "15 22\n");
}

TEST(VM, VarParameterOnHeapElement) {
  expectOutput(R"(
MODULE M;
TYPE A = REF ARRAY [1..4] OF INTEGER;
PROCEDURE Inc2(VAR x: INTEGER);
BEGIN
  INC(x, 2)
END Inc2;
VAR a: A;
BEGIN
  a := NEW(A);
  a[3] := 40;
  Inc2(a[3]);    (* interior pointer argument *)
  PutInt(a[3]); PutLn();
END M.)",
               "42\n");
}

TEST(VM, FixedArraysWithOddBounds) {
  expectOutput(R"(
MODULE M;
VAR a: ARRAY [7..13] OF INTEGER; s: INTEGER;
BEGIN
  FOR i := 7 TO 13 DO a[i] := i * i END;
  s := 0;
  FOR i := FIRST(a) TO LAST(a) DO s := s + a[i] END;
  PutInt(s); PutChar(32); PutInt(NUMBER(a)); PutLn();
END M.)",
               "728 7\n");
}

TEST(VM, OpenArraysAndNumber) {
  expectOutput(R"(
MODULE M;
TYPE V = REF ARRAY OF INTEGER;
VAR v: V; s: INTEGER;
BEGIN
  v := NEW(V, 6);
  FOR i := 0 TO NUMBER(v) - 1 DO v[i] := i + 1 END;
  s := 0;
  FOR i := FIRST(v) TO LAST(v) DO s := s + v[i] END;
  PutInt(s); PutLn();
END M.)",
               "21\n");
}

TEST(VM, NumberAndLastThroughDereference) {
  // NUMBER(v^) and LAST(v^) read the open array's length through v, as
  // NUMBER(v) and LAST(v) do.
  expectOutput(R"(
MODULE M;
TYPE V = REF ARRAY OF INTEGER;
VAR v: V;
BEGIN
  v := NEW(V, 3);
  PutInt(NUMBER(v^)); PutChar(32); PutInt(NUMBER(v)); PutChar(32);
  PutInt(LAST(v^)); PutChar(32); PutInt(LAST(v)); PutChar(32);
  PutInt(FIRST(v^)); PutLn();
END M.)",
               "3 3 2 2 0\n");
}

TEST(VM, RecordsAndNestedAggregates) {
  expectOutput(R"(
MODULE M;
TYPE Pt = RECORD x, y: INTEGER END;
     Box = RECORD lo, hi: Pt; tag: INTEGER END;
VAR b: Box;
BEGIN
  b.lo.x := 1; b.lo.y := 2; b.hi.x := 3; b.hi.y := 4; b.tag := 9;
  PutInt(b.lo.x + b.lo.y * 10 + b.hi.x * 100 + b.hi.y * 1000 + b.tag * 10000);
  PutLn();
END M.)",
               "94321\n");
}

TEST(VM, HeapRecordsAndSharing) {
  expectOutput(R"(
MODULE M;
TYPE R = REF RECORD v: INTEGER; next: R END;
VAR a, b: R;
BEGIN
  a := NEW(R); b := NEW(R);
  a^.v := 1; a^.next := b;
  b^.v := 2; b^.next := NIL;
  a^.next^.v := 5;           (* through the alias *)
  PutInt(b^.v); PutChar(32);
  IF a^.next = b THEN PutInt(1) ELSE PutInt(0) END;
  PutLn();
END M.)",
               "5 1\n");
}

TEST(VM, WithStatementAliases) {
  expectOutput(R"(
MODULE M;
TYPE R = REF RECORD x, y: INTEGER END;
VAR r: R; a: ARRAY [0..4] OF INTEGER;
BEGIN
  r := NEW(R);
  WITH f = r^.y DO
    f := 21;
    f := f * 2
  END;
  PutInt(r^.y); PutChar(32);
  a[2] := 5;
  WITH e = a[2] DO INC(e, 10) END;
  PutInt(a[2]); PutLn();
END M.)",
               "42 15\n");
}

TEST(VM, StringLiterals) {
  expectOutput(R"(
MODULE M;
TYPE T = REF ARRAY OF INTEGER;
VAR s: T;
BEGIN
  s := "Hi!";
  PutInt(NUMBER(s)); PutChar(32);
  FOR i := 0 TO NUMBER(s) - 1 DO PutChar(s[i]) END;
  PutLn();
END M.)",
               "3 Hi!\n");
}

TEST(VM, GlobalsAcrossProcedures) {
  expectOutput(R"(
MODULE M;
TYPE Box = REF RECORD v: INTEGER END;
VAR count: INTEGER; top: Box;
PROCEDURE Touch();
BEGIN
  INC(count);
  top^.v := count
END Touch;
BEGIN
  count := 0;
  top := NEW(Box);
  Touch(); Touch(); Touch();
  PutInt(top^.v); PutLn();
END M.)",
               "3\n");
}

TEST(VM, TwoDimensionalIndexing) {
  expectOutput(R"(
MODULE M;
TYPE Mat = REF ARRAY OF ARRAY [0..3] OF INTEGER;
VAR m: Mat; s: INTEGER;
BEGIN
  m := NEW(Mat, 3);
  FOR i := 0 TO 2 DO
    FOR j := 0 TO 3 DO
      m[i, j] := i * 10 + j
    END
  END;
  s := 0;
  FOR i := 0 TO 2 DO
    FOR j := 0 TO 3 DO
      s := s + m[i, j]
    END
  END;
  PutInt(s); PutLn();
END M.)",
               "138\n");
}

//===----------------------------------------------------------------------===//
// Runtime errors
//===----------------------------------------------------------------------===//

TEST(VM, NilDereferenceTraps) {
  expectRuntimeError(R"(
MODULE M;
TYPE R = REF RECORD x: INTEGER END;
VAR r: R;
BEGIN
  r := NIL;
  PutInt(r^.x);
END M.)",
                     "NIL dereference");
}

TEST(VM, DivisionByZeroTraps) {
  expectRuntimeError(R"(
MODULE M;
VAR a, b: INTEGER;
BEGIN
  a := 1; b := 0;
  PutInt(a DIV b);
END M.)",
                     "division by zero");
}

TEST(VM, MissingReturnTraps) {
  expectRuntimeError(R"(
MODULE M;
PROCEDURE F(x: INTEGER): INTEGER;
BEGIN
  IF x > 0 THEN RETURN 1 END
END F;
BEGIN
  PutInt(F(-1));
END M.)",
                     "without RETURN");
}

TEST(VM, StackOverflowTraps) {
  driver::CompilerOptions CO;
  vm::VMOptions VO;
  VO.StackWords = 4096;
  RunResult R = compileAndRun(R"(
MODULE M;
PROCEDURE Loop(n: INTEGER): INTEGER;
BEGIN
  RETURN Loop(n + 1)
END Loop;
BEGIN
  PutInt(Loop(0));
END M.)",
                              CO, VO);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("stack overflow"), std::string::npos) << R.Error;
}

TEST(VM, HeapExhaustionReported) {
  driver::CompilerOptions CO;
  vm::VMOptions VO;
  VO.HeapBytes = 2048;
  RunResult R = compileAndRun(R"(
MODULE M;
TYPE R = REF RECORD v: INTEGER; next: R END;
VAR head, n: R;
BEGIN
  head := NIL;
  LOOP
    n := NEW(R);
    n^.next := head;
    head := n        (* everything stays live *)
  END;
END M.)",
                              CO, VO);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("heap exhausted"), std::string::npos) << R.Error;
}

} // namespace
