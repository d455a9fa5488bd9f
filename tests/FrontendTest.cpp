//===- tests/FrontendTest.cpp - Lexer, parser, Sema, types -----------------===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//

#include "frontend/Lexer.h"
#include "frontend/Parser.h"
#include "frontend/Sema.h"
#include "frontend/Type.h"

#include <gtest/gtest.h>

using namespace mgc;

namespace {

//===----------------------------------------------------------------------===//
// Lexer
//===----------------------------------------------------------------------===//

std::vector<Token> lexAll(const std::string &Src, Diagnostics &Diags) {
  Lexer L(Src, Diags);
  std::vector<Token> Out;
  while (true) {
    Token T = L.next();
    Out.push_back(T);
    if (T.is(TokKind::Eof))
      return Out;
  }
}

TEST(Lexer, KeywordsAndIdentifiers) {
  Diagnostics D;
  auto Toks = lexAll("MODULE foo BEGIN END while WHILE", D);
  ASSERT_EQ(Toks.size(), 7u);
  EXPECT_EQ(Toks[0].Kind, TokKind::KwModule);
  EXPECT_EQ(Toks[1].Kind, TokKind::Ident);
  EXPECT_EQ(Toks[1].Text, "foo");
  EXPECT_EQ(Toks[2].Kind, TokKind::KwBegin);
  EXPECT_EQ(Toks[3].Kind, TokKind::KwEnd);
  // Keywords are case sensitive (Modula style): "while" is an identifier.
  EXPECT_EQ(Toks[4].Kind, TokKind::Ident);
  EXPECT_EQ(Toks[5].Kind, TokKind::KwWhile);
  EXPECT_FALSE(D.hasErrors());

  // Only an exact, all-uppercase spelling is a keyword: a keyword with
  // letters, digits or underscores after it, a prefix of one and a
  // mixed-case spelling are identifiers.  The longest keyword runs
  // straight into a comment, and a keyword ends the input.
  Toks = lexAll("ENDX BEGINS IFF PROC END_1 DO2 Begin eND PROCEDURE(* c *)END",
                D);
  ASSERT_EQ(Toks.size(), 11u);
  const char *Idents[] = {"ENDX", "BEGINS", "IFF",   "PROC",
                          "END_1", "DO2",   "Begin", "eND"};
  for (size_t I = 0; I != 8; ++I) {
    EXPECT_EQ(Toks[I].Kind, TokKind::Ident) << Idents[I];
    EXPECT_EQ(Toks[I].Text, Idents[I]);
  }
  EXPECT_EQ(Toks[8].Kind, TokKind::KwProcedure);
  EXPECT_EQ(Toks[9].Kind, TokKind::KwEnd);
  EXPECT_EQ(Toks[9].Loc.Col, 58u);
  EXPECT_EQ(Toks[10].Kind, TokKind::Eof);
  EXPECT_FALSE(D.hasErrors());
}

TEST(Lexer, CompositeOperators) {
  Diagnostics D;
  auto Toks = lexAll(":= <= >= .. . # ^", D);
  EXPECT_EQ(Toks[0].Kind, TokKind::Assign);
  EXPECT_EQ(Toks[1].Kind, TokKind::LessEq);
  EXPECT_EQ(Toks[2].Kind, TokKind::GreaterEq);
  EXPECT_EQ(Toks[3].Kind, TokKind::DotDot);
  EXPECT_EQ(Toks[4].Kind, TokKind::Dot);
  EXPECT_EQ(Toks[5].Kind, TokKind::NotEqual);
  EXPECT_EQ(Toks[6].Kind, TokKind::Caret);
}

TEST(Lexer, NestedComments) {
  Diagnostics D;
  auto Toks = lexAll("a (* x (* nested *) y *) b", D);
  ASSERT_EQ(Toks.size(), 3u);
  EXPECT_EQ(Toks[0].Text, "a");
  EXPECT_EQ(Toks[1].Text, "b");
  EXPECT_FALSE(D.hasErrors());
}

TEST(Lexer, UnterminatedCommentReported) {
  Diagnostics D;
  lexAll("a (* never closed", D);
  EXPECT_TRUE(D.hasErrors());
}

TEST(Lexer, IntegerLiterals) {
  Diagnostics D;
  auto Toks = lexAll("0 42 123456789", D);
  EXPECT_EQ(Toks[0].IntValue, 0);
  EXPECT_EQ(Toks[1].IntValue, 42);
  EXPECT_EQ(Toks[2].IntValue, 123456789);
}

TEST(Lexer, IntegerLiteralAboveInt64MaxReported) {
  Diagnostics D;
  auto Toks = lexAll("9223372036854775807", D);
  EXPECT_EQ(Toks[0].IntValue, INT64_MAX);
  EXPECT_FALSE(D.hasErrors());
  lexAll("x := 9223372036854775808", D);
  EXPECT_NE(D.str().find("integer literal exceeds 9223372036854775807"),
            std::string::npos)
      << D.str();
}

TEST(Lexer, StringLiteralsWithEscapes) {
  Diagnostics D;
  auto Toks = lexAll("\"hi there\" \"a\\nb\" \"q\\\"q\"", D);
  EXPECT_EQ(Toks[0].Kind, TokKind::StrLit);
  EXPECT_EQ(Toks[0].Text, "hi there");
  EXPECT_EQ(Toks[1].Text, "a\nb");
  EXPECT_EQ(Toks[2].Text, "q\"q");
  EXPECT_FALSE(D.hasErrors());
}

TEST(Lexer, TracksLineNumbers) {
  Diagnostics D;
  auto Toks = lexAll("a\nb\n  c", D);
  EXPECT_EQ(Toks[0].Loc.Line, 1u);
  EXPECT_EQ(Toks[1].Loc.Line, 2u);
  EXPECT_EQ(Toks[2].Loc.Line, 3u);
  EXPECT_EQ(Toks[2].Loc.Col, 3u);

  // A tab and a carriage return take one column each; the line feed of
  // "\r\n" starts the next line at column 1.
  Toks = lexAll("a\tb\r\nc  \t d", D);
  ASSERT_EQ(Toks.size(), 5u);
  EXPECT_EQ(Toks[1].Loc.Line, 1u);
  EXPECT_EQ(Toks[1].Loc.Col, 3u);
  EXPECT_EQ(Toks[2].Loc.Line, 2u);
  EXPECT_EQ(Toks[2].Loc.Col, 1u);
  EXPECT_EQ(Toks[3].Loc.Line, 2u);
  EXPECT_EQ(Toks[3].Loc.Col, 6u);
  EXPECT_EQ(Toks[4].Loc.Line, 2u);
  EXPECT_EQ(Toks[4].Loc.Col, 7u);
}

//===----------------------------------------------------------------------===//
// Parser and Sema
//===----------------------------------------------------------------------===//

std::unique_ptr<ModuleAST> parseOk(const std::string &Src) {
  Diagnostics D;
  auto M = parseModule(Src, D);
  EXPECT_TRUE(M != nullptr) << D.str();
  return M;
}

void expectParseError(const std::string &Src, const std::string &Fragment) {
  Diagnostics D;
  auto M = parseModule(Src, D);
  EXPECT_EQ(M, nullptr);
  EXPECT_NE(D.str().find(Fragment), std::string::npos)
      << "diagnostics were:\n"
      << D.str();
}

void expectSemaError(const std::string &Src, const std::string &Fragment) {
  Diagnostics D;
  auto M = parseModule(Src, D);
  ASSERT_TRUE(M != nullptr) << D.str();
  EXPECT_FALSE(checkModule(*M, D));
  EXPECT_NE(D.str().find(Fragment), std::string::npos)
      << "diagnostics were:\n"
      << D.str();
}

std::unique_ptr<ModuleAST> checkOk(const std::string &Src) {
  Diagnostics D;
  auto M = parseModule(Src, D);
  EXPECT_TRUE(M != nullptr) << D.str();
  if (M) {
    EXPECT_TRUE(checkModule(*M, D)) << D.str();
  }
  return M;
}

TEST(Parser, EmptyModule) {
  auto M = parseOk("MODULE M; BEGIN END M.");
  EXPECT_EQ(M->Name, "M");
  EXPECT_TRUE(M->MainBody.empty());
}

TEST(Parser, TrailerMismatchReported) {
  expectParseError("MODULE M; BEGIN END N.", "does not match");
}

TEST(Parser, RecursiveTypesThroughRef) {
  auto M = parseOk(R"(
MODULE M;
TYPE List = REF ListRec;
     ListRec = RECORD head: INTEGER; tail: List END;
BEGIN END M.)");
  ASSERT_TRUE(M != nullptr);
}

TEST(Parser, MutuallyRecursiveTypes) {
  parseOk(R"(
MODULE M;
TYPE A = REF ARec;
     B = REF BRec;
     ARec = RECORD b: B END;
     BRec = RECORD a: A END;
BEGIN END M.)");
}

TEST(Parser, RecursionMustPassThroughRef) {
  expectParseError(R"(
MODULE M;
TYPE R = RECORD x: R END;
BEGIN END M.)",
                   "before its definition is complete");
}

TEST(Parser, OpenArrayOnlyUnderRef) {
  expectParseError(R"(
MODULE M;
VAR a: ARRAY OF INTEGER;
BEGIN END M.)",
                   "only permitted under REF");
}

TEST(Parser, ConstExpressionsFold) {
  auto M = parseOk(R"(
MODULE M;
CONST N = 4 * 3 + 2; Lo = -N;
TYPE A = ARRAY [Lo .. N] OF INTEGER;
VAR a: A;
BEGIN END M.)");
  ASSERT_EQ(M->Globals.size(), 1u);
  EXPECT_EQ(M->Globals[0]->Ty->lo(), -14);
  EXPECT_EQ(M->Globals[0]->Ty->hi(), 14);
}

TEST(Parser, ConstExpressionsWrapAndRejectMinDivMinusOne) {
  // Overflowing sums, products and negations wrap around: W is
  // INT64_MAX + 1 + INT64_MAX = -1, P is 2^64 = 0, and N is -(INT64_MIN)
  // = INT64_MIN.
  auto M = parseOk(R"(
MODULE M;
CONST Max = 9223372036854775807; W = Max + 1 + Max; N = -(Max + 1);
      P = 4294967296 * 4294967296;
TYPE A = ARRAY [W .. P] OF INTEGER;
     B = ARRAY [N + Max .. 0] OF INTEGER;
VAR a: A; b: B;
BEGIN END M.)");
  ASSERT_EQ(M->Globals.size(), 2u);
  EXPECT_EQ(M->Globals[0]->Ty->lo(), -1);
  EXPECT_EQ(M->Globals[0]->Ty->hi(), 0);
  EXPECT_EQ(M->Globals[1]->Ty->lo(), -1);
  for (const char *Op : {"DIV", "MOD"})
    expectParseError(std::string("MODULE M;\n"
                                 "CONST Min = 0 - 9223372036854775807 - 1;\n"
                                 "      X = Min ") +
                         Op + " (0 - 1);\nBEGIN END M.",
                     "integer overflow in constant expression");
}

TEST(Parser, OversizedTypesRejected) {
  // Sizes are counted in 32-bit words, and a type's elements are walked
  // one by one: an array of 2^63 integers used to hang the compiler.
  expectParseError(R"(
MODULE M;
TYPE F = REF ARRAY [1..9223372036854775807] OF INTEGER;
BEGIN END M.)",
                   "3:14: error: array type [1..9223372036854775807] is too "
                   "large: a type may take at most 268435456 words");
  // The whole INTEGER range, whose length wraps to 0.
  expectParseError(R"(
MODULE M;
VAR a: ARRAY [-9223372036854775807 - 1..9223372036854775807] OF BOOLEAN;
BEGIN END M.)",
                   "is too large");
  expectParseError(R"(
MODULE M;
TYPE P = RECORD a, b: INTEGER END;
VAR a: ARRAY [1..134217729] OF P;
BEGIN END M.)",
                   "array type [1..134217729] is too large");
  expectParseError(R"(
MODULE M;
TYPE R = REF RECORD a, b: ARRAY [1..134217728] OF INTEGER; c: INTEGER END;
BEGIN END M.)",
                   "record type is too large");
  parseOk(R"(
MODULE M;
TYPE R = REF RECORD a, b: ARRAY [1..134217728] OF INTEGER END;
BEGIN END M.)");
}

TEST(Parser, MultiIndexSugar) {
  // a[i, j] parses as a[i][j].
  checkOk(R"(
MODULE M;
VAR a: ARRAY [0..3] OF ARRAY [0..3] OF INTEGER; x: INTEGER;
BEGIN x := a[1, 2]; a[2, 1] := x END M.)");
}

TEST(Sema, UnknownIdentifier) {
  expectSemaError("MODULE M; BEGIN x := 1 END M.", "unknown identifier");
}

TEST(Sema, TypeMismatchOnAssign) {
  expectSemaError(R"(
MODULE M;
VAR b: BOOLEAN;
BEGIN b := 3 END M.)",
                  "cannot assign");
}

TEST(Sema, RefComparableOnlyWithEqual) {
  expectSemaError(R"(
MODULE M;
TYPE R = REF INTEGER;
VAR a, b: R; c: BOOLEAN;
BEGIN c := a < b END M.)",
                  "ordering comparison");
}

TEST(Sema, NilAssignableToAnyRef) {
  checkOk(R"(
MODULE M;
TYPE R = REF INTEGER;
VAR a: R;
BEGIN a := NIL END M.)");
}

TEST(Sema, VarArgumentMustBeDesignator) {
  expectSemaError(R"(
MODULE M;
PROCEDURE P(VAR x: INTEGER); BEGIN x := 1 END P;
BEGIN P(3 + 4) END M.)",
                  "VAR argument must be a designator");
}

TEST(Sema, CallArgumentCountChecked) {
  expectSemaError(R"(
MODULE M;
PROCEDURE P(x: INTEGER); BEGIN END P;
BEGIN P(1, 2) END M.)",
                  "argument(s)");
}

TEST(Sema, ProperProcedureNotAnExpression) {
  expectSemaError(R"(
MODULE M;
PROCEDURE P(); BEGIN END P;
VAR x: INTEGER;
BEGIN x := P() END M.)",
                  "used in an expression");
}

TEST(Sema, NewRequiresRefTypeName) {
  expectSemaError(R"(
MODULE M;
TYPE T = RECORD x: INTEGER END;
VAR r: REF T;
BEGIN r := NEW(T) END M.)",
                  "REF type name");
}

TEST(Sema, NewOpenArrayNeedsLength) {
  expectSemaError(R"(
MODULE M;
TYPE A = REF ARRAY OF INTEGER;
VAR a: A;
BEGIN a := NEW(A) END M.)",
                  "length");
}

TEST(Sema, ForIndexImplicitlyDeclared) {
  checkOk(R"(
MODULE M;
VAR s: INTEGER;
BEGIN FOR i := 1 TO 10 DO s := s + i END END M.)");
}

TEST(Sema, ExitOutsideLoopRejected) {
  expectSemaError("MODULE M; BEGIN EXIT END M.", "EXIT outside");
}

TEST(Sema, WithBindsAlias) {
  checkOk(R"(
MODULE M;
TYPE R = REF RECORD x: INTEGER END;
VAR r: R;
BEGIN
  r := NEW(R);
  WITH f = r^.x DO f := 3 END
END M.)");
}

TEST(Sema, StructuralEquivalenceAcrossNames) {
  // Two distinct names for structurally identical types are assignable.
  checkOk(R"(
MODULE M;
TYPE P1 = REF RECORD x: INTEGER END;
     P2 = REF RECORD x: INTEGER END;
VAR a: P1; b: P2;
BEGIN a := NEW(P1); b := a END M.)");
}

TEST(Sema, AggregateAssignmentRejected) {
  expectSemaError(R"(
MODULE M;
VAR a, b: ARRAY [0..3] OF INTEGER;
BEGIN a := b END M.)",
                  "scalar");
}

// A constant subscript is folded into the displacement, so one outside a
// fixed array's bounds would write the neighbouring word: b, or the
// object header the collector reads as a forwarding pointer.
TEST(Sema, ConstantSubscriptPastFixedArrayEndRejected) {
  expectSemaError(R"(
MODULE M;
VAR a: ARRAY [0..2] OF INTEGER; b: INTEGER;
BEGIN a[3] := 42; PutInt(b) END M.)",
                  "4:9: error: array index 3 is outside the bounds [0..2]");
}

TEST(Sema, NegatedConstantSubscriptRejected) {
  expectSemaError(R"(
MODULE M;
CONST One = 1;
VAR b: INTEGER; a: ARRAY [0..2] OF INTEGER;
BEGIN a[-1] := 41; a[-One] := 41; PutInt(b) END M.)",
                  "5:9: error: array index -1 is outside the bounds [0..2]\n"
                  "5:22: error: array index -1 is outside the bounds [0..2]");
}

TEST(Sema, ConstantSubscriptOfRefArrayRejected) {
  expectSemaError(R"(
MODULE M;
CONST Four = 4;
TYPE F = REF ARRAY [1..3] OF INTEGER;
VAR f: F;
BEGIN f := NEW(F); f[0] := 7; f[Four] := 8; GcCollect(); PutInt(f[1])
END M.)",
                  "6:22: error: array index 0 is outside the bounds [1..3]\n"
                  "6:33: error: array index 4 is outside the bounds [1..3]");
}

TEST(Sema, LargestIntegerSubscriptRejected) {
  expectSemaError(R"(
MODULE M;
VAR a: ARRAY [0..2] OF INTEGER; b: INTEGER;
BEGIN a[9223372036854775807] := 42; PutInt(b) END M.)",
                  "error: array index 9223372036854775807 is outside the "
                  "bounds [0..2]");
}

TEST(Sema, ConstantSubscriptsWithinBoundsAccepted) {
  // The bounds themselves, a CONST, and an open array, whose length is
  // not known until run time.
  checkOk(R"(
MODULE M;
CONST Lo = -2; Hi = 2;
TYPE O = REF ARRAY OF INTEGER;
VAR a: ARRAY [-2..2] OF INTEGER; o: O;
BEGIN
  a[-2] := 1; a[2] := 2; a[Lo] := 3; a[-Lo] := 4; a[Hi] := 5;
  o := NEW(O, 4); o[9223372036854775807] := 6; o[-3] := 7
END M.)");
}

//===----------------------------------------------------------------------===//
// Types
//===----------------------------------------------------------------------===//

TEST(Types, SizesAndPointerOffsets) {
  TypeContext Ctx;
  const Type *IntTy = Ctx.integerType();
  const Type *RefTy = Ctx.getRef(IntTy);
  const Type *Rec = Ctx.getRecord({{"a", IntTy, 0},
                                   {"r", RefTy, 0},
                                   {"b", IntTy, 0},
                                   {"s", RefTy, 0}});
  EXPECT_EQ(Rec->sizeInWords(), 4u);
  std::vector<unsigned> Offs;
  Rec->collectPointerOffsets(0, Offs);
  EXPECT_EQ(Offs, (std::vector<unsigned>{1, 3}));

  const Type *Arr = Ctx.getArray(1, 3, Rec);
  EXPECT_EQ(Arr->sizeInWords(), 12u);
  Offs.clear();
  Arr->collectPointerOffsets(0, Offs);
  // Each contained pointer is a separate offset (the paper's per-element
  // treatment).
  EXPECT_EQ(Offs, (std::vector<unsigned>{1, 3, 5, 7, 9, 11}));
}

TEST(Types, StructuralEqualityWithCycles) {
  TypeContext Ctx;
  // Two independently built recursive list types.
  Type *RecA = Ctx.beginRecord();
  const Type *RefA = Ctx.getRef(RecA);
  Ctx.completeRecord(RecA, {{"head", Ctx.integerType(), 0},
                            {"tail", RefA, 0}});
  Type *RecB = Ctx.beginRecord();
  const Type *RefB = Ctx.getRef(RecB);
  Ctx.completeRecord(RecB, {{"head", Ctx.integerType(), 0},
                            {"tail", RefB, 0}});
  EXPECT_TRUE(Type::structurallyEqual(RecA, RecB));
  EXPECT_TRUE(Type::structurallyEqual(RefA, RefB));

  // A list of BOOLEAN differs.
  Type *RecC = Ctx.beginRecord();
  const Type *RefC = Ctx.getRef(RecC);
  Ctx.completeRecord(RecC, {{"head", Ctx.booleanType(), 0},
                            {"tail", RefC, 0}});
  EXPECT_FALSE(Type::structurallyEqual(RecA, RecC));
}

TEST(Types, FieldNamesMatterStructurally) {
  TypeContext Ctx;
  const Type *A = Ctx.getRecord({{"x", Ctx.integerType(), 0}});
  const Type *B = Ctx.getRecord({{"y", Ctx.integerType(), 0}});
  EXPECT_FALSE(Type::structurallyEqual(A, B));
}

TEST(Types, ArrayBoundsMatter) {
  TypeContext Ctx;
  const Type *A = Ctx.getArray(0, 9, Ctx.integerType());
  const Type *B = Ctx.getArray(1, 10, Ctx.integerType());
  EXPECT_FALSE(Type::structurallyEqual(A, B));
  EXPECT_EQ(A->length(), B->length());
}

} // namespace
