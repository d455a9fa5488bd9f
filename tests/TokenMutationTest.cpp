//===- tests/TokenMutationTest.cpp - Mutated programs get diagnostics -----===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// No program text, however wrong, may crash the compiler or trip one of
/// its internal checks.  Each checked-in program is mutated one token at a
/// time: a token is deleted or duplicated, and an integer literal is
/// replaced by 0, -1, the largest INTEGER and one past it.  A fixed,
/// evenly spread subset of those mutants is compiled at -O0 and -O2, and
/// each must either compile or get at least one error diagnostic, none of
/// them an "internal:" one.  The mutants are compiled, never run.
///
//===----------------------------------------------------------------------===//

#include "CheckedInPrograms.h"
#include "driver/Compiler.h"
#include "frontend/Lexer.h"

#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <vector>

using namespace mgc;

namespace {

/// Per program, this many evenly spaced tokens are each deleted and
/// duplicated, and this many evenly spaced integer literals each replaced
/// four ways; the spacing starts at an offset that moves with the program.
constexpr size_t TokenEdits = 60;
constexpr size_t LiteralEdits = 25;

/// The \p K of \p N positions this program mutates.
std::vector<size_t> spread(size_t N, size_t K, size_t Program) {
  std::vector<size_t> At;
  for (size_t J = 0; J != K && J != N; ++J)
    At.push_back((J * N / K + Program) % N);
  return At;
}

struct Span {
  TokKind Kind;
  size_t Begin, End;
};

/// The tokens of \p Src with their byte ranges.
std::vector<Span> tokenSpans(const std::string &Src) {
  std::vector<size_t> LineStart = {0};
  for (size_t I = 0; I != Src.size(); ++I)
    if (Src[I] == '\n')
      LineStart.push_back(I + 1);
  Diagnostics Diags;
  Lexer L(Src, Diags);
  std::vector<Span> Spans;
  for (Token T = L.next(); !T.is(TokKind::Eof); T = L.next())
    Spans.push_back({T.Kind, LineStart[T.Loc.Line - 1] + T.Loc.Col - 1, 0});
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  // A token runs to the next one, less the whitespace and comments between;
  // only a string literal holds either.
  for (size_t I = 0; I != Spans.size(); ++I) {
    Span &S = Spans[I];
    size_t Next = I + 1 != Spans.size() ? Spans[I + 1].Begin : Src.size();
    S.End = S.Begin + 1;
    if (S.Kind == TokKind::StrLit) {
      while (Src[S.End] != '"')
        S.End += Src[S.End] == '\\' ? 2 : 1;
      ++S.End;
      continue;
    }
    while (S.End != Next &&
           !std::isspace(static_cast<unsigned char>(Src[S.End])) &&
           Src.compare(S.End, 2, "(*") != 0)
      ++S.End;
  }
  return Spans;
}

std::string replaced(const std::string &Src, const Span &S,
                     const std::string &With) {
  return Src.substr(0, S.Begin) + With + Src.substr(S.End);
}

TEST(TokenMutation, EveryMutantCompilesOrGetsADiagnostic) {
  std::vector<test::NamedSource> Sources = test::checkedInPrograms();
  ASSERT_EQ(Sources.size(), 19u);
  size_t Mutants = 0, Rejected = 0;
  for (size_t P = 0; P != Sources.size(); ++P) {
    const std::string &Src = Sources[P].Source;
    std::vector<Span> Spans = tokenSpans(Src);
    ASSERT_FALSE(Spans.empty()) << Sources[P].Name;
    std::vector<std::pair<std::string, std::string>> Edits;
    for (size_t I : spread(Spans.size(), TokenEdits, P)) {
      const Span &S = Spans[I];
      std::string Text = Src.substr(S.Begin, S.End - S.Begin);
      Edits.push_back({"delete token " + std::to_string(I),
                       replaced(Src, S, " ")});
      Edits.push_back({"duplicate token " + std::to_string(I),
                       replaced(Src, S, Text + " " + Text)});
    }
    std::vector<size_t> Literals;
    for (size_t I = 0; I != Spans.size(); ++I)
      if (Spans[I].Kind == TokKind::IntLit)
        Literals.push_back(I);
    for (size_t L : spread(Literals.size(), LiteralEdits, P))
      for (const char *With :
           {"0", "-1", "9223372036854775807", "9223372036854775808"})
        Edits.push_back({"literal " + std::to_string(Literals[L]) + " := " +
                             With,
                         replaced(Src, Spans[Literals[L]], With)});
    for (const auto &[What, Mutant] : Edits)
      for (int Opt : {0, 2}) {
        driver::CompilerOptions CO;
        CO.OptLevel = Opt;
        driver::CompileResult R = driver::compile(Mutant, CO);
        ++Mutants;
        Rejected += R.Prog == nullptr;
        std::string Where = Sources[P].Name + ", " + What + ", -O" +
                            std::to_string(Opt);
        EXPECT_TRUE(R.Prog || R.Diags.hasErrors()) << Where;
        for (const Diagnostics::Entry &E : R.Diags.errors())
          EXPECT_NE(E.Message.rfind("internal:", 0), 0u)
              << Where << ": " << E.Message;
      }
  }
  std::printf("token mutation: %zu mutant compilations, %zu rejected\n",
              Mutants, Rejected);
}

} // namespace
