//===- fuzz/Reducer.cpp - Greedy test-case reducer ------------------------===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//

#include "fuzz/Reducer.h"

#include <algorithm>
#include <cctype>

using namespace mgc;
using namespace mgc::fuzz;

namespace {

/// All statement blocks of \p P in deterministic BFS order (outermost
/// first): Main, each procedure body, then nested bodies.
std::vector<std::vector<GStmt> *> collectBlocks(GProgram &P) {
  std::vector<std::vector<GStmt> *> Out;
  Out.push_back(&P.Main);
  for (GProc &Pr : P.Procs)
    Out.push_back(&Pr.Body);
  for (size_t I = 0; I != Out.size(); ++I)
    for (GStmt &S : *Out[I]) {
      if (!S.Body.empty())
        Out.push_back(&S.Body);
      if (!S.Else.empty())
        Out.push_back(&S.Else);
    }
  return Out;
}

struct Cand {
  enum Kind {
    DropStmt,
    ShrinkFor1,
    ShrinkForLast,
    ShrinkForHalf,
    IfThen,
    IfElse,
    WhileOnce,
    InlineWith,
    ForOnce,
    DropProc,
    DropVar,
    DropType,
    DropComment,
    CompactLayout,
  } K;
  size_t A = 0; ///< Block ordinal / proc index / var index.
  size_t B = 0; ///< Statement index within block.
};

/// True if \p Word occurs in \p Text as a whole identifier.
bool usesWord(const std::string &Text, const std::string &Word) {
  size_t Pos = 0;
  auto IsIdent = [](char C) {
    return std::isalnum(static_cast<unsigned char>(C)) || C == '_';
  };
  while ((Pos = Text.find(Word, Pos)) != std::string::npos) {
    bool L = Pos > 0 && IsIdent(Text[Pos - 1]);
    bool R = Pos + Word.size() < Text.size() && IsIdent(Text[Pos + Word.size()]);
    if (!L && !R)
      return true;
    Pos += Word.size();
  }
  return false;
}

/// Replaces whole-identifier occurrences of \p From with \p To.
std::string substWord(const std::string &Text, const std::string &From,
                      const std::string &To) {
  std::string Out;
  size_t Pos = 0, Prev = 0;
  auto IsIdent = [](char C) {
    return std::isalnum(static_cast<unsigned char>(C)) || C == '_';
  };
  while ((Pos = Text.find(From, Prev)) != std::string::npos) {
    bool L = Pos > 0 && IsIdent(Text[Pos - 1]);
    bool R = Pos + From.size() < Text.size() && IsIdent(Text[Pos + From.size()]);
    Out += Text.substr(Prev, Pos - Prev);
    if (!L && !R) {
      Out += To;
    } else {
      Out += From;
    }
    Prev = Pos + From.size();
  }
  Out += Text.substr(Prev);
  return Out;
}

void substStmt(GStmt &S, const std::string &From, const std::string &To) {
  S.Line = substWord(S.Line, From, To);
  S.Cond = substWord(S.Cond, From, To);
  S.Target = substWord(S.Target, From, To);
  S.BoundExpr = substWord(S.BoundExpr, From, To);
  for (GStmt &C : S.Body)
    substStmt(C, From, To);
  for (GStmt &C : S.Else)
    substStmt(C, From, To);
}

/// The deterministic candidate list for the current program shape,
/// fastest-shrinking transformations first.
std::vector<Cand> enumerate(GProgram &P) {
  std::vector<Cand> C;
  std::vector<std::vector<GStmt> *> Blocks = collectBlocks(P);
  for (size_t B = 0; B != Blocks.size(); ++B)
    for (size_t I = 0; I != Blocks[B]->size(); ++I)
      C.push_back({Cand::DropStmt, B, I});
  for (size_t I = 0; I != P.Procs.size(); ++I)
    C.push_back({Cand::DropProc, I, 0});
  for (size_t B = 0; B != Blocks.size(); ++B)
    for (size_t I = 0; I != Blocks[B]->size(); ++I) {
      const GStmt &S = (*Blocks[B])[I];
      switch (S.K) {
      case GStmt::For:
        if (S.BoundExpr.empty() && S.Bound > S.From) {
          C.push_back({Cand::ShrinkFor1, B, I});
          C.push_back({Cand::ShrinkForLast, B, I});
          if (S.Bound - S.From >= 2)
            C.push_back({Cand::ShrinkForHalf, B, I});
        }
        if (S.BoundExpr.empty() && S.Bound == S.From)
          C.push_back({Cand::ForOnce, B, I});
        break;
      case GStmt::If:
        C.push_back({Cand::IfThen, B, I});
        if (!S.Else.empty())
          C.push_back({Cand::IfElse, B, I});
        break;
      case GStmt::While:
        C.push_back({Cand::WhileOnce, B, I});
        break;
      case GStmt::With:
        C.push_back({Cand::InlineWith, B, I});
        break;
      case GStmt::Text:
        break;
      }
    }
  for (size_t I = 0; I != P.VarLines.size(); ++I)
    C.push_back({Cand::DropVar, I, 0});
  for (size_t I = 0; I != P.TypeLines.size(); ++I)
    C.push_back({Cand::DropType, I, 0});
  if (P.Comment)
    C.push_back({Cand::DropComment, 0, 0});
  if (!P.Compact)
    C.push_back({Cand::CompactLayout, 0, 0});
  return C;
}

/// Applies \p C to a copy of \p P.  Returns false for candidates that are
/// knowably useless (e.g. dropping a procedure that is still referenced).
bool apply(const GProgram &P, const Cand &C, GProgram &Out) {
  Out = P;
  std::vector<std::vector<GStmt> *> Blocks = collectBlocks(Out);
  switch (C.K) {
  case Cand::DropStmt: {
    std::vector<GStmt> &B = *Blocks[C.A];
    B.erase(B.begin() + static_cast<long>(C.B));
    return true;
  }
  case Cand::ShrinkFor1:
    (*Blocks[C.A])[C.B].Bound = (*Blocks[C.A])[C.B].From;
    return true;
  case Cand::ShrinkForLast:
    (*Blocks[C.A])[C.B].From = (*Blocks[C.A])[C.B].Bound;
    return true;
  case Cand::ShrinkForHalf: {
    GStmt &S = (*Blocks[C.A])[C.B];
    S.Bound = S.From + (S.Bound - S.From) / 2;
    return true;
  }
  case Cand::IfThen: {
    std::vector<GStmt> &B = *Blocks[C.A];
    std::vector<GStmt> Body = B[C.B].Body;
    B.erase(B.begin() + static_cast<long>(C.B));
    B.insert(B.begin() + static_cast<long>(C.B), Body.begin(), Body.end());
    return true;
  }
  case Cand::IfElse: {
    std::vector<GStmt> &B = *Blocks[C.A];
    std::vector<GStmt> Body = B[C.B].Else;
    B.erase(B.begin() + static_cast<long>(C.B));
    B.insert(B.begin() + static_cast<long>(C.B), Body.begin(), Body.end());
    return true;
  }
  case Cand::WhileOnce: {
    std::vector<GStmt> &B = *Blocks[C.A];
    std::vector<GStmt> Body = B[C.B].Body;
    B.erase(B.begin() + static_cast<long>(C.B));
    B.insert(B.begin() + static_cast<long>(C.B), Body.begin(), Body.end());
    return true;
  }
  case Cand::ForOnce: {
    // Unroll a single-iteration FOR into its body with the index
    // replaced by its one value.
    std::vector<GStmt> &B = *Blocks[C.A];
    GStmt F = B[C.B];
    for (GStmt &S : F.Body)
      substStmt(S, F.Var, std::to_string(F.From));
    B.erase(B.begin() + static_cast<long>(C.B));
    B.insert(B.begin() + static_cast<long>(C.B), F.Body.begin(),
             F.Body.end());
    return true;
  }
  case Cand::InlineWith: {
    std::vector<GStmt> &B = *Blocks[C.A];
    GStmt W = B[C.B];
    for (GStmt &S : W.Body)
      substStmt(S, W.Var, W.Target);
    B.erase(B.begin() + static_cast<long>(C.B));
    B.insert(B.begin() + static_cast<long>(C.B), W.Body.begin(),
             W.Body.end());
    return true;
  }
  case Cand::DropProc: {
    std::string Name = Out.Procs[C.A].Name;
    Out.Procs.erase(Out.Procs.begin() + static_cast<long>(C.A));
    if (Name == "Spin")
      Out.HasSpin = false;
    // Useless if the procedure is still referenced anywhere.
    return !usesWord(Out.render(), Name);
  }
  case Cand::DropVar: {
    std::string Group = Out.VarLines[C.A];
    Out.VarLines.erase(Out.VarLines.begin() + static_cast<long>(C.A));
    // The group declares comma-separated names before the ':'.
    size_t Colon = Group.find(':');
    std::string Names = Group.substr(0, Colon);
    std::string Rendered = Out.render();
    size_t Pos = 0;
    while (Pos < Names.size()) {
      size_t End = Names.find(',', Pos);
      if (End == std::string::npos)
        End = Names.size();
      std::string N = Names.substr(Pos, End - Pos);
      while (!N.empty() && N.front() == ' ')
        N.erase(N.begin());
      while (!N.empty() && N.back() == ' ')
        N.pop_back();
      if (!N.empty() && usesWord(Rendered, N))
        return false;
      Pos = End + 1;
    }
    return true;
  }
  case Cand::DropType: {
    // Each type line declares exactly one name before " = ".  Dead type
    // declarations often reference each other (Pair = REF PairRec;
    // PairRec = RECORD ... right: Pair END), so dropping one line at a
    // time never succeeds; cascade-drop any line whose name becomes
    // unreferenced once its dependents are gone.
    std::string Line = Out.TypeLines[C.A];
    Out.TypeLines.erase(Out.TypeLines.begin() + static_cast<long>(C.A));
    std::string Name = Line.substr(0, Line.find(' '));
    bool Cascaded = true;
    while (Cascaded) {
      Cascaded = false;
      for (size_t J = 0; J != Out.TypeLines.size(); ++J) {
        GProgram Trial = Out;
        std::string L = Trial.TypeLines[J];
        Trial.TypeLines.erase(Trial.TypeLines.begin() +
                              static_cast<long>(J));
        if (!usesWord(Trial.render(), L.substr(0, L.find(' ')))) {
          Out = std::move(Trial);
          Cascaded = true;
          break;
        }
      }
    }
    return !usesWord(Out.render(), Name);
  }
  case Cand::DropComment:
    if (!Out.Comment)
      return false;
    Out.Comment = false;
    return true;
  case Cand::CompactLayout:
    // Blank separator lines carry no tokens; dropping them cannot change
    // the compiled program, but the oracle re-verifies anyway.
    if (Out.Compact)
      return false;
    Out.Compact = true;
    return true;
  }
  return false;
}

} // namespace

GProgram fuzz::reduceProgram(const GProgram &P, const FailPredicate &StillFails,
                             unsigned MaxTries, ReduceStats *Stats) {
  GProgram Current = P;
  ReduceStats Local;
  ReduceStats &S = Stats ? *Stats : Local;
  bool Progress = true;
  while (Progress && S.Tries < MaxTries) {
    Progress = false;
    std::vector<Cand> Cands = enumerate(Current);
    for (const Cand &C : Cands) {
      if (S.Tries >= MaxTries)
        break;
      GProgram Next;
      if (!apply(Current, C, Next))
        continue;
      ++S.Tries;
      if (StillFails(Next)) {
        Current = std::move(Next);
        ++S.Accepted;
        Progress = true;
        break; // restart enumeration on the smaller program
      }
    }
  }
  return Current;
}

GProgram fuzz::reduceDivergence(const GProgram &P, const OracleResult &Found,
                                unsigned MaxTries, ReduceStats *Stats) {
  const uint64_t RefBudget = 10 * std::max<uint64_t>(Found.RefInstrs, 1);
  auto StillFails = [RefBudget](const GProgram &Q) {
    OracleResult R = checkSource(Q.render(), Q.HasSpin, RefBudget);
    return R.Diverged && !R.RefFailed;
  };
  return reduceProgram(P, StillFails, MaxTries, Stats);
}
