//===- frontend/Lexer.cpp -------------------------------------------------===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//

#include "frontend/Lexer.h"

#include "support/IntOps.h"

#include <algorithm>
#include <string_view>

using namespace mgc;

const char *mgc::tokKindName(TokKind K) {
  switch (K) {
  case TokKind::Eof: return "end of input";
  case TokKind::Ident: return "identifier";
  case TokKind::IntLit: return "integer literal";
  case TokKind::StrLit: return "string literal";
  case TokKind::KwModule: return "'MODULE'";
  case TokKind::KwBegin: return "'BEGIN'";
  case TokKind::KwEnd: return "'END'";
  case TokKind::KwVar: return "'VAR'";
  case TokKind::KwType: return "'TYPE'";
  case TokKind::KwConst: return "'CONST'";
  case TokKind::KwProcedure: return "'PROCEDURE'";
  case TokKind::KwIf: return "'IF'";
  case TokKind::KwThen: return "'THEN'";
  case TokKind::KwElsif: return "'ELSIF'";
  case TokKind::KwElse: return "'ELSE'";
  case TokKind::KwWhile: return "'WHILE'";
  case TokKind::KwDo: return "'DO'";
  case TokKind::KwRepeat: return "'REPEAT'";
  case TokKind::KwUntil: return "'UNTIL'";
  case TokKind::KwFor: return "'FOR'";
  case TokKind::KwTo: return "'TO'";
  case TokKind::KwBy: return "'BY'";
  case TokKind::KwReturn: return "'RETURN'";
  case TokKind::KwWith: return "'WITH'";
  case TokKind::KwNil: return "'NIL'";
  case TokKind::KwTrue: return "'TRUE'";
  case TokKind::KwFalse: return "'FALSE'";
  case TokKind::KwDiv: return "'DIV'";
  case TokKind::KwMod: return "'MOD'";
  case TokKind::KwAnd: return "'AND'";
  case TokKind::KwOr: return "'OR'";
  case TokKind::KwNot: return "'NOT'";
  case TokKind::KwArray: return "'ARRAY'";
  case TokKind::KwOf: return "'OF'";
  case TokKind::KwRecord: return "'RECORD'";
  case TokKind::KwRef: return "'REF'";
  case TokKind::KwInteger: return "'INTEGER'";
  case TokKind::KwBoolean: return "'BOOLEAN'";
  case TokKind::KwExit: return "'EXIT'";
  case TokKind::KwLoop: return "'LOOP'";
  case TokKind::Assign: return "':='";
  case TokKind::Equal: return "'='";
  case TokKind::NotEqual: return "'#'";
  case TokKind::Less: return "'<'";
  case TokKind::LessEq: return "'<='";
  case TokKind::Greater: return "'>'";
  case TokKind::GreaterEq: return "'>='";
  case TokKind::Plus: return "'+'";
  case TokKind::Minus: return "'-'";
  case TokKind::Star: return "'*'";
  case TokKind::LParen: return "'('";
  case TokKind::RParen: return "')'";
  case TokKind::LBracket: return "'['";
  case TokKind::RBracket: return "']'";
  case TokKind::Semi: return "';'";
  case TokKind::Colon: return "':'";
  case TokKind::Comma: return "','";
  case TokKind::Dot: return "'.'";
  case TokKind::DotDot: return "'..'";
  case TokKind::Caret: return "'^'";
  }
  return "?";
}

namespace {
// The ASCII classes of the "C" locale's isupper, isalpha and isdigit.
bool isUpper(char C) { return C >= 'A' && C <= 'Z'; }
bool isLetter(char C) { return isUpper(C) || (C >= 'a' && C <= 'z'); }
bool isDigit(char C) { return C >= '0' && C <= '9'; }
bool isWordChar(char C) { return isLetter(C) || isDigit(C) || C == '_'; }

struct Keyword {
  std::string_view Spelling;
  TokKind Kind;
};

constexpr Keyword Keywords[] = {
    {"MODULE", TokKind::KwModule},   {"BEGIN", TokKind::KwBegin},
    {"END", TokKind::KwEnd},         {"VAR", TokKind::KwVar},
    {"TYPE", TokKind::KwType},       {"CONST", TokKind::KwConst},
    {"PROCEDURE", TokKind::KwProcedure},
    {"IF", TokKind::KwIf},           {"THEN", TokKind::KwThen},
    {"ELSIF", TokKind::KwElsif},     {"ELSE", TokKind::KwElse},
    {"WHILE", TokKind::KwWhile},     {"DO", TokKind::KwDo},
    {"REPEAT", TokKind::KwRepeat},   {"UNTIL", TokKind::KwUntil},
    {"FOR", TokKind::KwFor},         {"TO", TokKind::KwTo},
    {"BY", TokKind::KwBy},           {"RETURN", TokKind::KwReturn},
    {"WITH", TokKind::KwWith},       {"NIL", TokKind::KwNil},
    {"TRUE", TokKind::KwTrue},       {"FALSE", TokKind::KwFalse},
    {"DIV", TokKind::KwDiv},         {"MOD", TokKind::KwMod},
    {"AND", TokKind::KwAnd},         {"OR", TokKind::KwOr},
    {"NOT", TokKind::KwNot},         {"ARRAY", TokKind::KwArray},
    {"OF", TokKind::KwOf},           {"RECORD", TokKind::KwRecord},
    {"REF", TokKind::KwRef},         {"INTEGER", TokKind::KwInteger},
    {"BOOLEAN", TokKind::KwBoolean}, {"EXIT", TokKind::KwExit},
    {"LOOP", TokKind::KwLoop},
};

/// The keyword spelled \p Word, or Ident.  Keywords are case sensitive and
/// all uppercase, so a word with any other character is an identifier.
TokKind classifyWord(std::string_view Word) {
  if (!std::all_of(Word.begin(), Word.end(), isUpper))
    return TokKind::Ident;
  for (const Keyword &K : Keywords)
    if (K.Spelling.size() == Word.size() && K.Spelling[0] == Word[0] &&
        std::equal(Word.begin(), Word.end(), K.Spelling.begin()))
      return K.Kind;
  return TokKind::Ident;
}
} // namespace

Lexer::Lexer(const std::string &Source, Diagnostics &Diags)
    : Src(Source), Diags(Diags) {}

void Lexer::advance() {
  if (Pos >= Src.size())
    return;
  if (Src[Pos] == '\n') {
    ++Line;
    Col = 1;
  } else {
    ++Col;
  }
  ++Pos;
}

void Lexer::skipTrivia() {
  while (true) {
    // A run of whitespace in one loop; only a line feed is not one column.
    for (; Pos < Src.size(); ++Pos) {
      char C = Src[Pos];
      if (C == '\n') {
        ++Line;
        Col = 1;
      } else if (C == ' ' || C == '\t' || C == '\r') {
        ++Col;
      } else {
        break;
      }
    }
    char C = peek();
    if (C == '(' && peekAt(1) == '*') {
      SourceLoc Start = here();
      advance();
      advance();
      unsigned Depth = 1;
      while (Depth != 0) {
        if (Pos >= Src.size()) {
          Diags.error(Start, "unterminated comment");
          return;
        }
        if (peek() == '(' && peekAt(1) == '*') {
          advance();
          advance();
          ++Depth;
        } else if (peek() == '*' && peekAt(1) == ')') {
          advance();
          advance();
          --Depth;
        } else {
          advance();
        }
      }
      continue;
    }
    return;
  }
}

Token Lexer::next() {
  skipTrivia();
  Token T;
  T.Loc = here();
  char C = peek();
  if (C == '\0') {
    T.Kind = TokKind::Eof;
    return T;
  }

  if (isLetter(C)) {
    // A word is one source range: no character of it is a line feed.
    size_t Start = Pos;
    while (Pos < Src.size() && isWordChar(Src[Pos]))
      ++Pos;
    Col += static_cast<unsigned>(Pos - Start);
    std::string_view Word(Src.data() + Start, Pos - Start);
    T.Kind = classifyWord(Word);
    if (T.Kind == TokKind::Ident)
      T.Text.assign(Word);
    return T;
  }

  if (isDigit(C)) {
    int64_t Value = 0;
    bool Overflow = false;
    while (isDigit(peek())) {
      if (!Overflow && !support::appendDecimalDigit(Value, peek() - '0')) {
        Diags.error(T.Loc, "integer literal exceeds 9223372036854775807");
        Overflow = true;
      }
      advance();
    }
    T.Kind = TokKind::IntLit;
    T.IntValue = Value;
    return T;
  }

  if (C == '"') {
    advance();
    std::string Text;
    while (peek() != '"') {
      if (peek() == '\0' || peek() == '\n') {
        Diags.error(T.Loc, "unterminated string literal");
        break;
      }
      if (peek() == '\\') {
        advance();
        char E = peek();
        advance();
        switch (E) {
        case 'n': Text.push_back('\n'); break;
        case 't': Text.push_back('\t'); break;
        default: Text.push_back(E); break;
        }
        continue;
      }
      Text.push_back(peek());
      advance();
    }
    if (peek() == '"')
      advance();
    T.Kind = TokKind::StrLit;
    T.Text = std::move(Text);
    return T;
  }

  advance();
  switch (C) {
  case ':':
    if (peek() == '=') {
      advance();
      T.Kind = TokKind::Assign;
    } else {
      T.Kind = TokKind::Colon;
    }
    return T;
  case '=': T.Kind = TokKind::Equal; return T;
  case '#': T.Kind = TokKind::NotEqual; return T;
  case '<':
    if (peek() == '=') {
      advance();
      T.Kind = TokKind::LessEq;
    } else {
      T.Kind = TokKind::Less;
    }
    return T;
  case '>':
    if (peek() == '=') {
      advance();
      T.Kind = TokKind::GreaterEq;
    } else {
      T.Kind = TokKind::Greater;
    }
    return T;
  case '+': T.Kind = TokKind::Plus; return T;
  case '-': T.Kind = TokKind::Minus; return T;
  case '*': T.Kind = TokKind::Star; return T;
  case '(': T.Kind = TokKind::LParen; return T;
  case ')': T.Kind = TokKind::RParen; return T;
  case '[': T.Kind = TokKind::LBracket; return T;
  case ']': T.Kind = TokKind::RBracket; return T;
  case ';': T.Kind = TokKind::Semi; return T;
  case ',': T.Kind = TokKind::Comma; return T;
  case '^': T.Kind = TokKind::Caret; return T;
  case '.':
    if (peek() == '.') {
      advance();
      T.Kind = TokKind::DotDot;
    } else {
      T.Kind = TokKind::Dot;
    }
    return T;
  default:
    Diags.error(T.Loc, std::string("unexpected character '") + C + "'");
    return next();
  }
}
