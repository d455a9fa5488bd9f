//===- frontend/Lexer.cpp -------------------------------------------------===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//

#include "frontend/Lexer.h"

#include "support/IntOps.h"

#include <cctype>
#include <unordered_map>

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
const std::unordered_map<std::string, TokKind> &keywordTable() {
  static const std::unordered_map<std::string, TokKind> Table = {
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
  return Table;
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
    char C = peek();
    if (C == ' ' || C == '\t' || C == '\r' || C == '\n') {
      advance();
      continue;
    }
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

  if (std::isalpha(static_cast<unsigned char>(C))) {
    std::string Word;
    while (std::isalnum(static_cast<unsigned char>(peek())) || peek() == '_') {
      Word.push_back(peek());
      advance();
    }
    auto It = keywordTable().find(Word);
    if (It != keywordTable().end()) {
      T.Kind = It->second;
    } else {
      T.Kind = TokKind::Ident;
      T.Text = std::move(Word);
    }
    return T;
  }

  if (std::isdigit(static_cast<unsigned char>(C))) {
    int64_t Value = 0;
    bool Overflow = false;
    while (std::isdigit(static_cast<unsigned char>(peek()))) {
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
