//===- frontend/Parser.cpp ------------------------------------------------===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//

#include "frontend/Parser.h"

#include "support/IntOps.h"

#include <algorithm>
#include <cassert>

using namespace mgc;

namespace {

//===----------------------------------------------------------------------===//
// Type expressions (parser-internal)
//===----------------------------------------------------------------------===//

/// A syntactic type, resolved against the module's type environment after a
/// whole TYPE section has been read.
struct TypeExpr {
  enum class Kind { Named, Integer, Boolean, Ref, Array, OpenArray, Record };
  Kind K;
  SourceLoc Loc;
  std::string Name;                        ///< Named.
  std::unique_ptr<TypeExpr> Elem;          ///< Ref/Array/OpenArray.
  int64_t Lo = 0, Hi = -1;                 ///< Array bounds.
  std::vector<std::pair<std::vector<std::string>, std::unique_ptr<TypeExpr>>>
      Fields;                              ///< Record.
};

class Parser {
public:
  Parser(const std::string &Source, Diagnostics &Diags)
      : Lex(Source, Diags), Diags(Diags) {
    Tok = Lex.next();
  }

  std::unique_ptr<ModuleAST> parse();

private:
  //===--------------------------------------------------------------------===
  // Token plumbing
  //===--------------------------------------------------------------------===

  void consume() { Tok = Lex.next(); }

  bool at(TokKind K) const { return Tok.Kind == K; }

  bool accept(TokKind K) {
    if (!at(K))
      return false;
    consume();
    return true;
  }

  bool expect(TokKind K) {
    if (accept(K))
      return true;
    error(std::string("expected ") + tokKindName(K) + ", found " +
          tokKindName(Tok.Kind));
    return false;
  }

  std::string expectIdent() {
    if (at(TokKind::Ident)) {
      std::string Name = std::move(Tok.Text);
      consume();
      return Name;
    }
    error(std::string("expected identifier, found ") + tokKindName(Tok.Kind));
    return "";
  }

  void error(const std::string &Msg) {
    // Avoid diagnostic floods after the first syntax error.
    if (!Failed)
      Diags.error(Tok.Loc, Msg);
    Failed = true;
  }

  //===--------------------------------------------------------------------===
  // Declarations
  //===--------------------------------------------------------------------===

  void parseDeclSeq(ProcDecl *Proc);
  void parseConstSection();
  void parseTypeSection();
  void parseVarSection(ProcDecl *Proc);
  void parseProcDecl();

  //===--------------------------------------------------------------------===
  // Types
  //===--------------------------------------------------------------------===

  std::unique_ptr<TypeExpr> parseTypeExpr();
  const Type *resolveTypeExpr(const TypeExpr &TE, bool UnderRef);
  /// Resolves record \p TE's fields into \p Fields; false, diagnosed,
  /// on an error or when the fields take more than MaxTypeWords.
  bool resolveFields(const TypeExpr &TE, std::vector<RecordField> &Fields);
  const Type *resolveNamed(const std::string &Name, SourceLoc Loc,
                           bool UnderRef);
  /// Parses a type and resolves it immediately (contexts outside a TYPE
  /// section, where forward references are not allowed).
  const Type *parseAndResolveType();

  //===--------------------------------------------------------------------===
  // Constant expressions
  //===--------------------------------------------------------------------===

  int64_t parseConstExpr();
  int64_t parseConstTerm();
  int64_t parseConstFactor();

  //===--------------------------------------------------------------------===
  // Statements and expressions
  //===--------------------------------------------------------------------===

  StmtList parseStmtSeq();
  StmtPtr parseStmt();
  ExprPtr parseExpr();
  ExprPtr parseSimpleExpr();
  ExprPtr parseTerm();
  ExprPtr parseFactor();
  ExprPtr parseDesignatorOrCall();
  ExprPtr parseDesignatorSuffixes(ExprPtr Base);

  //===--------------------------------------------------------------------===
  // State
  //===--------------------------------------------------------------------===

  Lexer Lex;
  Diagnostics &Diags;
  Token Tok;
  bool Failed = false;

  std::unique_ptr<ModuleAST> Module;
  /// Module-level type environment.  Shell entries are created for the
  /// current TYPE section before resolution so cycles through REF work.
  std::map<std::string, const Type *> TypeEnv;
  /// Types whose definition is not yet complete (record/ref shells of the
  /// TYPE section currently being resolved).
  std::map<std::string, Type *> IncompleteTypes;
  std::map<std::string, int64_t> ConstEnv;
};

//===----------------------------------------------------------------------===//
// Module structure
//===----------------------------------------------------------------------===//

std::unique_ptr<ModuleAST> Parser::parse() {
  Module = std::make_unique<ModuleAST>();
  expect(TokKind::KwModule);
  Module->Name = expectIdent();
  expect(TokKind::Semi);

  parseDeclSeq(/*Proc=*/nullptr);

  expect(TokKind::KwBegin);
  Module->MainBody = parseStmtSeq();
  expect(TokKind::KwEnd);
  std::string Trailer = expectIdent();
  if (!Failed && Trailer != Module->Name)
    error("module trailer '" + Trailer + "' does not match module name '" +
          Module->Name + "'");
  expect(TokKind::Dot);

  if (Failed || Diags.hasErrors())
    return nullptr;
  return std::move(Module);
}

void Parser::parseDeclSeq(ProcDecl *Proc) {
  while (!Failed) {
    if (at(TokKind::KwConst)) {
      parseConstSection();
    } else if (at(TokKind::KwType)) {
      if (Proc) {
        error("TYPE sections are only permitted at module level");
        return;
      }
      parseTypeSection();
    } else if (at(TokKind::KwVar)) {
      parseVarSection(Proc);
    } else if (at(TokKind::KwProcedure)) {
      if (Proc) {
        error("nested procedures are not supported");
        return;
      }
      parseProcDecl();
    } else {
      return;
    }
  }
}

void Parser::parseConstSection() {
  expect(TokKind::KwConst);
  while (at(TokKind::Ident)) {
    std::string Name = expectIdent();
    expect(TokKind::Equal);
    int64_t Value = parseConstExpr();
    expect(TokKind::Semi);
    ConstEnv[Name] = Value;
    auto Sym = std::make_unique<Symbol>(Symbol::Kind::Constant, Name);
    Sym->Ty = Module->Types.integerType();
    Sym->ConstValue = Value;
    Module->OtherSymbols.push_back(std::move(Sym));
  }
}

void Parser::parseTypeSection() {
  expect(TokKind::KwType);
  std::vector<std::pair<std::string, std::unique_ptr<TypeExpr>>> Decls;
  while (at(TokKind::Ident)) {
    std::string Name = expectIdent();
    expect(TokKind::Equal);
    auto TE = parseTypeExpr();
    expect(TokKind::Semi);
    if (!TE)
      return;
    Decls.emplace_back(std::move(Name), std::move(TE));
  }

  // Pass 1: register shells for REF and RECORD declarations so later (and
  // mutually recursive) declarations in this section can name them.
  for (auto &[Name, TE] : Decls) {
    if (TypeEnv.count(Name)) {
      error("duplicate type name '" + Name + "'");
      return;
    }
    if (TE->K == TypeExpr::Kind::Record) {
      Type *Shell = Module->Types.beginRecord();
      TypeEnv[Name] = Shell;
      IncompleteTypes[Name] = Shell;
    } else if (TE->K == TypeExpr::Kind::Ref) {
      Type *Shell = Module->Types.beginRef();
      TypeEnv[Name] = Shell;
      IncompleteTypes[Name] = Shell;
    }
  }

  // Pass 2: complete each declaration in order.
  for (auto &[Name, TE] : Decls) {
    if (Failed)
      return;
    if (TE->K == TypeExpr::Kind::Record) {
      Type *Shell = IncompleteTypes[Name];
      std::vector<RecordField> Fields;
      if (!resolveFields(*TE, Fields))
        return;
      Module->Types.completeRecord(Shell, std::move(Fields));
      IncompleteTypes.erase(Name);
    } else if (TE->K == TypeExpr::Kind::Ref) {
      Type *Shell = IncompleteTypes[Name];
      const Type *Elem = resolveTypeExpr(*TE->Elem, /*UnderRef=*/true);
      if (!Elem)
        return;
      Module->Types.completeRef(Shell, Elem);
      IncompleteTypes.erase(Name);
    } else {
      const Type *T = resolveTypeExpr(*TE, /*UnderRef=*/false);
      if (!T)
        return;
      TypeEnv[Name] = T;
    }
    // Expose the name to Sema (NEW's argument is a type name).
    auto Sym = std::make_unique<Symbol>(Symbol::Kind::TypeName, Name);
    Sym->Ty = TypeEnv[Name];
    Module->OtherSymbols.push_back(std::move(Sym));
  }
}

void Parser::parseVarSection(ProcDecl *Proc) {
  expect(TokKind::KwVar);
  while (at(TokKind::Ident)) {
    std::vector<std::string> Names;
    Names.push_back(expectIdent());
    while (accept(TokKind::Comma))
      Names.push_back(expectIdent());
    expect(TokKind::Colon);
    const Type *Ty = parseAndResolveType();
    expect(TokKind::Semi);
    if (!Ty)
      return;
    for (const std::string &Name : Names) {
      auto Sym = std::make_unique<Symbol>(
          Proc ? Symbol::Kind::LocalVar : Symbol::Kind::GlobalVar, Name);
      Sym->Ty = Ty;
      if (Proc)
        Proc->Locals.push_back(std::move(Sym));
      else
        Module->Globals.push_back(std::move(Sym));
    }
  }
}

void Parser::parseProcDecl() {
  expect(TokKind::KwProcedure);
  auto Proc = std::make_unique<ProcDecl>();
  Proc->Loc = Tok.Loc;
  Proc->Name = expectIdent();
  expect(TokKind::LParen);
  unsigned ParamIndex = 0;
  if (!at(TokKind::RParen)) {
    do {
      bool IsVar = accept(TokKind::KwVar);
      std::vector<std::string> Names;
      Names.push_back(expectIdent());
      while (accept(TokKind::Comma))
        Names.push_back(expectIdent());
      expect(TokKind::Colon);
      const Type *Ty = parseAndResolveType();
      if (!Ty)
        return;
      for (const std::string &Name : Names) {
        auto Sym = std::make_unique<Symbol>(Symbol::Kind::Param, Name);
        Sym->Ty = Ty;
        Sym->IsVarParam = IsVar;
        Sym->ParamIndex = ParamIndex++;
        Proc->Params.push_back(std::move(Sym));
      }
    } while (accept(TokKind::Semi));
  }
  expect(TokKind::RParen);
  if (accept(TokKind::Colon))
    Proc->RetTy = parseAndResolveType();
  expect(TokKind::Semi);

  parseDeclSeq(Proc.get());

  expect(TokKind::KwBegin);
  Proc->Body = parseStmtSeq();
  expect(TokKind::KwEnd);
  std::string Trailer = expectIdent();
  if (!Failed && Trailer != Proc->Name)
    error("procedure trailer '" + Trailer + "' does not match '" + Proc->Name +
          "'");
  expect(TokKind::Semi);
  Module->Procs.push_back(std::move(Proc));
}

//===----------------------------------------------------------------------===//
// Types
//===----------------------------------------------------------------------===//

std::unique_ptr<TypeExpr> Parser::parseTypeExpr() {
  auto TE = std::make_unique<TypeExpr>();
  TE->Loc = Tok.Loc;
  if (accept(TokKind::KwInteger)) {
    TE->K = TypeExpr::Kind::Integer;
    return TE;
  }
  if (accept(TokKind::KwBoolean)) {
    TE->K = TypeExpr::Kind::Boolean;
    return TE;
  }
  if (at(TokKind::Ident)) {
    TE->K = TypeExpr::Kind::Named;
    TE->Name = expectIdent();
    return TE;
  }
  if (accept(TokKind::KwRef)) {
    TE->K = TypeExpr::Kind::Ref;
    TE->Elem = parseTypeExpr();
    if (!TE->Elem)
      return nullptr;
    return TE;
  }
  if (accept(TokKind::KwArray)) {
    if (accept(TokKind::LBracket)) {
      TE->K = TypeExpr::Kind::Array;
      TE->Lo = parseConstExpr();
      expect(TokKind::DotDot);
      TE->Hi = parseConstExpr();
      expect(TokKind::RBracket);
    } else {
      TE->K = TypeExpr::Kind::OpenArray;
    }
    expect(TokKind::KwOf);
    TE->Elem = parseTypeExpr();
    if (!TE->Elem)
      return nullptr;
    return TE;
  }
  if (accept(TokKind::KwRecord)) {
    TE->K = TypeExpr::Kind::Record;
    while (at(TokKind::Ident)) {
      std::vector<std::string> Names;
      Names.push_back(expectIdent());
      while (accept(TokKind::Comma))
        Names.push_back(expectIdent());
      expect(TokKind::Colon);
      auto FieldTE = parseTypeExpr();
      if (!FieldTE)
        return nullptr;
      TE->Fields.emplace_back(std::move(Names), std::move(FieldTE));
      // The semicolon after the last field is optional (Modula-3 style).
      if (!accept(TokKind::Semi))
        break;
    }
    expect(TokKind::KwEnd);
    return TE;
  }
  error(std::string("expected a type, found ") + tokKindName(Tok.Kind));
  return nullptr;
}

const Type *Parser::resolveNamed(const std::string &Name, SourceLoc Loc,
                                 bool UnderRef) {
  auto It = TypeEnv.find(Name);
  if (It == TypeEnv.end()) {
    if (!Failed)
      Diags.error(Loc, "unknown type '" + Name + "'");
    Failed = true;
    return nullptr;
  }
  auto Incomplete = IncompleteTypes.find(Name);
  if (!UnderRef && Incomplete != IncompleteTypes.end() &&
      !Incomplete->second->isRef()) {
    // An incomplete record has unknown size; only REF may point at it.
    // Incomplete REF shells are fine anywhere: a REF is one word no
    // matter what it will eventually point to.
    if (!Failed)
      Diags.error(Loc, "type '" + Name +
                           "' is used before its definition is complete "
                           "(only REF may forward-reference)");
    Failed = true;
    return nullptr;
  }
  return It->second;
}

const Type *Parser::resolveTypeExpr(const TypeExpr &TE, bool UnderRef) {
  TypeContext &Types = Module->Types;
  switch (TE.K) {
  case TypeExpr::Kind::Integer:
    return Types.integerType();
  case TypeExpr::Kind::Boolean:
    return Types.booleanType();
  case TypeExpr::Kind::Named:
    return resolveNamed(TE.Name, TE.Loc, UnderRef);
  case TypeExpr::Kind::Ref: {
    const Type *Elem = resolveTypeExpr(*TE.Elem, /*UnderRef=*/true);
    return Elem ? Types.getRef(Elem) : nullptr;
  }
  case TypeExpr::Kind::Array: {
    if (TE.Hi < TE.Lo) {
      Diags.error(TE.Loc, "array upper bound below lower bound");
      Failed = true;
      return nullptr;
    }
    const Type *Elem = resolveTypeExpr(*TE.Elem, /*UnderRef=*/false);
    if (!Elem)
      return nullptr;
    // Hi - Lo + 1 wraps to 0 for the full INTEGER range.  An element of
    // no words counts as one, so walking the elements stays bounded too.
    uint64_t Length = static_cast<uint64_t>(TE.Hi) -
                      static_cast<uint64_t>(TE.Lo) + 1;
    if (Length == 0 ||
        Length > MaxTypeWords / std::max(Elem->sizeInWords(), 1u)) {
      Diags.error(TE.Loc, "array type [" + std::to_string(TE.Lo) + ".." +
                              std::to_string(TE.Hi) +
                              "] is too large: a type may take at most " +
                              std::to_string(MaxTypeWords) + " words");
      Failed = true;
      return nullptr;
    }
    return Types.getArray(TE.Lo, TE.Hi, Elem);
  }
  case TypeExpr::Kind::OpenArray: {
    if (!UnderRef) {
      Diags.error(TE.Loc, "open arrays are only permitted under REF");
      Failed = true;
      return nullptr;
    }
    const Type *Elem = resolveTypeExpr(*TE.Elem, /*UnderRef=*/false);
    return Elem ? Types.getOpenArray(Elem) : nullptr;
  }
  case TypeExpr::Kind::Record: {
    std::vector<RecordField> Fields;
    return resolveFields(TE, Fields) ? Types.getRecord(std::move(Fields))
                                     : nullptr;
  }
  }
  return nullptr;
}

bool Parser::resolveFields(const TypeExpr &TE,
                           std::vector<RecordField> &Fields) {
  uint64_t Words = 0;
  for (const auto &[Names, FieldTE] : TE.Fields) {
    const Type *FT = resolveTypeExpr(*FieldTE, /*UnderRef=*/false);
    if (!FT)
      return false;
    for (const std::string &FN : Names) {
      Fields.push_back({FN, FT, 0});
      Words += FT->sizeInWords();
    }
  }
  if (Words <= MaxTypeWords)
    return true;
  Diags.error(TE.Loc, "record type is too large: a type may take at most " +
                          std::to_string(MaxTypeWords) + " words");
  Failed = true;
  return false;
}

const Type *Parser::parseAndResolveType() {
  auto TE = parseTypeExpr();
  if (!TE)
    return nullptr;
  return resolveTypeExpr(*TE, /*UnderRef=*/false);
}

//===----------------------------------------------------------------------===//
// Constant expressions
//===----------------------------------------------------------------------===//

int64_t Parser::parseConstExpr() {
  int64_t V = parseConstTerm();
  while (at(TokKind::Plus) || at(TokKind::Minus)) {
    bool IsAdd = at(TokKind::Plus);
    consume();
    int64_t R = parseConstTerm();
    V = IsAdd ? support::wrapAdd(V, R) : support::wrapSub(V, R);
  }
  return V;
}

int64_t Parser::parseConstTerm() {
  int64_t V = parseConstFactor();
  while (at(TokKind::Star) || at(TokKind::KwDiv) || at(TokKind::KwMod)) {
    TokKind Op = Tok.Kind;
    consume();
    int64_t R = parseConstFactor();
    if (Op == TokKind::Star) {
      V = support::wrapMul(V, R);
    } else if (R == 0) {
      error("division by zero in constant expression");
    } else if (support::divOverflows(V, R)) {
      error("integer overflow in constant expression: smallest INTEGER "
            "DIV or MOD -1");
    } else if (Op == TokKind::KwDiv) {
      V /= R;
    } else {
      V %= R;
    }
  }
  return V;
}

int64_t Parser::parseConstFactor() {
  if (at(TokKind::IntLit)) {
    int64_t V = Tok.IntValue;
    consume();
    return V;
  }
  if (accept(TokKind::Minus))
    return support::wrapNeg(parseConstFactor());
  if (accept(TokKind::LParen)) {
    int64_t V = parseConstExpr();
    expect(TokKind::RParen);
    return V;
  }
  if (at(TokKind::Ident)) {
    std::string Name = expectIdent();
    auto It = ConstEnv.find(Name);
    if (It != ConstEnv.end())
      return It->second;
    error("unknown constant '" + Name + "'");
    return 0;
  }
  error(std::string("expected constant expression, found ") +
        tokKindName(Tok.Kind));
  return 0;
}

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

StmtList Parser::parseStmtSeq() {
  StmtList List;
  while (!Failed) {
    // Empty statements: stray semicolons are permitted.
    while (accept(TokKind::Semi))
      ;
    if (at(TokKind::KwEnd) || at(TokKind::KwElse) || at(TokKind::KwElsif) ||
        at(TokKind::KwUntil) || at(TokKind::Eof))
      return List;
    StmtPtr S = parseStmt();
    if (!S)
      return List;
    List.push_back(std::move(S));
    if (!at(TokKind::Semi) && !at(TokKind::KwEnd) && !at(TokKind::KwElse) &&
        !at(TokKind::KwElsif) && !at(TokKind::KwUntil)) {
      error(std::string("expected ';' or block end, found ") +
            tokKindName(Tok.Kind));
      return List;
    }
  }
  return List;
}

StmtPtr Parser::parseStmt() {
  SourceLoc Loc = Tok.Loc;

  if (accept(TokKind::KwIf)) {
    auto S = std::make_unique<IfStmt>();
    S->Loc = Loc;
    do {
      IfStmt::Arm Arm;
      Arm.Cond = parseExpr();
      expect(TokKind::KwThen);
      Arm.Body = parseStmtSeq();
      S->Arms.push_back(std::move(Arm));
    } while (accept(TokKind::KwElsif));
    if (accept(TokKind::KwElse))
      S->Else = parseStmtSeq();
    expect(TokKind::KwEnd);
    return S;
  }

  if (accept(TokKind::KwWhile)) {
    auto S = std::make_unique<WhileStmt>();
    S->Loc = Loc;
    S->Cond = parseExpr();
    expect(TokKind::KwDo);
    S->Body = parseStmtSeq();
    expect(TokKind::KwEnd);
    return S;
  }

  if (accept(TokKind::KwRepeat)) {
    auto S = std::make_unique<RepeatStmt>();
    S->Loc = Loc;
    S->Body = parseStmtSeq();
    expect(TokKind::KwUntil);
    S->Cond = parseExpr();
    return S;
  }

  if (accept(TokKind::KwLoop)) {
    auto S = std::make_unique<LoopStmt>();
    S->Loc = Loc;
    S->Body = parseStmtSeq();
    expect(TokKind::KwEnd);
    return S;
  }

  if (accept(TokKind::KwExit)) {
    auto S = std::make_unique<ExitStmt>();
    S->Loc = Loc;
    return S;
  }

  if (accept(TokKind::KwFor)) {
    auto S = std::make_unique<ForStmt>();
    S->Loc = Loc;
    S->IndexName = expectIdent();
    expect(TokKind::Assign);
    S->From = parseExpr();
    expect(TokKind::KwTo);
    S->To = parseExpr();
    if (accept(TokKind::KwBy))
      S->By = parseConstExpr();
    expect(TokKind::KwDo);
    S->Body = parseStmtSeq();
    expect(TokKind::KwEnd);
    return S;
  }

  if (accept(TokKind::KwReturn)) {
    auto S = std::make_unique<ReturnStmt>();
    S->Loc = Loc;
    if (!at(TokKind::Semi) && !at(TokKind::KwEnd) && !at(TokKind::KwElse) &&
        !at(TokKind::KwElsif) && !at(TokKind::KwUntil))
      S->Value = parseExpr();
    return S;
  }

  if (accept(TokKind::KwWith)) {
    auto S = std::make_unique<WithStmt>();
    S->Loc = Loc;
    S->AliasName = expectIdent();
    expect(TokKind::Equal);
    S->Target = parseDesignatorOrCall();
    expect(TokKind::KwDo);
    S->Body = parseStmtSeq();
    expect(TokKind::KwEnd);
    return S;
  }

  if (at(TokKind::Ident)) {
    // INC/DEC are spelled as ordinary identifiers.
    if (Tok.Text == "INC" || Tok.Text == "DEC") {
      bool IsInc = Tok.Text == "INC";
      consume();
      auto S = std::make_unique<IncDecStmt>(IsInc);
      S->Loc = Loc;
      expect(TokKind::LParen);
      S->Target = parseDesignatorOrCall();
      if (accept(TokKind::Comma))
        S->Amount = parseExpr();
      expect(TokKind::RParen);
      return S;
    }

    ExprPtr D = parseDesignatorOrCall();
    if (!D)
      return nullptr;
    if (accept(TokKind::Assign)) {
      ExprPtr V = parseExpr();
      auto S = std::make_unique<AssignStmt>(std::move(D), std::move(V));
      S->Loc = Loc;
      return S;
    }
    if (D->ExprKind == Expr::Kind::Call) {
      auto S = std::make_unique<CallStmt>(
          std::unique_ptr<CallExpr>(static_cast<CallExpr *>(D.release())));
      S->Loc = Loc;
      return S;
    }
    error("expected ':=' or a procedure call");
    return nullptr;
  }

  error(std::string("expected a statement, found ") + tokKindName(Tok.Kind));
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

ExprPtr Parser::parseExpr() {
  ExprPtr L = parseSimpleExpr();
  if (!L)
    return nullptr;
  BinOp Op;
  switch (Tok.Kind) {
  case TokKind::Equal: Op = BinOp::Eq; break;
  case TokKind::NotEqual: Op = BinOp::Ne; break;
  case TokKind::Less: Op = BinOp::Lt; break;
  case TokKind::LessEq: Op = BinOp::Le; break;
  case TokKind::Greater: Op = BinOp::Gt; break;
  case TokKind::GreaterEq: Op = BinOp::Ge; break;
  default:
    return L;
  }
  SourceLoc Loc = Tok.Loc;
  consume();
  ExprPtr R = parseSimpleExpr();
  if (!R)
    return nullptr;
  auto E = std::make_unique<BinaryExpr>(Op, std::move(L), std::move(R));
  E->Loc = Loc;
  return E;
}

ExprPtr Parser::parseSimpleExpr() {
  bool Negate = false;
  SourceLoc SignLoc = Tok.Loc;
  if (at(TokKind::Plus) || at(TokKind::Minus)) {
    Negate = at(TokKind::Minus);
    consume();
  }
  ExprPtr L = parseTerm();
  if (!L)
    return nullptr;
  if (Negate) {
    auto N = std::make_unique<UnaryExpr>(UnOp::Neg, std::move(L));
    N->Loc = SignLoc;
    L = std::move(N);
  }
  while (at(TokKind::Plus) || at(TokKind::Minus) || at(TokKind::KwOr)) {
    BinOp Op = at(TokKind::Plus)    ? BinOp::Add
               : at(TokKind::Minus) ? BinOp::Sub
                                    : BinOp::Or;
    SourceLoc Loc = Tok.Loc;
    consume();
    ExprPtr R = parseTerm();
    if (!R)
      return nullptr;
    auto E = std::make_unique<BinaryExpr>(Op, std::move(L), std::move(R));
    E->Loc = Loc;
    L = std::move(E);
  }
  return L;
}

ExprPtr Parser::parseTerm() {
  ExprPtr L = parseFactor();
  if (!L)
    return nullptr;
  while (at(TokKind::Star) || at(TokKind::KwDiv) || at(TokKind::KwMod) ||
         at(TokKind::KwAnd)) {
    BinOp Op = at(TokKind::Star)    ? BinOp::Mul
               : at(TokKind::KwDiv) ? BinOp::Div
               : at(TokKind::KwMod) ? BinOp::Mod
                                    : BinOp::And;
    SourceLoc Loc = Tok.Loc;
    consume();
    ExprPtr R = parseFactor();
    if (!R)
      return nullptr;
    auto E = std::make_unique<BinaryExpr>(Op, std::move(L), std::move(R));
    E->Loc = Loc;
    L = std::move(E);
  }
  return L;
}

ExprPtr Parser::parseFactor() {
  SourceLoc Loc = Tok.Loc;
  if (at(TokKind::IntLit)) {
    auto E = std::make_unique<IntLitExpr>(Tok.IntValue);
    E->Loc = Loc;
    consume();
    return E;
  }
  if (accept(TokKind::KwTrue)) {
    auto E = std::make_unique<BoolLitExpr>(true);
    E->Loc = Loc;
    return E;
  }
  if (accept(TokKind::KwFalse)) {
    auto E = std::make_unique<BoolLitExpr>(false);
    E->Loc = Loc;
    return E;
  }
  if (accept(TokKind::KwNil)) {
    auto E = std::make_unique<NilLitExpr>();
    E->Loc = Loc;
    return E;
  }
  if (at(TokKind::StrLit)) {
    auto E = std::make_unique<StrLitExpr>(Tok.Text);
    E->Loc = Loc;
    consume();
    return parseDesignatorSuffixes(std::move(E));
  }
  if (accept(TokKind::KwNot)) {
    ExprPtr Sub = parseFactor();
    if (!Sub)
      return nullptr;
    auto E = std::make_unique<UnaryExpr>(UnOp::Not, std::move(Sub));
    E->Loc = Loc;
    return E;
  }
  if (accept(TokKind::LParen)) {
    ExprPtr E = parseExpr();
    expect(TokKind::RParen);
    return E;
  }
  if (at(TokKind::Ident))
    return parseDesignatorOrCall();
  error(std::string("expected an expression, found ") +
        tokKindName(Tok.Kind));
  return nullptr;
}

ExprPtr Parser::parseDesignatorOrCall() {
  SourceLoc Loc = Tok.Loc;
  std::string Name = expectIdent();
  if (at(TokKind::LParen)) {
    consume();
    std::vector<ExprPtr> Args;
    if (!at(TokKind::RParen)) {
      do {
        ExprPtr A = parseExpr();
        if (!A)
          return nullptr;
        Args.push_back(std::move(A));
      } while (accept(TokKind::Comma));
    }
    expect(TokKind::RParen);
    auto E = std::make_unique<CallExpr>(std::move(Name), std::move(Args));
    E->Loc = Loc;
    // Function results may be further selected (e.g. `head(l)^.x`).
    return parseDesignatorSuffixes(std::move(E));
  }
  auto E = std::make_unique<NameExpr>(std::move(Name));
  E->Loc = Loc;
  return parseDesignatorSuffixes(std::move(E));
}

ExprPtr Parser::parseDesignatorSuffixes(ExprPtr Base) {
  while (true) {
    SourceLoc Loc = Tok.Loc;
    if (accept(TokKind::Caret)) {
      auto E = std::make_unique<DerefExpr>(std::move(Base));
      E->Loc = Loc;
      Base = std::move(E);
      continue;
    }
    if (accept(TokKind::Dot)) {
      std::string Field = expectIdent();
      auto E = std::make_unique<FieldExpr>(std::move(Base), std::move(Field));
      E->Loc = Loc;
      Base = std::move(E);
      continue;
    }
    if (accept(TokKind::LBracket)) {
      // `a[i, j]` is sugar for `a[i][j]`.
      do {
        ExprPtr Index = parseExpr();
        if (!Index)
          return nullptr;
        auto E =
            std::make_unique<IndexExpr>(std::move(Base), std::move(Index));
        E->Loc = Loc;
        Base = std::move(E);
      } while (accept(TokKind::Comma));
      expect(TokKind::RBracket);
      continue;
    }
    return Base;
  }
}

} // namespace

std::unique_ptr<ModuleAST> mgc::parseModule(const std::string &Source,
                                            Diagnostics &Diags) {
  Parser P(Source, Diags);
  return P.parse();
}
