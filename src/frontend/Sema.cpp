//===- frontend/Sema.cpp --------------------------------------------------===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//

#include "frontend/Sema.h"

#include "support/IntOps.h"

#include <cassert>
#include <map>
#include <optional>
#include <vector>

using namespace mgc;

namespace {

/// The value of \p E when it is a compile-time constant: an INTEGER
/// literal, a CONST name, or either one negated.
std::optional<int64_t> constantValue(const Expr &E) {
  switch (E.ExprKind) {
  case Expr::Kind::IntLit:
    return static_cast<const IntLitExpr &>(E).Value;
  case Expr::Kind::Name: {
    const Symbol *Sym = static_cast<const NameExpr &>(E).Sym;
    if (Sym && Sym->SymKind == Symbol::Kind::Constant)
      return Sym->ConstValue;
    return std::nullopt;
  }
  case Expr::Kind::Unary: {
    auto &U = static_cast<const UnaryExpr &>(E);
    if (U.Op != UnOp::Neg)
      return std::nullopt;
    std::optional<int64_t> V = constantValue(*U.Sub);
    return V ? std::optional<int64_t>(support::wrapNeg(*V)) : std::nullopt;
  }
  default:
    return std::nullopt;
  }
}

class Sema {
public:
  Sema(ModuleAST &M, Diagnostics &Diags) : M(M), Diags(Diags) {}

  bool run();

private:
  //===--------------------------------------------------------------------===
  // Scopes
  //===--------------------------------------------------------------------===

  void pushScope() { Scopes.emplace_back(); }
  void popScope() { Scopes.pop_back(); }

  void declare(Symbol *Sym) { Scopes.back()[Sym->Name] = Sym; }

  Symbol *lookup(const std::string &Name) {
    for (auto It = Scopes.rbegin(), E = Scopes.rend(); It != E; ++It) {
      auto Found = It->find(Name);
      if (Found != It->end())
        return Found->second;
    }
    return nullptr;
  }

  void error(SourceLoc Loc, const std::string &Msg) { Diags.error(Loc, Msg); }

  //===--------------------------------------------------------------------===
  // Statements
  //===--------------------------------------------------------------------===

  void checkBody(StmtList &Body);
  void checkStmt(Stmt &S);

  //===--------------------------------------------------------------------===
  // Expressions
  //===--------------------------------------------------------------------===

  /// Types \p E; returns its type or null on error (diagnostic emitted).
  const Type *checkExpr(Expr &E);
  const Type *checkCall(CallExpr &E, bool AsStatement);
  const Type *checkBuiltin(CallExpr &E, Builtin B);

  /// True when \p E denotes a mutable location.
  bool isDesignator(const Expr &E) const;
  /// Marks a whole-variable designator's symbol as address-taken.
  void noteAddressTaken(Expr &E);

  Symbol *makeLocal(Symbol::Kind K, const std::string &Name, const Type *Ty);

  ModuleAST &M;
  Diagnostics &Diags;
  std::vector<std::map<std::string, Symbol *>> Scopes;
  ProcDecl *CurProc = nullptr; ///< Null while checking the main body.
  unsigned LoopDepth = 0;
};

bool Sema::run() {
  pushScope();
  for (auto &Sym : M.OtherSymbols)
    declare(Sym.get());
  for (auto &Sym : M.Globals)
    declare(Sym.get());
  unsigned Index = 0;
  for (auto &P : M.Procs) {
    P->Index = Index++;
    auto Sym = std::make_unique<Symbol>(Symbol::Kind::Proc, P->Name);
    Sym->Proc = P.get();
    declare(Sym.get());
    M.OtherSymbols.push_back(std::move(Sym));
  }

  for (auto &P : M.Procs) {
    CurProc = P.get();
    pushScope();
    for (auto &Param : P->Params)
      declare(Param.get());
    for (auto &Local : P->Locals)
      declare(Local.get());
    checkBody(P->Body);
    popScope();
  }

  CurProc = nullptr;
  checkBody(M.MainBody);
  popScope();

  // Storage classification: aggregates and address-taken variables must
  // live in memory (frame or global slots); everything else may live in a
  // virtual register.
  auto Classify = [](Symbol &Sym) {
    if (!Sym.isVariable())
      return;
    if (!Sym.Ty)
      return;
    bool Aggregate = !Sym.Ty->isScalar();
    Sym.NeedsMemory = Aggregate || Sym.AddressTaken;
  };
  for (auto &G : M.Globals)
    Classify(*G);
  for (auto &P : M.Procs) {
    for (auto &Param : P->Params)
      Classify(*Param);
    for (auto &L : P->Locals)
      Classify(*L);
  }
  for (auto &L : M.MainLocals)
    Classify(*L);

  return !Diags.hasErrors();
}

Symbol *Sema::makeLocal(Symbol::Kind K, const std::string &Name,
                        const Type *Ty) {
  auto Sym = std::make_unique<Symbol>(K, Name);
  Sym->Ty = Ty;
  Symbol *Raw = Sym.get();
  if (CurProc)
    CurProc->Locals.push_back(std::move(Sym));
  else
    M.MainLocals.push_back(std::move(Sym));
  return Raw;
}

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

void Sema::checkBody(StmtList &Body) {
  for (auto &S : Body)
    checkStmt(*S);
}

void Sema::checkStmt(Stmt &S) {
  switch (S.StmtKind) {
  case Stmt::Kind::Assign: {
    auto &A = static_cast<AssignStmt &>(S);
    const Type *TT = checkExpr(*A.Target);
    const Type *VT = checkExpr(*A.Value);
    if (!TT || !VT)
      return;
    if (!isDesignator(*A.Target)) {
      error(S.Loc, "assignment target is not a designator");
      return;
    }
    if (!TT->isScalar()) {
      error(S.Loc, "only scalar and REF values can be assigned");
      return;
    }
    if (!Type::assignable(TT, VT))
      error(S.Loc, "cannot assign " + VT->str() + " to " + TT->str());
    return;
  }
  case Stmt::Kind::Call: {
    auto &C = static_cast<CallStmt &>(S);
    checkCall(*C.Call, /*AsStatement=*/true);
    return;
  }
  case Stmt::Kind::If: {
    auto &I = static_cast<IfStmt &>(S);
    for (auto &Arm : I.Arms) {
      const Type *CT = checkExpr(*Arm.Cond);
      if (CT && !CT->isBoolean())
        error(Arm.Cond->Loc, "IF condition must be BOOLEAN");
      checkBody(Arm.Body);
    }
    checkBody(I.Else);
    return;
  }
  case Stmt::Kind::While: {
    auto &W = static_cast<WhileStmt &>(S);
    const Type *CT = checkExpr(*W.Cond);
    if (CT && !CT->isBoolean())
      error(W.Cond->Loc, "WHILE condition must be BOOLEAN");
    ++LoopDepth;
    checkBody(W.Body);
    --LoopDepth;
    return;
  }
  case Stmt::Kind::Repeat: {
    auto &R = static_cast<RepeatStmt &>(S);
    ++LoopDepth;
    checkBody(R.Body);
    --LoopDepth;
    const Type *CT = checkExpr(*R.Cond);
    if (CT && !CT->isBoolean())
      error(R.Cond->Loc, "UNTIL condition must be BOOLEAN");
    return;
  }
  case Stmt::Kind::Loop: {
    auto &L = static_cast<LoopStmt &>(S);
    ++LoopDepth;
    checkBody(L.Body);
    --LoopDepth;
    return;
  }
  case Stmt::Kind::Exit:
    if (LoopDepth == 0)
      error(S.Loc, "EXIT outside of a loop");
    return;
  case Stmt::Kind::For: {
    auto &F = static_cast<ForStmt &>(S);
    const Type *FromT = checkExpr(*F.From);
    const Type *ToT = checkExpr(*F.To);
    if (FromT && !FromT->isInteger())
      error(F.From->Loc, "FOR bounds must be INTEGER");
    if (ToT && !ToT->isInteger())
      error(F.To->Loc, "FOR bounds must be INTEGER");
    if (F.By == 0)
      error(S.Loc, "FOR step must be nonzero");
    F.IndexSym = makeLocal(Symbol::Kind::ForIndex, F.IndexName,
                           M.Types.integerType());
    pushScope();
    declare(F.IndexSym);
    ++LoopDepth;
    checkBody(F.Body);
    --LoopDepth;
    popScope();
    return;
  }
  case Stmt::Kind::Return: {
    auto &R = static_cast<ReturnStmt &>(S);
    const Type *RetTy = CurProc ? CurProc->RetTy : nullptr;
    if (R.Value) {
      const Type *VT = checkExpr(*R.Value);
      if (!RetTy)
        error(S.Loc, "RETURN with a value in a proper procedure");
      else if (VT && !Type::assignable(RetTy, VT))
        error(S.Loc, "RETURN type mismatch: expected " + RetTy->str() +
                         ", got " + VT->str());
    } else if (RetTy) {
      error(S.Loc, "RETURN without a value in a function procedure");
    }
    return;
  }
  case Stmt::Kind::With: {
    auto &W = static_cast<WithStmt &>(S);
    const Type *TT = checkExpr(*W.Target);
    if (!TT)
      return;
    if (!isDesignator(*W.Target)) {
      error(S.Loc, "WITH target must be a designator");
      return;
    }
    noteAddressTaken(*W.Target);
    W.AliasSym = makeLocal(Symbol::Kind::WithAlias, W.AliasName, TT);
    pushScope();
    declare(W.AliasSym);
    checkBody(W.Body);
    popScope();
    return;
  }
  case Stmt::Kind::IncDec: {
    auto &I = static_cast<IncDecStmt &>(S);
    const Type *TT = checkExpr(*I.Target);
    if (TT && !TT->isInteger())
      error(S.Loc, "INC/DEC target must be INTEGER");
    if (TT && !isDesignator(*I.Target))
      error(S.Loc, "INC/DEC target must be a designator");
    if (I.Amount) {
      const Type *AT = checkExpr(*I.Amount);
      if (AT && !AT->isInteger())
        error(I.Amount->Loc, "INC/DEC amount must be INTEGER");
    }
    return;
  }
  }
}

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

bool Sema::isDesignator(const Expr &E) const {
  switch (E.ExprKind) {
  case Expr::Kind::Name: {
    const Symbol *Sym = static_cast<const NameExpr &>(E).Sym;
    return Sym && (Sym->isVariable() || Sym->SymKind == Symbol::Kind::WithAlias);
  }
  case Expr::Kind::Index:
  case Expr::Kind::Field:
  case Expr::Kind::Deref:
    return true; // Components checked during typing.
  default:
    return false;
  }
}

void Sema::noteAddressTaken(Expr &E) {
  if (E.ExprKind != Expr::Kind::Name)
    return;
  Symbol *Sym = static_cast<NameExpr &>(E).Sym;
  if (Sym && Sym->isVariable())
    Sym->AddressTaken = true;
}

const Type *Sema::checkExpr(Expr &E) {
  switch (E.ExprKind) {
  case Expr::Kind::IntLit:
    E.Ty = M.Types.integerType();
    return E.Ty;
  case Expr::Kind::BoolLit:
    E.Ty = M.Types.booleanType();
    return E.Ty;
  case Expr::Kind::NilLit:
    E.Ty = M.Types.nilType();
    return E.Ty;
  case Expr::Kind::StrLit:
    E.Ty = M.Types.getRef(M.Types.getOpenArray(M.Types.integerType()));
    return E.Ty;

  case Expr::Kind::Name: {
    auto &N = static_cast<NameExpr &>(E);
    N.Sym = lookup(N.Name);
    if (!N.Sym) {
      error(E.Loc, "unknown identifier '" + N.Name + "'");
      return nullptr;
    }
    switch (N.Sym->SymKind) {
    case Symbol::Kind::Constant:
    case Symbol::Kind::GlobalVar:
    case Symbol::Kind::LocalVar:
    case Symbol::Kind::Param:
    case Symbol::Kind::ForIndex:
    case Symbol::Kind::WithAlias:
      E.Ty = N.Sym->Ty;
      return E.Ty;
    case Symbol::Kind::TypeName:
      error(E.Loc, "type name '" + N.Name + "' used as a value");
      return nullptr;
    case Symbol::Kind::Proc:
      error(E.Loc, "procedure '" + N.Name + "' used as a value");
      return nullptr;
    }
    return nullptr;
  }

  case Expr::Kind::Binary: {
    auto &B = static_cast<BinaryExpr &>(E);
    const Type *LT = checkExpr(*B.LHS);
    const Type *RT = checkExpr(*B.RHS);
    if (!LT || !RT)
      return nullptr;
    switch (B.Op) {
    case BinOp::Add: case BinOp::Sub: case BinOp::Mul:
    case BinOp::Div: case BinOp::Mod:
      if (!LT->isInteger() || !RT->isInteger()) {
        error(E.Loc, "arithmetic requires INTEGER operands");
        return nullptr;
      }
      E.Ty = M.Types.integerType();
      return E.Ty;
    case BinOp::Lt: case BinOp::Le: case BinOp::Gt: case BinOp::Ge:
      if (!LT->isInteger() || !RT->isInteger()) {
        error(E.Loc, "ordering comparison requires INTEGER operands");
        return nullptr;
      }
      E.Ty = M.Types.booleanType();
      return E.Ty;
    case BinOp::Eq: case BinOp::Ne: {
      bool Ok = (LT->isInteger() && RT->isInteger()) ||
                (LT->isBoolean() && RT->isBoolean()) ||
                ((LT->isRef() || LT->isNil()) && (RT->isRef() || RT->isNil()));
      if (!Ok) {
        error(E.Loc, "incomparable operand types " + LT->str() + " and " +
                         RT->str());
        return nullptr;
      }
      E.Ty = M.Types.booleanType();
      return E.Ty;
    }
    case BinOp::And: case BinOp::Or:
      if (!LT->isBoolean() || !RT->isBoolean()) {
        error(E.Loc, "AND/OR require BOOLEAN operands");
        return nullptr;
      }
      E.Ty = M.Types.booleanType();
      return E.Ty;
    }
    return nullptr;
  }

  case Expr::Kind::Unary: {
    auto &U = static_cast<UnaryExpr &>(E);
    const Type *ST = checkExpr(*U.Sub);
    if (!ST)
      return nullptr;
    if (U.Op == UnOp::Neg) {
      if (!ST->isInteger()) {
        error(E.Loc, "unary '-' requires INTEGER");
        return nullptr;
      }
      E.Ty = M.Types.integerType();
    } else {
      if (!ST->isBoolean()) {
        error(E.Loc, "NOT requires BOOLEAN");
        return nullptr;
      }
      E.Ty = M.Types.booleanType();
    }
    return E.Ty;
  }

  case Expr::Kind::Index: {
    auto &I = static_cast<IndexExpr &>(E);
    const Type *BT = checkExpr(*I.Base);
    const Type *IT = checkExpr(*I.Index);
    if (!BT || !IT)
      return nullptr;
    if (!IT->isInteger()) {
      error(I.Index->Loc, "array index must be INTEGER");
      return nullptr;
    }
    if (BT->isRef() && (BT->elem()->isArray() || BT->elem()->isOpenArray())) {
      I.BaseIsRef = true;
      BT = BT->elem();
    }
    if (!BT->isArray() && !BT->isOpenArray()) {
      error(E.Loc, "indexing a non-array of type " + BT->str());
      return nullptr;
    }
    // Lower folds a constant subscript into the displacement, so one
    // outside a fixed array's bounds would address a neighbouring word.
    std::optional<int64_t> C = constantValue(*I.Index);
    if (BT->isArray() && C && (*C < BT->lo() || *C > BT->hi())) {
      error(I.Index->Loc, "array index " + std::to_string(*C) +
                              " is outside the bounds [" +
                              std::to_string(BT->lo()) + ".." +
                              std::to_string(BT->hi()) + "]");
      return nullptr;
    }
    E.Ty = BT->elem();
    return E.Ty;
  }

  case Expr::Kind::Field: {
    auto &F = static_cast<FieldExpr &>(E);
    const Type *BT = checkExpr(*F.Base);
    if (!BT)
      return nullptr;
    if (BT->isRef() && BT->elem()->isRecord()) {
      F.BaseIsRef = true;
      BT = BT->elem();
    }
    if (!BT->isRecord()) {
      error(E.Loc, "selecting field of a non-record of type " + BT->str());
      return nullptr;
    }
    F.Field = BT->findField(F.FieldName);
    if (!F.Field) {
      error(E.Loc, "no field '" + F.FieldName + "' in " + BT->str());
      return nullptr;
    }
    E.Ty = F.Field->Ty;
    return E.Ty;
  }

  case Expr::Kind::Deref: {
    auto &D = static_cast<DerefExpr &>(E);
    const Type *BT = checkExpr(*D.Base);
    if (!BT)
      return nullptr;
    if (!BT->isRef()) {
      error(E.Loc, "dereference of a non-REF of type " + BT->str());
      return nullptr;
    }
    E.Ty = BT->elem();
    return E.Ty;
  }

  case Expr::Kind::Call:
    return checkCall(static_cast<CallExpr &>(E), /*AsStatement=*/false);
  }
  return nullptr;
}

const Type *Sema::checkCall(CallExpr &E, bool AsStatement) {
  static const std::map<std::string, Builtin> Builtins = {
      {"NEW", Builtin::New},         {"NUMBER", Builtin::Number},
      {"FIRST", Builtin::First},     {"LAST", Builtin::Last},
      {"ABS", Builtin::Abs},         {"PutInt", Builtin::PutInt},
      {"PutChar", Builtin::PutChar}, {"PutLn", Builtin::PutLn},
      {"GcCollect", Builtin::GcCollect}, {"HALT", Builtin::Halt},
      {"ReqDone", Builtin::ReqDone},
  };
  auto BIt = Builtins.find(E.Callee);
  if (BIt != Builtins.end()) {
    E.BuiltinKind = BIt->second;
    bool IsProper = BIt->second == Builtin::PutInt ||
                    BIt->second == Builtin::PutChar ||
                    BIt->second == Builtin::PutLn ||
                    BIt->second == Builtin::GcCollect ||
                    BIt->second == Builtin::Halt ||
                    BIt->second == Builtin::ReqDone;
    if (IsProper && !AsStatement) {
      error(E.Loc, "proper builtin '" + E.Callee + "' used in an expression");
      return nullptr;
    }
    return checkBuiltin(E, BIt->second);
  }

  Symbol *Sym = lookup(E.Callee);
  if (!Sym || Sym->SymKind != Symbol::Kind::Proc) {
    error(E.Loc, "call of unknown procedure '" + E.Callee + "'");
    return nullptr;
  }
  ProcDecl *P = Sym->Proc;
  E.Proc = P;
  if (E.Args.size() != P->Params.size()) {
    error(E.Loc, "call of '" + E.Callee + "' with " +
                     std::to_string(E.Args.size()) + " argument(s), expected " +
                     std::to_string(P->Params.size()));
    return nullptr;
  }
  for (size_t I = 0, N = E.Args.size(); I != N; ++I) {
    Symbol *Param = P->Params[I].get();
    const Type *AT = checkExpr(*E.Args[I]);
    if (!AT)
      continue;
    if (Param->IsVarParam) {
      if (!isDesignator(*E.Args[I])) {
        error(E.Args[I]->Loc, "VAR argument must be a designator");
        continue;
      }
      if (!Type::structurallyEqual(Param->Ty, AT)) {
        error(E.Args[I]->Loc, "VAR argument type " + AT->str() +
                                  " does not match parameter type " +
                                  Param->Ty->str());
        continue;
      }
      noteAddressTaken(*E.Args[I]);
    } else {
      if (!AT->isScalar()) {
        error(E.Args[I]->Loc,
              "aggregate arguments must be passed VAR or by REF");
        continue;
      }
      if (!Type::assignable(Param->Ty, AT))
        error(E.Args[I]->Loc, "argument type " + AT->str() +
                                  " does not match parameter type " +
                                  Param->Ty->str());
    }
  }
  if (!AsStatement && !P->RetTy) {
    error(E.Loc, "proper procedure '" + E.Callee + "' used in an expression");
    return nullptr;
  }
  E.Ty = P->RetTy;
  return E.Ty;
}

const Type *Sema::checkBuiltin(CallExpr &E, Builtin B) {
  auto RequireArgs = [&](size_t Min, size_t Max) {
    if (E.Args.size() < Min || E.Args.size() > Max) {
      error(E.Loc, "wrong number of arguments to " + E.Callee);
      return false;
    }
    return true;
  };

  switch (B) {
  case Builtin::New: {
    if (!RequireArgs(1, 2))
      return nullptr;
    // The first argument must be a type name denoting a REF type.
    if (E.Args[0]->ExprKind != Expr::Kind::Name) {
      error(E.Loc, "first argument of NEW must be a REF type name");
      return nullptr;
    }
    auto &N = static_cast<NameExpr &>(*E.Args[0]);
    Symbol *Sym = lookup(N.Name);
    if (!Sym || Sym->SymKind != Symbol::Kind::TypeName || !Sym->Ty->isRef()) {
      error(E.Loc, "first argument of NEW must be a REF type name");
      return nullptr;
    }
    N.Sym = Sym;
    N.Ty = Sym->Ty;
    E.AllocType = Sym->Ty->elem();
    bool IsOpen = E.AllocType->isOpenArray();
    if (IsOpen && E.Args.size() != 2) {
      error(E.Loc, "NEW of an open array requires a length argument");
      return nullptr;
    }
    if (!IsOpen && E.Args.size() != 1) {
      error(E.Loc, "NEW of a fixed-shape type takes no length argument");
      return nullptr;
    }
    if (E.Args.size() == 2) {
      const Type *LT = checkExpr(*E.Args[1]);
      if (LT && !LT->isInteger()) {
        error(E.Args[1]->Loc, "NEW length must be INTEGER");
        return nullptr;
      }
    }
    E.Ty = Sym->Ty;
    return E.Ty;
  }

  case Builtin::Number:
  case Builtin::First:
  case Builtin::Last: {
    if (!RequireArgs(1, 1))
      return nullptr;
    const Type *AT = checkExpr(*E.Args[0]);
    if (!AT)
      return nullptr;
    if (AT->isRef())
      AT = AT->elem();
    if (!AT->isArray() && !AT->isOpenArray()) {
      error(E.Args[0]->Loc, E.Callee + " requires an array");
      return nullptr;
    }
    E.Ty = M.Types.integerType();
    return E.Ty;
  }

  case Builtin::Abs: {
    if (!RequireArgs(1, 1))
      return nullptr;
    const Type *AT = checkExpr(*E.Args[0]);
    if (AT && !AT->isInteger()) {
      error(E.Args[0]->Loc, "ABS requires INTEGER");
      return nullptr;
    }
    E.Ty = M.Types.integerType();
    return E.Ty;
  }

  case Builtin::PutInt:
  case Builtin::PutChar: {
    if (!RequireArgs(1, 1))
      return nullptr;
    const Type *AT = checkExpr(*E.Args[0]);
    if (AT && !AT->isInteger())
      error(E.Args[0]->Loc, E.Callee + " requires INTEGER");
    return nullptr; // Proper procedure.
  }

  case Builtin::PutLn:
  case Builtin::GcCollect:
  case Builtin::Halt:
  case Builtin::ReqDone:
    RequireArgs(0, 0);
    return nullptr; // Proper procedures.

  case Builtin::None:
    break;
  }
  return nullptr;
}

} // namespace

bool mgc::checkModule(ModuleAST &Module, Diagnostics &Diags) {
  Sema S(Module, Diags);
  return S.run();
}
