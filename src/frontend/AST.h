//===- frontend/AST.h - MG abstract syntax ----------------------*- C++ -*-===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// AST node definitions for MG.  The parser builds these; the type checker
/// (Sema) fills in the annotation fields (types, resolved symbols); the
/// lowerer consumes them.  Nodes use a Kind enum plus static_cast dispatch,
/// in the spirit of LLVM's hand-rolled RTTI, since the project builds
/// without RTTI.
///
//===----------------------------------------------------------------------===//

#ifndef MGC_FRONTEND_AST_H
#define MGC_FRONTEND_AST_H

#include "frontend/Type.h"
#include "support/Diagnostics.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace mgc {

class ProcDecl;

//===----------------------------------------------------------------------===//
// Symbols
//===----------------------------------------------------------------------===//

/// A named entity.  Variables carry the storage-relevant annotations the
/// lowerer needs: whether the variable must live in memory (its address is
/// taken, or it is an aggregate) and its index within its storage class.
class Symbol {
public:
  enum class Kind {
    GlobalVar,
    LocalVar,
    Param,
    WithAlias, ///< WITH alias: a name bound to the address of a designator.
    ForIndex,  ///< FOR loop index, implicitly declared.
    Constant,
    TypeName,
    Proc,
  };

  Kind SymKind;
  std::string Name;
  const Type *Ty = nullptr;

  /// Param: whether passed by reference.
  bool IsVarParam = false;
  /// Param: 0-based position.
  unsigned ParamIndex = 0;
  /// Variables: true when the variable must live in a frame/global slot
  /// rather than a virtual register (aggregates; VAR-passed locals).
  bool NeedsMemory = false;
  /// Set by Sema when the variable is passed as a VAR argument somewhere.
  bool AddressTaken = false;

  /// Constant: its value.
  int64_t ConstValue = 0;
  /// Proc symbol: the declaration.
  ProcDecl *Proc = nullptr;

  Symbol(Kind K, std::string Name) : SymKind(K), Name(std::move(Name)) {}

  bool isVariable() const {
    return SymKind == Kind::GlobalVar || SymKind == Kind::LocalVar ||
           SymKind == Kind::Param || SymKind == Kind::ForIndex;
  }
};

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

enum class BinOp {
  Add, Sub, Mul, Div, Mod,
  Eq, Ne, Lt, Le, Gt, Ge,
  And, Or, ///< Short-circuit.
};

enum class UnOp { Neg, Not };

/// Builtin procedures and functions, resolved by name in Sema.
enum class Builtin {
  None,
  New,      ///< NEW(T) / NEW(T, n)
  Number,   ///< NUMBER(a): element count of an array
  First,    ///< FIRST(a): low bound
  Last,     ///< LAST(a): high bound
  Abs,
  PutInt,
  PutChar,
  PutLn,
  GcCollect, ///< Force a collection (testing hook).
  Halt,
  ReqDone,  ///< Server-workload request boundary marker (not a gc-point).
};

class Expr {
public:
  enum class Kind {
    IntLit, BoolLit, NilLit, StrLit, Name,
    Binary, Unary, Index, Field, Deref, Call,
  };

  Kind ExprKind;
  SourceLoc Loc;
  /// Filled in by Sema.
  const Type *Ty = nullptr;

  explicit Expr(Kind K) : ExprKind(K) {}
  virtual ~Expr() = default;
};

using ExprPtr = std::unique_ptr<Expr>;

class IntLitExpr : public Expr {
public:
  int64_t Value;
  explicit IntLitExpr(int64_t V) : Expr(Kind::IntLit), Value(V) {}
};

class BoolLitExpr : public Expr {
public:
  bool Value;
  explicit BoolLitExpr(bool V) : Expr(Kind::BoolLit), Value(V) {}
};

class NilLitExpr : public Expr {
public:
  NilLitExpr() : Expr(Kind::NilLit) {}
};

/// A string literal, typed REF ARRAY OF INTEGER (character codes) and
/// materialized as a freshly allocated open array — so a string literal is
/// an allocation and therefore a gc-point.
class StrLitExpr : public Expr {
public:
  std::string Value;
  explicit StrLitExpr(std::string V)
      : Expr(Kind::StrLit), Value(std::move(V)) {}
};

class NameExpr : public Expr {
public:
  std::string Name;
  /// Resolved by Sema; may denote a variable, constant, or type name (the
  /// last only as a NEW argument).
  Symbol *Sym = nullptr;
  explicit NameExpr(std::string N) : Expr(Kind::Name), Name(std::move(N)) {}
};

class BinaryExpr : public Expr {
public:
  BinOp Op;
  ExprPtr LHS, RHS;
  BinaryExpr(BinOp Op, ExprPtr L, ExprPtr R)
      : Expr(Kind::Binary), Op(Op), LHS(std::move(L)), RHS(std::move(R)) {}
};

class UnaryExpr : public Expr {
public:
  UnOp Op;
  ExprPtr Sub;
  UnaryExpr(UnOp Op, ExprPtr S) : Expr(Kind::Unary), Op(Op), Sub(std::move(S)) {}
};

/// `Base[Index]`.  When Base has REF-to-array type the REF is implicitly
/// dereferenced (Modula-3 style); Sema records that in BaseIsRef.
class IndexExpr : public Expr {
public:
  ExprPtr Base, Index;
  bool BaseIsRef = false;
  IndexExpr(ExprPtr B, ExprPtr I)
      : Expr(Kind::Index), Base(std::move(B)), Index(std::move(I)) {}
};

/// `Base.Field`, with implicit dereference of REF-to-record bases.
class FieldExpr : public Expr {
public:
  ExprPtr Base;
  std::string FieldName;
  const RecordField *Field = nullptr;
  bool BaseIsRef = false;
  FieldExpr(ExprPtr B, std::string F)
      : Expr(Kind::Field), Base(std::move(B)), FieldName(std::move(F)) {}
};

/// `Base^`.
class DerefExpr : public Expr {
public:
  ExprPtr Base;
  explicit DerefExpr(ExprPtr B) : Expr(Kind::Deref), Base(std::move(B)) {}
};

/// A call of a user procedure or builtin, in expression or statement
/// position.
class CallExpr : public Expr {
public:
  std::string Callee;
  std::vector<ExprPtr> Args;
  /// Resolution results.
  Builtin BuiltinKind = Builtin::None;
  ProcDecl *Proc = nullptr;
  /// For NEW: the referent type being allocated (Ty is the REF type).
  const Type *AllocType = nullptr;
  CallExpr(std::string C, std::vector<ExprPtr> A)
      : Expr(Kind::Call), Callee(std::move(C)), Args(std::move(A)) {}
};

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

class Stmt {
public:
  enum class Kind {
    Assign, Call, If, While, Repeat, Loop, Exit, For, Return, With, IncDec,
  };

  Kind StmtKind;
  SourceLoc Loc;

  explicit Stmt(Kind K) : StmtKind(K) {}
  virtual ~Stmt() = default;
};

using StmtPtr = std::unique_ptr<Stmt>;
using StmtList = std::vector<StmtPtr>;

class AssignStmt : public Stmt {
public:
  ExprPtr Target, Value;
  AssignStmt(ExprPtr T, ExprPtr V)
      : Stmt(Kind::Assign), Target(std::move(T)), Value(std::move(V)) {}
};

class CallStmt : public Stmt {
public:
  std::unique_ptr<CallExpr> Call;
  explicit CallStmt(std::unique_ptr<CallExpr> C)
      : Stmt(Kind::Call), Call(std::move(C)) {}
};

class IfStmt : public Stmt {
public:
  struct Arm {
    ExprPtr Cond;
    StmtList Body;
  };
  std::vector<Arm> Arms; ///< IF plus any ELSIFs.
  StmtList Else;
  IfStmt() : Stmt(Kind::If) {}
};

class WhileStmt : public Stmt {
public:
  ExprPtr Cond;
  StmtList Body;
  WhileStmt() : Stmt(Kind::While) {}
};

class RepeatStmt : public Stmt {
public:
  StmtList Body;
  ExprPtr Cond; ///< UNTIL condition.
  RepeatStmt() : Stmt(Kind::Repeat) {}
};

class LoopStmt : public Stmt {
public:
  StmtList Body;
  LoopStmt() : Stmt(Kind::Loop) {}
};

class ExitStmt : public Stmt {
public:
  ExitStmt() : Stmt(Kind::Exit) {}
};

class ForStmt : public Stmt {
public:
  std::string IndexName;
  Symbol *IndexSym = nullptr; ///< Implicitly declared INTEGER, set by Sema.
  ExprPtr From, To;
  int64_t By = 1;
  StmtList Body;
  ForStmt() : Stmt(Kind::For) {}
};

class ReturnStmt : public Stmt {
public:
  ExprPtr Value; ///< Null for plain RETURN.
  ReturnStmt() : Stmt(Kind::Return) {}
};

/// `WITH alias = designator DO ... END`: binds the *address* of the
/// designator, creating an interior pointer when the designator denotes a
/// heap location — one of the paper's sources of untidy pointers.
class WithStmt : public Stmt {
public:
  std::string AliasName;
  Symbol *AliasSym = nullptr;
  ExprPtr Target;
  StmtList Body;
  WithStmt() : Stmt(Kind::With) {}
};

class IncDecStmt : public Stmt {
public:
  ExprPtr Target;
  ExprPtr Amount; ///< Null means 1.
  bool IsInc;
  explicit IncDecStmt(bool IsInc) : Stmt(Kind::IncDec), IsInc(IsInc) {}
};

//===----------------------------------------------------------------------===//
// Declarations
//===----------------------------------------------------------------------===//

class ProcDecl {
public:
  std::string Name;
  SourceLoc Loc;
  std::vector<std::unique_ptr<Symbol>> Params;
  const Type *RetTy = nullptr; ///< Null for proper procedures.
  /// All locally declared variables (including FOR indices and WITH
  /// aliases, added by Sema).
  std::vector<std::unique_ptr<Symbol>> Locals;
  StmtList Body;
  /// Assigned by Sema: position in the module's procedure list.
  unsigned Index = 0;
};

/// A parsed (and, after Sema, checked) MG module.
class ModuleAST {
public:
  std::string Name;
  TypeContext Types;
  std::vector<std::unique_ptr<Symbol>> Globals;
  std::vector<std::unique_ptr<Symbol>> OtherSymbols; ///< Consts, type names.
  std::vector<std::unique_ptr<ProcDecl>> Procs;
  StmtList MainBody;
  /// FOR indices and WITH aliases synthesized by Sema for the main body.
  std::vector<std::unique_ptr<Symbol>> MainLocals;
};

} // namespace mgc

#endif // MGC_FRONTEND_AST_H
