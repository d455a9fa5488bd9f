//===- frontend/Lower.cpp -------------------------------------------------===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//

#include "frontend/Lower.h"

#include "support/IntOps.h"

#include <cassert>
#include <map>

using namespace mgc;
using namespace mgc::ir;

namespace {

constexpr unsigned HeaderBytes = WordSize;     ///< One descriptor word.
constexpr unsigned OpenLenBytes = WordSize;    ///< Length word of open arrays.

/// Where a value lives, as computed for a designator.
struct Place {
  enum class Kind {
    VRegDirect,   ///< A scalar living in a vreg.
    SlotDirect,   ///< A scalar frame slot.
    GlobalDirect, ///< A scalar global word.
    Indirect,     ///< mem[Addr + Disp].
  };
  Kind K = Kind::VRegDirect;
  VReg R = NoVReg;       ///< VRegDirect / Indirect address.
  int Slot = -1;         ///< SlotDirect.
  int GlobalWord = -1;   ///< GlobalDirect.
  int64_t Disp = 0;      ///< Indirect.

  static Place vreg(VReg R) { return {Kind::VRegDirect, R, -1, -1, 0}; }
  static Place slot(int S) { return {Kind::SlotDirect, NoVReg, S, -1, 0}; }
  static Place global(int W) { return {Kind::GlobalDirect, NoVReg, -1, W, 0}; }
  static Place indirect(VReg Addr, int64_t Disp) {
    return {Kind::Indirect, Addr, -1, -1, Disp};
  }
};

class Lowerer {
public:
  explicit Lowerer(const ModuleAST &M) : M(M) {}

  std::unique_ptr<IRModule> run();

private:
  //===--- Emission helpers ------------------------------------------------===

  void emit(Instr I) {
    I.Loc = CurLoc;
    Cur->Instrs.push_back(std::move(I));
  }

  BasicBlock *newBlock() { return F->newBlock(); }

  void setBlock(BasicBlock *BB) { Cur = BB; }

  /// Terminates the current block with a jump if it is still open, then
  /// switches to \p BB.
  void jumpTo(BasicBlock *BB) {
    if (!Cur->hasTerminator())
      emit(Instr::jump(BB->Id));
    setBlock(BB);
  }

  VReg temp(PtrKind K) { return F->newVReg(K); }

  /// Materializes an operand into a vreg of kind \p K.
  VReg toVReg(Operand O, PtrKind K) {
    if (O.isReg())
      return O.R;
    VReg R = temp(K);
    emit(Instr::mov(R, O));
    return R;
  }

  /// Emits heap or frame address arithmetic: Base + Off bytes.  Heap-like
  /// bases use DeriveAdd (a derived value); frame addresses use plain Add.
  VReg emitAddrAdd(VReg Base, Operand Off) {
    PtrKind BK = F->kindOf(Base);
    if (BK == PtrKind::FrameAddr) {
      VReg Dst = temp(PtrKind::FrameAddr);
      emit(Instr::bin(Opcode::Add, Dst, Operand::reg(Base), Off));
      return Dst;
    }
    VReg Dst = temp(PtrKind::Derived);
    emit(Instr::bin(Opcode::DeriveAdd, Dst, Operand::reg(Base), Off));
    return Dst;
  }

  //===--- Declaration processing ------------------------------------------===

  void layoutGlobals();
  int typeDescFor(const Type *Referent);
  void bindLocal(Symbol *Sym);
  void lowerFunctionBody(Function *Fn, const StmtList &Body,
                         const std::vector<std::unique_ptr<Symbol>> &Locals,
                         const ProcDecl *P);

  //===--- Statements -------------------------------------------------------===

  void lowerBody(const StmtList &Body);
  void lowerStmt(const Stmt &S);

  //===--- Expressions ------------------------------------------------------===

  Operand lowerExpr(const Expr &E);
  Operand lowerCall(const CallExpr &E);
  Operand lowerBuiltin(const CallExpr &E);
  /// Lowers a condition, branching to \p TrueBB / \p FalseBB (with
  /// short-circuit AND/OR).
  void lowerCond(const Expr &E, BasicBlock *TrueBB, BasicBlock *FalseBB);

  /// Computes the Place of a designator.
  Place lowerPlace(const Expr &E);
  Operand loadPlace(const Place &P, const Type *Ty);
  void storePlace(const Place &P, Operand Val);
  /// The address of a place, for VAR arguments and WITH.
  VReg addrOfPlace(const Place &P);

  PtrKind kindForType(const Type *Ty) const {
    return Ty && (Ty->isRef() || Ty->isNil()) ? PtrKind::Tidy
                                              : PtrKind::NonPtr;
  }

  //===--- State ------------------------------------------------------------===

  const ModuleAST &M;
  std::unique_ptr<IRModule> Out;
  Function *F = nullptr;
  BasicBlock *Cur = nullptr;
  SourceLoc CurLoc;

  /// Storage binding for every variable symbol in the current function
  /// (plus globals, bound once).
  struct Storage {
    enum class Where { VRegHome, Slot, Global } W = Where::VRegHome;
    VReg R = NoVReg;
    int Slot = -1;
    int GlobalWord = -1;
  };
  std::map<const Symbol *, Storage> Bindings;
  std::map<std::string, int> DescCache;
  std::vector<BasicBlock *> ExitTargets; ///< EXIT destinations, innermost last.
};

//===----------------------------------------------------------------------===//
// Module structure
//===----------------------------------------------------------------------===//

std::unique_ptr<IRModule> Lowerer::run() {
  Out = std::make_unique<IRModule>();
  Out->Name = M.Name;

  layoutGlobals();

  // Create all functions first so calls can reference them by index.
  for (const auto &P : M.Procs) {
    Function *Fn = Out->newFunction(P->Name);
    Fn->HasRet = P->RetTy != nullptr;
    for (const auto &Param : P->Params) {
      ParamInfo PI;
      PI.Name = Param->Name;
      PI.IsVarParam = Param->IsVarParam;
      PI.Kind = Param->IsVarParam ? PtrKind::IncomingAddr
                                  : kindForType(Param->Ty);
      Fn->Params.push_back(PI);
    }
    assert(Fn->Index == P->Index && "function index drift");
  }
  Function *Main = Out->newFunction("@main");
  Out->MainIndex = Main->Index;

  for (const auto &P : M.Procs)
    lowerFunctionBody(Out->Functions[P->Index].get(), P->Body, P->Locals,
                      P.get());
  lowerFunctionBody(Main, M.MainBody, M.MainLocals, nullptr);

  return std::move(Out);
}

void Lowerer::layoutGlobals() {
  unsigned NextWord = 0;
  for (const auto &G : M.Globals) {
    GlobalInfo GI;
    GI.Name = G->Name;
    GI.BaseWord = NextWord;
    GI.SizeWords = G->Ty->sizeInWords();
    G->Ty->collectPointerOffsets(0, GI.PtrOffsets);
    NextWord += GI.SizeWords;
    Storage St;
    St.W = Storage::Where::Global;
    St.GlobalWord = static_cast<int>(GI.BaseWord);
    Bindings[G.get()] = St;
    Out->Globals.push_back(std::move(GI));
  }
  Out->GlobalAreaWords = NextWord;
}

int Lowerer::typeDescFor(const Type *Referent) {
  std::string Key = Referent->str();
  auto It = DescCache.find(Key);
  if (It != DescCache.end())
    return It->second;
  TypeDesc D;
  D.Name = Key;
  if (Referent->isOpenArray()) {
    D.IsOpenArray = true;
    D.SizeWords = 1; // The length word.
    D.ElemSizeWords = Referent->elem()->sizeInWords();
    Referent->elem()->collectPointerOffsets(0, D.ElemPtrOffsets);
  } else {
    D.SizeWords = Referent->sizeInWords();
    Referent->collectPointerOffsets(0, D.PtrOffsets);
  }
  int Index = static_cast<int>(Out->TypeDescs.size());
  Out->TypeDescs.push_back(std::move(D));
  DescCache[Key] = Index;
  return Index;
}

void Lowerer::bindLocal(Symbol *Sym) {
  Storage St;
  if (Sym->NeedsMemory) {
    SlotInfo SI;
    SI.Name = Sym->Name;
    SI.SizeWords = Sym->Ty->sizeInWords();
    Sym->Ty->collectPointerOffsets(0, SI.PtrOffsets);
    SI.IsPtrScalar = Sym->Ty->isScalar() && kindForType(Sym->Ty) == PtrKind::Tidy;
    St.W = Storage::Where::Slot;
    St.Slot = F->newSlot(std::move(SI));
  } else {
    St.W = Storage::Where::VRegHome;
    St.R = F->newVReg(kindForType(Sym->Ty), Sym->Name, /*IsUserVar=*/true);
  }
  Bindings[Sym] = St;
}

void Lowerer::lowerFunctionBody(
    Function *Fn, const StmtList &Body,
    const std::vector<std::unique_ptr<Symbol>> &Locals, const ProcDecl *P) {
  F = Fn;
  Cur = F->newBlock();
  ExitTargets.clear();

  // Parameters occupy vregs 0..N-1.
  if (P) {
    for (const auto &Param : P->Params) {
      VReg R = F->newVReg(Param->IsVarParam ? PtrKind::IncomingAddr
                                            : kindForType(Param->Ty),
                          Param->Name, /*IsUserVar=*/true);
      Storage St;
      St.W = Storage::Where::VRegHome;
      St.R = R;
      Bindings[Param.get()] = St;
      (void)R;
    }
  }

  for (const auto &L : Locals) {
    // WITH aliases are bound when their statement is lowered.
    if (L->SymKind == Symbol::Kind::WithAlias)
      continue;
    bindLocal(L.get());
  }

  lowerBody(Body);

  if (!Cur->hasTerminator()) {
    if (F->HasRet)
      emit(Instr::trap(TrapKind::MissingReturn));
    else
      emit(Instr::ret(Operand()));
  }
  F->removeUnreachableBlocks();
}

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

void Lowerer::lowerBody(const StmtList &Body) {
  for (const auto &S : Body) {
    if (Cur->hasTerminator())
      setBlock(newBlock()); // Unreachable; removed later.
    lowerStmt(*S);
  }
}

void Lowerer::lowerStmt(const Stmt &S) {
  CurLoc = S.Loc;
  switch (S.StmtKind) {
  case Stmt::Kind::Assign: {
    auto &A = static_cast<const AssignStmt &>(S);
    Place P = lowerPlace(*A.Target);
    Operand V = lowerExpr(*A.Value);
    storePlace(P, V);
    return;
  }

  case Stmt::Kind::Call: {
    auto &C = static_cast<const CallStmt &>(S);
    lowerCall(*C.Call);
    return;
  }

  case Stmt::Kind::If: {
    auto &I = static_cast<const IfStmt &>(S);
    BasicBlock *Join = newBlock();
    for (const auto &Arm : I.Arms) {
      BasicBlock *Then = newBlock();
      BasicBlock *Next = newBlock();
      lowerCond(*Arm.Cond, Then, Next);
      setBlock(Then);
      lowerBody(Arm.Body);
      jumpTo(Join);
      setBlock(Next);
    }
    lowerBody(I.Else);
    jumpTo(Join);
    return;
  }

  case Stmt::Kind::While: {
    auto &W = static_cast<const WhileStmt &>(S);
    BasicBlock *Header = newBlock();
    BasicBlock *BodyBB = newBlock();
    BasicBlock *Exit = newBlock();
    jumpTo(Header);
    lowerCond(*W.Cond, BodyBB, Exit);
    setBlock(BodyBB);
    ExitTargets.push_back(Exit);
    lowerBody(W.Body);
    ExitTargets.pop_back();
    jumpTo(Header);
    setBlock(Exit);
    return;
  }

  case Stmt::Kind::Repeat: {
    auto &R = static_cast<const RepeatStmt &>(S);
    BasicBlock *BodyBB = newBlock();
    BasicBlock *Exit = newBlock();
    jumpTo(BodyBB);
    ExitTargets.push_back(Exit);
    lowerBody(R.Body);
    ExitTargets.pop_back();
    if (!Cur->hasTerminator())
      lowerCond(*R.Cond, Exit, BodyBB);
    setBlock(Exit);
    return;
  }

  case Stmt::Kind::Loop: {
    auto &L = static_cast<const LoopStmt &>(S);
    BasicBlock *BodyBB = newBlock();
    BasicBlock *Exit = newBlock();
    jumpTo(BodyBB);
    ExitTargets.push_back(Exit);
    lowerBody(L.Body);
    ExitTargets.pop_back();
    jumpTo(BodyBB); // Back edge; EXIT leaves the loop.
    setBlock(Exit);
    return;
  }

  case Stmt::Kind::Exit: {
    assert(!ExitTargets.empty() && "EXIT outside loop survived Sema");
    emit(Instr::jump(ExitTargets.back()->Id));
    return;
  }

  case Stmt::Kind::For: {
    auto &FS = static_cast<const ForStmt &>(S);
    // Bind the index variable.
    bindLocal(FS.IndexSym);
    const Storage &St = Bindings[FS.IndexSym];

    Operand From = lowerExpr(*FS.From);
    Operand To = lowerExpr(*FS.To);
    // Evaluate the bound once.
    VReg Limit = toVReg(To, PtrKind::NonPtr);

    auto LoadIndex = [&]() -> VReg {
      if (St.W == Storage::Where::VRegHome)
        return St.R;
      VReg R = temp(PtrKind::NonPtr);
      emit(Instr::loadSlot(R, St.Slot));
      return R;
    };
    auto StoreIndex = [&](Operand V) {
      if (St.W == Storage::Where::VRegHome)
        emit(Instr::mov(St.R, V));
      else
        emit(Instr::storeSlot(St.Slot, V));
    };

    StoreIndex(From);
    BasicBlock *Header = newBlock();
    BasicBlock *BodyBB = newBlock();
    BasicBlock *Exit = newBlock();
    jumpTo(Header);
    VReg Idx = LoadIndex();
    VReg Cond = temp(PtrKind::NonPtr);
    emit(Instr::bin(FS.By > 0 ? Opcode::CmpLe : Opcode::CmpGe, Cond,
                    Operand::reg(Idx), Operand::reg(Limit)));
    emit(Instr::branch(Cond, BodyBB->Id, Exit->Id));
    setBlock(BodyBB);
    ExitTargets.push_back(Exit);
    lowerBody(FS.Body);
    ExitTargets.pop_back();
    if (!Cur->hasTerminator()) {
      if (St.W == Storage::Where::VRegHome) {
        // Self-update form (i := i + by), the shape the strength-reduction
        // pass recognizes as a basic induction variable.
        emit(Instr::bin(Opcode::Add, St.R, Operand::reg(St.R),
                        Operand::imm(FS.By)));
      } else {
        VReg Idx2 = LoadIndex();
        VReg Next = temp(PtrKind::NonPtr);
        emit(Instr::bin(Opcode::Add, Next, Operand::reg(Idx2),
                        Operand::imm(FS.By)));
        StoreIndex(Operand::reg(Next));
      }
      emit(Instr::jump(Header->Id));
    }
    setBlock(Exit);
    return;
  }

  case Stmt::Kind::Return: {
    auto &R = static_cast<const ReturnStmt &>(S);
    Operand V = R.Value ? lowerExpr(*R.Value) : Operand();
    emit(Instr::ret(V));
    return;
  }

  case Stmt::Kind::With: {
    auto &W = static_cast<const WithStmt &>(S);
    Place Target = lowerPlace(*W.Target);
    VReg Addr = addrOfPlace(Target);
    Storage St;
    St.W = Storage::Where::VRegHome;
    St.R = Addr;
    Bindings[W.AliasSym] = St;
    lowerBody(W.Body);
    return;
  }

  case Stmt::Kind::IncDec: {
    auto &I = static_cast<const IncDecStmt &>(S);
    Place P = lowerPlace(*I.Target);
    Operand Amount = I.Amount ? lowerExpr(*I.Amount) : Operand::imm(1);
    Operand Old = loadPlace(P, I.Target->Ty);
    VReg New = temp(PtrKind::NonPtr);
    emit(Instr::bin(I.IsInc ? Opcode::Add : Opcode::Sub, New, Old, Amount));
    storePlace(P, Operand::reg(New));
    return;
  }
  }
}

//===----------------------------------------------------------------------===//
// Places
//===----------------------------------------------------------------------===//

Place Lowerer::lowerPlace(const Expr &E) {
  switch (E.ExprKind) {
  case Expr::Kind::Name: {
    auto &N = static_cast<const NameExpr &>(E);
    const Symbol *Sym = N.Sym;
    assert(Sym && "unresolved name survived Sema");
    if (Sym->SymKind == Symbol::Kind::WithAlias) {
      const Storage &St = Bindings[Sym];
      return Place::indirect(St.R, 0);
    }
    const Storage &St = Bindings[Sym];
    switch (St.W) {
    case Storage::Where::VRegHome:
      if (Sym->SymKind == Symbol::Kind::Param && Sym->IsVarParam)
        return Place::indirect(St.R, 0);
      return Place::vreg(St.R);
    case Storage::Where::Slot:
      if (Sym->Ty->isScalar())
        return Place::slot(St.Slot);
      else {
        VReg Addr = temp(PtrKind::FrameAddr);
        emit(Instr::addrSlot(Addr, St.Slot, 0));
        return Place::indirect(Addr, 0);
      }
    case Storage::Where::Global:
      if (Sym->Ty->isScalar())
        return Place::global(St.GlobalWord);
      else {
        VReg Addr = temp(PtrKind::FrameAddr);
        emit(Instr::addrGlobal(Addr, St.GlobalWord, 0));
        return Place::indirect(Addr, 0);
      }
    }
    return Place::vreg(St.R);
  }

  case Expr::Kind::Deref: {
    auto &D = static_cast<const DerefExpr &>(E);
    Operand Ref = lowerExpr(*D.Base);
    VReg R = toVReg(Ref, PtrKind::Tidy);
    int64_t Disp = HeaderBytes;
    if (D.Base->Ty->elem()->isOpenArray())
      Disp += OpenLenBytes;
    return Place::indirect(R, Disp);
  }

  case Expr::Kind::Field: {
    auto &FE = static_cast<const FieldExpr &>(E);
    int64_t FieldOff =
        static_cast<int64_t>(FE.Field->OffsetWords) * WordSize;
    if (FE.BaseIsRef) {
      Operand Ref = lowerExpr(*FE.Base);
      VReg R = toVReg(Ref, PtrKind::Tidy);
      return Place::indirect(R, HeaderBytes + FieldOff);
    }
    Place Base = lowerPlace(*FE.Base);
    assert(Base.K == Place::Kind::Indirect && "aggregate base not indirect");
    Base.Disp += FieldOff;
    return Base;
  }

  case Expr::Kind::Index: {
    auto &IE = static_cast<const IndexExpr &>(E);
    const Type *ArrTy = IE.Base->Ty;
    VReg BaseAddr;
    int64_t BaseDisp = 0;
    if (IE.BaseIsRef) {
      ArrTy = ArrTy->elem();
      Operand Ref = lowerExpr(*IE.Base);
      BaseAddr = toVReg(Ref, PtrKind::Tidy);
      BaseDisp = HeaderBytes + (ArrTy->isOpenArray() ? OpenLenBytes : 0);
    } else {
      Place Base = lowerPlace(*IE.Base);
      assert(Base.K == Place::Kind::Indirect && "array base not indirect");
      BaseAddr = Base.R;
      BaseDisp = Base.Disp;
    }
    unsigned Stride = ArrTy->elem()->sizeInWords() * WordSize;
    int64_t Lo = ArrTy->isOpenArray() ? 0 : ArrTy->lo();

    Operand Idx = lowerExpr(*IE.Index);
    if (Idx.isImm()) {
      // Constant index: fold into the displacement.  Sema keeps it within
      // a fixed array's bounds; an open array's may be any INTEGER.
      BaseDisp = support::wrapAdd(
          BaseDisp, support::wrapMul(support::wrapSub(Idx.Imm, Lo), Stride));
      return Place::indirect(BaseAddr, BaseDisp);
    }
    // addr = base + (i - lo) * stride   (the "obvious method" of §2; the
    // virtual-array-origin optimization rewrites this later).
    VReg Rel = Idx.R;
    if (Lo != 0) {
      Rel = temp(PtrKind::NonPtr);
      emit(Instr::bin(Opcode::Sub, Rel, Idx, Operand::imm(Lo)));
    }
    VReg Off = temp(PtrKind::NonPtr);
    emit(Instr::bin(Opcode::Mul, Off, Operand::reg(Rel),
                    Operand::imm(Stride)));
    VReg Addr = emitAddrAdd(BaseAddr, Operand::reg(Off));
    return Place::indirect(Addr, BaseDisp);
  }

  default:
    assert(false && "not a designator");
    return Place::vreg(NoVReg);
  }
}

Operand Lowerer::loadPlace(const Place &P, const Type *Ty) {
  PtrKind K = kindForType(Ty);
  switch (P.K) {
  case Place::Kind::VRegDirect:
    return Operand::reg(P.R);
  case Place::Kind::SlotDirect: {
    VReg R = temp(K);
    emit(Instr::loadSlot(R, P.Slot));
    return Operand::reg(R);
  }
  case Place::Kind::GlobalDirect: {
    VReg R = temp(K);
    emit(Instr::loadGlobal(R, P.GlobalWord));
    return Operand::reg(R);
  }
  case Place::Kind::Indirect: {
    VReg R = temp(K);
    emit(Instr::load(R, P.R, P.Disp));
    return Operand::reg(R);
  }
  }
  return Operand();
}

void Lowerer::storePlace(const Place &P, Operand Val) {
  switch (P.K) {
  case Place::Kind::VRegDirect:
    emit(Instr::mov(P.R, Val));
    return;
  case Place::Kind::SlotDirect:
    emit(Instr::storeSlot(P.Slot, Val));
    return;
  case Place::Kind::GlobalDirect:
    emit(Instr::storeGlobal(P.GlobalWord, Val));
    return;
  case Place::Kind::Indirect:
    emit(Instr::store(P.R, P.Disp, Val));
    return;
  }
}

VReg Lowerer::addrOfPlace(const Place &P) {
  switch (P.K) {
  case Place::Kind::SlotDirect: {
    VReg R = temp(PtrKind::FrameAddr);
    emit(Instr::addrSlot(R, P.Slot, 0));
    return R;
  }
  case Place::Kind::GlobalDirect: {
    VReg R = temp(PtrKind::FrameAddr);
    emit(Instr::addrGlobal(R, P.GlobalWord, 0));
    return R;
  }
  case Place::Kind::Indirect:
    if (P.Disp == 0)
      return P.R;
    return emitAddrAdd(P.R, Operand::imm(P.Disp));
  case Place::Kind::VRegDirect:
    assert(false && "address of a register value (Sema should have "
                    "forced it into memory)");
    return NoVReg;
  }
  return NoVReg;
}

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

void Lowerer::lowerCond(const Expr &E, BasicBlock *TrueBB,
                        BasicBlock *FalseBB) {
  if (E.ExprKind == Expr::Kind::Binary) {
    auto &B = static_cast<const BinaryExpr &>(E);
    if (B.Op == BinOp::And) {
      BasicBlock *Mid = newBlock();
      lowerCond(*B.LHS, Mid, FalseBB);
      setBlock(Mid);
      lowerCond(*B.RHS, TrueBB, FalseBB);
      return;
    }
    if (B.Op == BinOp::Or) {
      BasicBlock *Mid = newBlock();
      lowerCond(*B.LHS, TrueBB, Mid);
      setBlock(Mid);
      lowerCond(*B.RHS, TrueBB, FalseBB);
      return;
    }
  }
  if (E.ExprKind == Expr::Kind::Unary) {
    auto &U = static_cast<const UnaryExpr &>(E);
    if (U.Op == UnOp::Not) {
      lowerCond(*U.Sub, FalseBB, TrueBB);
      return;
    }
  }
  Operand C = lowerExpr(E);
  VReg R = toVReg(C, PtrKind::NonPtr);
  emit(Instr::branch(R, TrueBB->Id, FalseBB->Id));
}

Operand Lowerer::lowerExpr(const Expr &E) {
  CurLoc = E.Loc.isValid() ? E.Loc : CurLoc;
  switch (E.ExprKind) {
  case Expr::Kind::IntLit:
    return Operand::imm(static_cast<const IntLitExpr &>(E).Value);
  case Expr::Kind::BoolLit:
    return Operand::imm(static_cast<const BoolLitExpr &>(E).Value ? 1 : 0);
  case Expr::Kind::NilLit:
    return Operand::imm(0);

  case Expr::Kind::StrLit: {
    // Allocate an open INTEGER array and fill in the character codes.
    auto &S = static_cast<const StrLitExpr &>(E);
    int Desc = typeDescFor(E.Ty->elem());
    Instr NewI;
    NewI.Op = Opcode::NewArray;
    NewI.Dst = temp(PtrKind::Tidy);
    NewI.Index = Desc;
    NewI.A = Operand::imm(static_cast<int64_t>(S.Value.size()));
    VReg Str = NewI.Dst;
    emit(std::move(NewI));
    for (size_t I = 0; I != S.Value.size(); ++I)
      emit(Instr::store(Str,
                        HeaderBytes + OpenLenBytes +
                            static_cast<int64_t>(I) * WordSize,
                        Operand::imm(static_cast<unsigned char>(S.Value[I]))));
    return Operand::reg(Str);
  }

  case Expr::Kind::Name: {
    auto &N = static_cast<const NameExpr &>(E);
    if (N.Sym->SymKind == Symbol::Kind::Constant)
      return Operand::imm(N.Sym->ConstValue);
    Place P = lowerPlace(E);
    return loadPlace(P, E.Ty);
  }

  case Expr::Kind::Binary: {
    auto &B = static_cast<const BinaryExpr &>(E);
    if (B.Op == BinOp::And || B.Op == BinOp::Or) {
      // Short-circuit via control flow into a result vreg.
      VReg R = temp(PtrKind::NonPtr);
      BasicBlock *TrueBB = newBlock();
      BasicBlock *FalseBB = newBlock();
      BasicBlock *Join = newBlock();
      lowerCond(E, TrueBB, FalseBB);
      setBlock(TrueBB);
      emit(Instr::mov(R, Operand::imm(1)));
      emit(Instr::jump(Join->Id));
      setBlock(FalseBB);
      emit(Instr::mov(R, Operand::imm(0)));
      emit(Instr::jump(Join->Id));
      setBlock(Join);
      return Operand::reg(R);
    }
    Operand L = lowerExpr(*B.LHS);
    Operand R = lowerExpr(*B.RHS);
    Opcode Op;
    switch (B.Op) {
    case BinOp::Add: Op = Opcode::Add; break;
    case BinOp::Sub: Op = Opcode::Sub; break;
    case BinOp::Mul: Op = Opcode::Mul; break;
    case BinOp::Div: Op = Opcode::Div; break;
    case BinOp::Mod: Op = Opcode::Mod; break;
    case BinOp::Eq: Op = Opcode::CmpEq; break;
    case BinOp::Ne: Op = Opcode::CmpNe; break;
    case BinOp::Lt: Op = Opcode::CmpLt; break;
    case BinOp::Le: Op = Opcode::CmpLe; break;
    case BinOp::Gt: Op = Opcode::CmpGt; break;
    case BinOp::Ge: Op = Opcode::CmpGe; break;
    default: Op = Opcode::Add; break;
    }
    VReg Dst = temp(PtrKind::NonPtr);
    emit(Instr::bin(Op, Dst, L, R));
    return Operand::reg(Dst);
  }

  case Expr::Kind::Unary: {
    auto &U = static_cast<const UnaryExpr &>(E);
    Operand S = lowerExpr(*U.Sub);
    VReg Dst = temp(PtrKind::NonPtr);
    emit(Instr::un(U.Op == UnOp::Neg ? Opcode::Neg : Opcode::Not, Dst, S));
    return Operand::reg(Dst);
  }

  case Expr::Kind::Index:
  case Expr::Kind::Field:
  case Expr::Kind::Deref: {
    Place P = lowerPlace(E);
    return loadPlace(P, E.Ty);
  }

  case Expr::Kind::Call:
    return lowerCall(static_cast<const CallExpr &>(E));
  }
  return Operand();
}

Operand Lowerer::lowerCall(const CallExpr &E) {
  if (E.BuiltinKind != Builtin::None)
    return lowerBuiltin(E);

  const ProcDecl *P = E.Proc;
  std::vector<Operand> Args;
  for (size_t I = 0, N = E.Args.size(); I != N; ++I) {
    if (P->Params[I]->IsVarParam) {
      Place Pl = lowerPlace(*E.Args[I]);
      Args.push_back(Operand::reg(addrOfPlace(Pl)));
    } else {
      Args.push_back(lowerExpr(*E.Args[I]));
    }
  }
  Instr I;
  I.Op = Opcode::Call;
  I.Index = static_cast<int>(P->Index);
  I.Args = std::move(Args);
  if (P->RetTy)
    I.Dst = temp(kindForType(P->RetTy));
  VReg Dst = I.Dst;
  emit(std::move(I));
  return Dst == NoVReg ? Operand() : Operand::reg(Dst);
}

Operand Lowerer::lowerBuiltin(const CallExpr &E) {
  switch (E.BuiltinKind) {
  case Builtin::New: {
    int Desc = typeDescFor(E.AllocType);
    Instr I;
    I.Dst = temp(PtrKind::Tidy);
    I.Index = Desc;
    if (E.AllocType->isOpenArray()) {
      I.Op = Opcode::NewArray;
      Operand Len = lowerExpr(*E.Args[1]);
      I.A = Len;
    } else {
      I.Op = Opcode::New;
    }
    VReg Dst = I.Dst;
    emit(std::move(I));
    return Operand::reg(Dst);
  }

  case Builtin::Number:
  case Builtin::First:
  case Builtin::Last: {
    const Expr &Arg = *E.Args[0];
    const Type *AT = Arg.Ty;
    bool ViaRef = AT->isRef();
    if (ViaRef)
      AT = AT->elem();
    if (AT->isArray()) {
      // Compile-time constants for fixed arrays.
      int64_t V = E.BuiltinKind == Builtin::Number ? AT->length()
                  : E.BuiltinKind == Builtin::First ? AT->lo()
                                                    : AT->hi();
      return Operand::imm(V);
    }
    // Open array: length stored in the word after the header, read
    // through the reference: `v` itself, or the `v` of `v^` (open arrays
    // exist only under REF, so any other argument is a dereference).
    if (E.BuiltinKind == Builtin::First)
      return Operand::imm(0);
    assert(ViaRef || Arg.ExprKind == Expr::Kind::Deref);
    Operand Ref = lowerExpr(ViaRef ? Arg
                                   : *static_cast<const DerefExpr &>(Arg).Base);
    VReg R = toVReg(Ref, PtrKind::Tidy);
    VReg Len = temp(PtrKind::NonPtr);
    emit(Instr::load(Len, R, HeaderBytes));
    if (E.BuiltinKind == Builtin::Number)
      return Operand::reg(Len);
    VReg Last = temp(PtrKind::NonPtr);
    emit(Instr::bin(Opcode::Sub, Last, Operand::reg(Len), Operand::imm(1)));
    return Operand::reg(Last);
  }

  case Builtin::Abs: {
    Operand V = lowerExpr(*E.Args[0]);
    VReg R = toVReg(V, PtrKind::NonPtr);
    VReg Res = temp(PtrKind::NonPtr);
    BasicBlock *NegBB = newBlock();
    BasicBlock *PosBB = newBlock();
    BasicBlock *Join = newBlock();
    VReg C = temp(PtrKind::NonPtr);
    emit(Instr::bin(Opcode::CmpLt, C, Operand::reg(R), Operand::imm(0)));
    emit(Instr::branch(C, NegBB->Id, PosBB->Id));
    setBlock(NegBB);
    emit(Instr::un(Opcode::Neg, Res, Operand::reg(R)));
    emit(Instr::jump(Join->Id));
    setBlock(PosBB);
    emit(Instr::mov(Res, Operand::reg(R)));
    emit(Instr::jump(Join->Id));
    setBlock(Join);
    return Operand::reg(Res);
  }

  case Builtin::PutInt:
  case Builtin::PutChar: {
    Operand V = lowerExpr(*E.Args[0]);
    Instr I;
    I.Op = Opcode::CallRt;
    I.Rt = E.BuiltinKind == Builtin::PutInt ? RtFn::PutInt : RtFn::PutChar;
    I.Args.push_back(V);
    emit(std::move(I));
    return Operand();
  }

  case Builtin::PutLn:
  case Builtin::GcCollect:
  case Builtin::Halt:
  case Builtin::ReqDone: {
    Instr I;
    I.Op = Opcode::CallRt;
    I.Rt = E.BuiltinKind == Builtin::PutLn      ? RtFn::PutLn
           : E.BuiltinKind == Builtin::GcCollect ? RtFn::GcCollect
           : E.BuiltinKind == Builtin::ReqDone   ? RtFn::ReqDone
                                                 : RtFn::Halt;
    emit(std::move(I));
    return Operand();
  }

  case Builtin::None:
    break;
  }
  return Operand();
}

} // namespace

std::unique_ptr<ir::IRModule> mgc::lowerModule(const ModuleAST &Module) {
  Lowerer L(Module);
  return L.run();
}
