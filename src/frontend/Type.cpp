//===- frontend/Type.cpp --------------------------------------------------===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//

#include "frontend/Type.h"

#include <cassert>
#include <set>

using namespace mgc;

const RecordField *Type::findField(const std::string &Name) const {
  assert(isRecord() && "findField on non-record");
  for (const RecordField &F : Fields)
    if (F.Name == Name)
      return &F;
  return nullptr;
}

unsigned Type::sizeInWords() const {
  switch (TheKind) {
  case Kind::Integer:
  case Kind::Boolean:
  case Kind::Nil:
  case Kind::Ref:
    return 1;
  case Kind::Array:
    return static_cast<unsigned>(length()) * Elem->sizeInWords();
  case Kind::Record: {
    unsigned Size = 0;
    for (const RecordField &F : Fields)
      Size += F.Ty->sizeInWords();
    return Size;
  }
  case Kind::OpenArray:
    assert(false && "open arrays have no inline size");
    return 0;
  }
  return 0;
}

void Type::collectPointerOffsets(unsigned Base,
                                 std::vector<unsigned> &Out) const {
  switch (TheKind) {
  case Kind::Integer:
  case Kind::Boolean:
    return;
  case Kind::Nil:
  case Kind::Ref:
    Out.push_back(Base);
    return;
  case Kind::Array: {
    // The first element's offsets, repeated for the others; an element
    // without pointers leaves nothing to repeat, however long the array.
    if (length() < 1)
      return;
    size_t First = Out.size();
    Elem->collectPointerOffsets(Base, Out);
    size_t Last = Out.size();
    unsigned Stride = Elem->sizeInWords();
    for (int64_t I = 1; First != Last && I != length(); ++I)
      for (size_t K = First; K != Last; ++K)
        Out.push_back(Out[K] + static_cast<unsigned>(I) * Stride);
    return;
  }
  case Kind::Record:
    for (const RecordField &F : Fields)
      F.Ty->collectPointerOffsets(Base + F.OffsetWords, Out);
    return;
  case Kind::OpenArray:
    assert(false && "open arrays have no inline pointer layout");
    return;
  }
}

namespace {
/// Pairs assumed equal during the structural comparison, to terminate on
/// cyclic types.
using AssumptionSet = std::set<std::pair<const Type *, const Type *>>;

bool equalRec(const Type *A, const Type *B, AssumptionSet &Assumed) {
  if (A == B)
    return true;
  if (A->kind() != B->kind())
    return false;
  auto Key = std::make_pair(A, B);
  if (Assumed.count(Key))
    return true;
  Assumed.insert(Key);
  switch (A->kind()) {
  case Type::Kind::Integer:
  case Type::Kind::Boolean:
  case Type::Kind::Nil:
    return true;
  case Type::Kind::Ref:
  case Type::Kind::OpenArray:
    return equalRec(A->elem(), B->elem(), Assumed);
  case Type::Kind::Array:
    return A->lo() == B->lo() && A->hi() == B->hi() &&
           equalRec(A->elem(), B->elem(), Assumed);
  case Type::Kind::Record: {
    if (A->fields().size() != B->fields().size())
      return false;
    for (size_t I = 0, E = A->fields().size(); I != E; ++I) {
      const RecordField &FA = A->fields()[I];
      const RecordField &FB = B->fields()[I];
      if (FA.Name != FB.Name || !equalRec(FA.Ty, FB.Ty, Assumed))
        return false;
    }
    return true;
  }
  }
  return false;
}
} // namespace

bool Type::structurallyEqual(const Type *A, const Type *B) {
  AssumptionSet Assumed;
  return equalRec(A, B, Assumed);
}

bool Type::assignable(const Type *Dst, const Type *Src) {
  if (Src->isNil())
    return Dst->isRef() || Dst->isNil();
  return structurallyEqual(Dst, Src);
}

namespace {
std::string strImpl(const Type *T, std::set<const Type *> &InProgress) {
  // Recursive types (cycles through REF) print a back-reference marker.
  if (InProgress.count(T))
    return "<rec>";
  InProgress.insert(T);
  std::string S;
  switch (T->kind()) {
  case Type::Kind::Integer:
    S = "INTEGER";
    break;
  case Type::Kind::Boolean:
    S = "BOOLEAN";
    break;
  case Type::Kind::Nil:
    S = "NIL";
    break;
  case Type::Kind::Ref:
    S = "REF " + strImpl(T->elem(), InProgress);
    break;
  case Type::Kind::Array:
    S = "ARRAY [" + std::to_string(T->lo()) + ".." +
        std::to_string(T->hi()) + "] OF " + strImpl(T->elem(), InProgress);
    break;
  case Type::Kind::OpenArray:
    S = "ARRAY OF " + strImpl(T->elem(), InProgress);
    break;
  case Type::Kind::Record: {
    S = "RECORD ";
    for (const RecordField &F : T->fields())
      S += F.Name + ": " + (F.Ty ? strImpl(F.Ty, InProgress) : "?") + "; ";
    S += "END";
    break;
  }
  }
  InProgress.erase(T);
  return S;
}
} // namespace

std::string Type::str() const {
  std::set<const Type *> InProgress;
  return strImpl(this, InProgress);
}

TypeContext::TypeContext() {
  IntegerTy = create(Type::Kind::Integer);
  BooleanTy = create(Type::Kind::Boolean);
  NilTy = create(Type::Kind::Nil);
}

Type *TypeContext::create(Type::Kind K) {
  Owned.push_back(std::unique_ptr<Type>(new Type(K)));
  return Owned.back().get();
}

const Type *TypeContext::getRef(const Type *Elem) {
  Type *T = create(Type::Kind::Ref);
  T->Elem = Elem;
  return T;
}

const Type *TypeContext::getArray(int64_t Lo, int64_t Hi, const Type *Elem) {
  assert(Hi >= Lo && "empty array type");
  Type *T = create(Type::Kind::Array);
  T->Lo = Lo;
  T->Hi = Hi;
  T->Elem = Elem;
  return T;
}

const Type *TypeContext::getOpenArray(const Type *Elem) {
  Type *T = create(Type::Kind::OpenArray);
  T->Elem = Elem;
  return T;
}

const Type *TypeContext::getRecord(std::vector<RecordField> Fields) {
  Type *T = beginRecord();
  completeRecord(T, std::move(Fields));
  return T;
}

Type *TypeContext::beginRecord() { return create(Type::Kind::Record); }

Type *TypeContext::beginRef() { return create(Type::Kind::Ref); }

void TypeContext::completeRef(Type *Ref, const Type *Elem) {
  assert(Ref->isRef() && !Ref->Elem && "ref already complete");
  Ref->Elem = Elem;
}

void TypeContext::completeRecord(Type *Rec, std::vector<RecordField> Fields) {
  assert(Rec->isRecord() && Rec->Fields.empty() && "record already complete");
  unsigned Offset = 0;
  for (RecordField &F : Fields) {
    F.OffsetWords = Offset;
    Offset += F.Ty->sizeInWords();
  }
  Rec->Fields = std::move(Fields);
}
