//===- frontend/Type.h - MG semantic types ----------------------*- C++ -*-===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Semantic types for MG, the statically typed Modula-3 subset this project
/// compiles.  The compile-time knowledge the paper exploits lives here: for
/// any type we can compute its size in words and the word offsets of every
/// contained pointer, which drives both the heap type descriptors and the
/// ground tables for frame-allocated aggregates.
///
//===----------------------------------------------------------------------===//

#ifndef MGC_FRONTEND_TYPE_H
#define MGC_FRONTEND_TYPE_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace mgc {

class Type;

/// The largest size of a type, in words: a byte offset within a frame, a
/// record or an array must fit the gc tables' packed 32-bit words.
constexpr uint64_t MaxTypeWords = uint64_t(1) << 28;

/// A named field of a record type.
struct RecordField {
  std::string Name;
  const Type *Ty = nullptr;
  /// Word offset within the record, computed on creation.
  unsigned OffsetWords = 0;
};

/// An MG type.  Types are immutable once created and owned by a TypeContext.
/// Named declarations are aliases; identity is structural (see
/// structurallyEqual), mirroring Modula-3's structural equivalence.
class Type {
public:
  enum class Kind {
    Integer,
    Boolean,
    Nil,       ///< The type of the NIL literal; assignable to any REF.
    Ref,       ///< REF T, a tidy pointer to a heap object.
    Array,     ///< ARRAY [Lo..Hi] OF Elem, inline storage.
    OpenArray, ///< ARRAY OF Elem; only permitted under REF.
    Record,    ///< RECORD fields END, inline storage.
  };

  Kind kind() const { return TheKind; }
  bool isInteger() const { return TheKind == Kind::Integer; }
  bool isBoolean() const { return TheKind == Kind::Boolean; }
  bool isNil() const { return TheKind == Kind::Nil; }
  bool isRef() const { return TheKind == Kind::Ref; }
  bool isArray() const { return TheKind == Kind::Array; }
  bool isOpenArray() const { return TheKind == Kind::OpenArray; }
  bool isRecord() const { return TheKind == Kind::Record; }
  /// True for the word-sized types a vreg can hold.
  bool isScalar() const {
    return TheKind == Kind::Integer || TheKind == Kind::Boolean ||
           TheKind == Kind::Ref || TheKind == Kind::Nil;
  }

  /// REF and ARRAY element type; Record has none.
  const Type *elem() const { return Elem; }
  /// Array bounds (fixed arrays only).
  int64_t lo() const { return Lo; }
  int64_t hi() const { return Hi; }
  int64_t length() const { return Hi - Lo + 1; }

  const std::vector<RecordField> &fields() const { return Fields; }
  const RecordField *findField(const std::string &Name) const;

  /// Size of an inline value of this type, in words.  Open arrays have no
  /// inline size (they exist only on the heap); asking is a programming
  /// error.
  unsigned sizeInWords() const;

  /// Appends the word offsets (relative to \p Base) of every pointer
  /// contained in an inline value of this type.
  void collectPointerOffsets(unsigned Base, std::vector<unsigned> &Out) const;

  /// Structural equivalence with cycle tolerance (the algorithm typereg
  /// implements in MG as well).
  static bool structurallyEqual(const Type *A, const Type *B);

  /// Whether a value of type \p Src may be assigned to a location of type
  /// \p Dst (equality, or NIL into any REF).
  static bool assignable(const Type *Dst, const Type *Src);

  std::string str() const;

private:
  friend class TypeContext;
  explicit Type(Kind K) : TheKind(K) {}

  Kind TheKind;
  const Type *Elem = nullptr;
  int64_t Lo = 0, Hi = -1;
  std::vector<RecordField> Fields;
};

/// Owns every Type of a compilation and hands out the builtin singletons.
class TypeContext {
public:
  TypeContext();

  const Type *integerType() const { return IntegerTy; }
  const Type *booleanType() const { return BooleanTy; }
  const Type *nilType() const { return NilTy; }

  const Type *getRef(const Type *Elem);
  const Type *getArray(int64_t Lo, int64_t Hi, const Type *Elem);
  const Type *getOpenArray(const Type *Elem);
  /// Creates a record type; field offsets are computed here.
  const Type *getRecord(std::vector<RecordField> Fields);

  /// Creates an empty record whose fields are filled in later, enabling
  /// recursive types (REF to a record under construction).  The caller must
  /// invoke completeRecord exactly once.
  Type *beginRecord();
  void completeRecord(Type *Rec, std::vector<RecordField> Fields);

  /// Same two-step protocol for REF shells, so mutually recursive named
  /// types (`List = REF ListRec; ListRec = RECORD ... next: List ... END`)
  /// can be resolved.
  Type *beginRef();
  void completeRef(Type *Ref, const Type *Elem);

private:
  Type *create(Type::Kind K);

  std::vector<std::unique_ptr<Type>> Owned;
  const Type *IntegerTy;
  const Type *BooleanTy;
  const Type *NilTy;
};

} // namespace mgc

#endif // MGC_FRONTEND_TYPE_H
