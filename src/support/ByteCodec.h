//===- support/ByteCodec.h - Byte-packed word encoding ----------*- C++ -*-===//
//
// Part of the mgc project: a reproduction of Diwan, Moss & Hudson,
// "Compiler Support for Garbage Collection in a Statically Typed Language"
// (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The byte-packing scheme of Figure 3 of the paper.  GC tables are first
/// produced as tables of 32-bit words; a second phase packs each word into a
/// minimal sequence of bytes.  Every byte carries 7 payload bits; the high
/// bit of a byte is set when another byte of the same word follows (a
/// "continuation" bit).  Bytes are stored most-significant first and the
/// first byte is sign-extended, since many frame offsets are negative.
///
//===----------------------------------------------------------------------===//

#ifndef MGC_SUPPORT_BYTECODEC_H
#define MGC_SUPPORT_BYTECODEC_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

namespace mgc {

/// Returns the number of bytes the packed encoding of \p Word occupies
/// (between 1 and 5 for 32-bit words).
unsigned packedSize(int32_t Word);

/// Appends the packed encoding of \p Word to \p Out.
void appendPacked(std::vector<uint8_t> &Out, int32_t Word);

/// Reads one packed word starting at \p Pos in \p Data, advancing \p Pos
/// past it.  The caller must guarantee a complete encoding is present.
int32_t readPacked(const uint8_t *Data, size_t Size, size_t &Pos);

/// A convenience writer that accumulates byte-packed words.  Used by the gc
/// table emitters; the "plain" (unpacked) emitters write raw 32-bit words
/// through appendWord32 instead.
class PackedWriter {
public:
  void writePacked(int32_t Word) { appendPacked(Bytes, Word); }

  /// Writes a raw little-endian 32-bit word (the phase-one "table of words"
  /// representation).
  void writeWord32(int32_t Word) {
    uint32_t U = static_cast<uint32_t>(Word);
    Bytes.push_back(static_cast<uint8_t>(U & 0xff));
    Bytes.push_back(static_cast<uint8_t>((U >> 8) & 0xff));
    Bytes.push_back(static_cast<uint8_t>((U >> 16) & 0xff));
    Bytes.push_back(static_cast<uint8_t>((U >> 24) & 0xff));
  }

  void writeByte(uint8_t B) { Bytes.push_back(B); }

  size_t size() const { return Bytes.size(); }
  const std::vector<uint8_t> &bytes() const { return Bytes; }
  std::vector<uint8_t> takeBytes() { return std::move(Bytes); }

private:
  std::vector<uint8_t> Bytes;
};

//===----------------------------------------------------------------------===//
// Untrusted-input helpers (binary artifact files)
//===----------------------------------------------------------------------===//
//
// The persistent artifact codecs (heap snapshots, profiles) reuse the
// Figure-3 packing but face untrusted files, so they layer unsigned/64-bit/
// string conveniences over appendPacked and decode through a bounds-checked
// reader that fails cleanly where readPacked would assert.

/// Appends \p V packed as a 32-bit word (values >= 2^31 round-trip through
/// the signed packing unchanged).
inline void appendPackedU32(std::vector<uint8_t> &Out, uint32_t V) {
  appendPacked(Out, static_cast<int32_t>(V));
}

/// Appends \p V as two packed 32-bit words, low half first.
inline void appendPackedU64(std::vector<uint8_t> &Out, uint64_t V) {
  appendPackedU32(Out, static_cast<uint32_t>(V));
  appendPackedU32(Out, static_cast<uint32_t>(V >> 32));
}

/// Appends a packed length followed by the raw bytes.
template <typename StringT>
inline void appendPackedStr(std::vector<uint8_t> &Out, const StringT &S) {
  appendPackedU32(Out, static_cast<uint32_t>(S.size()));
  Out.insert(Out.end(), S.begin(), S.end());
}

/// Writes \p Bytes to the file \p Path, replacing it.  On failure sets \p Err
/// to "cannot open 'Path' for writing" or "write to 'Path' failed".
bool writeByteFile(const std::string &Path, const std::vector<uint8_t> &Bytes,
                   std::string &Err);

/// Reads the whole file \p Path into \p Bytes.  On failure sets \p Err to
/// "cannot open 'Path'".
bool readByteFile(const std::string &Path, std::vector<uint8_t> &Bytes,
                  std::string &Err);

/// Bounds-checked varint reader: readPacked asserts on truncation, but a
/// decoder facing untrusted files must fail cleanly instead.  Once any
/// read fails, every subsequent read reports failure and returns zero.
/// ByteReader (below) reads field lists through it.
class SafeReader {
public:
  explicit SafeReader(const std::vector<uint8_t> &B) : B(B) {}

  bool failed() const { return Fail; }
  /// Fails every later read, as a truncation would.
  void stop() { Fail = true; }
  size_t remaining() const { return Fail ? 0 : B.size() - Pos; }

  uint8_t byte() {
    if (Pos >= B.size()) {
      Fail = true;
      return 0;
    }
    return B[Pos++];
  }

  int32_t word() {
    uint8_t First = byte();
    if (Fail)
      return 0;
    // Sign-extend the first byte's 7 payload bits (Figure 3).
    int64_t V = static_cast<int8_t>(static_cast<uint8_t>(First << 1)) >> 1;
    unsigned Groups = 1;
    while (First & 0x80) {
      if (++Groups > 5) {
        Fail = true;
        return 0;
      }
      First = byte();
      if (Fail)
        return 0;
      V = (V << 7) | (First & 0x7f);
    }
    return static_cast<int32_t>(V);
  }

  uint32_t u32() { return static_cast<uint32_t>(word()); }

  uint64_t u64() {
    uint64_t Lo = u32();
    uint64_t Hi = u32();
    return (Hi << 32) | Lo;
  }

  std::string str() {
    int32_t Len = word();
    if (Len < 0 || static_cast<size_t>(Len) > remaining()) {
      Fail = true;
      return {};
    }
    std::string S(reinterpret_cast<const char *>(B.data()) + Pos,
                  static_cast<size_t>(Len));
    Pos += static_cast<size_t>(Len);
    return S;
  }

  /// A count of items each at least one byte long can never exceed the
  /// remaining bytes; reject early so hostile counts cannot force huge
  /// allocations.
  bool countOk(uint32_t N) {
    if (Fail || N > remaining()) {
      Fail = true;
      return false;
    }
    return true;
  }

private:
  const std::vector<uint8_t> &B;
  size_t Pos = 0;
  bool Fail = false;
};

//===----------------------------------------------------------------------===//
// Field lists (binary records)
//===----------------------------------------------------------------------===//
//
// A binary record (a heap snapshot, a profile, the fuzz oracle's run
// outcome) lists its fields once, in byte order, in a
// `template <typename IO, typename T> static void keys(IO &F, T &V)` member,
// the protocol of the JSONL trace records (obs/TraceFormat.h).  ByteWriter
// writes every record through that list and ByteReader reads it back, so a
// new field is one line.  Per member a list calls one of these on its IO:
//   F.num(X...)   integers; the member type picks the encoding: a uint64_t
//                 is two packed 32-bit halves, low half first; a 32-bit
//                 integer is one packed word (0xFFFFFFFF, a NoSite or NoFunc
//                 marker, packs as -1 in one byte); a bool, uint8_t or
//                 one-byte enum is one raw byte
//   F.str(X...)   strings: a packed length, then the bytes
//   F.bits(B...)  bools packed into one raw byte, the first in bit 0
//   F.vec(Name, V [, Then])  a packed count, then each element's own list
//                 (or str for a string), each followed by Then(element)
//   F.vec(Name, V, First, Count [, Then])  the same for the slice
//                 [First, First + Count) of V; the reader appends the
//                 elements to V and sets First and Count
// and two the writer ignores:
//   F.check(Ok, Msg)     the reader rejects the record with Msg unless Ok
//   F.truncated(What)    the reader rejects it with "truncated What" if the
//                        bytes have run out
// The reader skips a check once the bytes have run out, so truncation is
// reported by the next truncated() call or count ("bad Name count").

/// \p V's list, whether or not \p V is const.
template <typename IO, typename T> void listKeys(IO &F, T &V) {
  std::remove_const_t<T>::keys(F, V);
}

/// The default Then of vec: nothing to do after an element.
struct NoThen {
  template <typename T> void operator()(T &) const {}
};

/// Appends a field list's bytes to Out.
struct ByteWriter {
  std::vector<uint8_t> &Out;

  template <typename... T> void num(const T &...V) { (one(V), ...); }
  template <typename... T> void str(const T &...V) {
    (appendPackedStr(Out, V), ...);
  }
  template <typename... B> void bits(const B &...V) {
    unsigned Bit = 0, Byte = 0;
    ((Byte |= (V ? 1u : 0u) << Bit++), ...);
    Out.push_back(static_cast<uint8_t>(Byte));
  }
  template <typename T, typename Fn = NoThen>
  void vec(const char *Name, const std::vector<T> &V, Fn Then = {}) {
    vec(Name, V, 0, static_cast<uint32_t>(V.size()), Then);
  }
  template <typename T, typename Fn = NoThen>
  void vec(const char *, const std::vector<T> &V, uint32_t First,
           uint32_t Count, Fn Then = {}) {
    appendPackedU32(Out, Count);
    for (uint32_t I = First; I != First + Count; ++I) {
      if constexpr (std::is_same_v<T, std::string>)
        str(V[I]);
      else
        listKeys(*this, V[I]);
      Then(V[I]);
    }
  }
  void check(bool, const char *) {}
  void truncated(const char *) {}

private:
  template <typename T> void one(T V) {
    if constexpr (sizeof(T) == 1)
      Out.push_back(static_cast<uint8_t>(V));
    else if constexpr (sizeof(T) == 4)
      appendPacked(Out, static_cast<int32_t>(V));
    else
      appendPackedU64(Out, static_cast<uint64_t>(V));
  }
};

/// A binary artifact file's opening, a 4-byte magic then the packed format
/// version, and the nouns its decode diagnostics use: Noun in "snapshot
/// decode: ..." and "truncated snapshot", Title in "bad magic (not a heap
/// snapshot)".
struct ByteFileKind {
  char Magic[4];
  uint32_t Version;
  const char *Noun;
  const char *Title;
};

/// Reads a field list back, strictly: the first failed check, a count
/// larger than the bytes left, truncation or trailing bytes fail the record
/// with one message (Error), and every later read fails as if the bytes had
/// run out.
class ByteReader {
public:
  explicit ByteReader(const std::vector<uint8_t> &B) : R(B) {}

  template <typename... T> void num(T &...V) { (one(V), ...); }
  template <typename... T> void str(T &...V) { ((V = R.str()), ...); }
  template <typename... B> void bits(B &...V) {
    unsigned Bit = 0, Byte = R.byte();
    ((V = (Byte >> Bit++ & 1) != 0), ...);
  }
  template <typename T, typename Fn = NoThen>
  void vec(const char *Name, std::vector<T> &V, Fn Then = {}) {
    uint32_t First, Count;
    vec(Name, V, First, Count, Then);
  }
  template <typename T, typename Fn = NoThen>
  void vec(const char *Name, std::vector<T> &V, uint32_t &First,
           uint32_t &Count, Fn Then = {}) {
    First = static_cast<uint32_t>(V.size());
    Count = R.u32();
    // An element is at least one byte: a larger count is hostile.
    if (!R.countOk(Count))
      return fail(std::string("bad ") + Name + " count");
    if (First == 0) // A later slice grows V geometrically instead.
      V.reserve(Count);
    for (uint32_t I = 0; I != Count && !R.failed(); ++I) {
      T &E = V.emplace_back();
      if constexpr (std::is_same_v<T, std::string>)
        str(E);
      else
        listKeys(*this, E);
      Then(E);
    }
  }
  void check(bool Ok, const char *Msg) {
    if (!Ok && !R.failed())
      fail(Msg);
  }
  void truncated(const char *What) {
    if (R.failed())
      fail(std::string("truncated ") + What);
  }

  /// Checks \p K's magic and version.
  bool opens(const ByteFileKind &K) {
    for (char M : K.Magic)
      if (R.byte() != static_cast<uint8_t>(M)) {
        fail(std::string("bad magic (not a ") + K.Title + ")");
        return false;
      }
    uint32_t Version = R.u32();
    if (R.failed())
      fail("truncated header");
    else if (Version != K.Version)
      fail(std::string("unsupported ") + K.Noun + " version");
    return Error.empty();
  }

  /// Reads \p V's list, which must end where the bytes do; \p Noun names
  /// the record in the truncation and trailing-bytes messages.
  template <typename T> bool readAll(T &V, const char *Noun) {
    listKeys(*this, V);
    truncated(Noun);
    if (R.remaining() != 0)
      fail(std::string("trailing bytes after ") + Noun);
    return Error.empty();
  }

  std::string Error; ///< The record's first failure; empty if none.

private:
  template <typename T> void one(T &V) {
    if constexpr (std::is_same_v<T, bool>)
      V = R.byte() != 0;
    else if constexpr (sizeof(T) == 1)
      V = static_cast<T>(R.byte());
    else if constexpr (sizeof(T) == 4)
      V = static_cast<T>(R.word());
    else
      V = static_cast<T>(R.u64());
  }
  void fail(const std::string &Msg) {
    if (Error.empty())
      Error = Msg;
    R.stop();
  }

  SafeReader R;
};

/// Appends \p V's list to \p Out.
template <typename T> void encodeFields(const T &V, std::vector<uint8_t> &Out) {
  ByteWriter W{Out};
  listKeys(W, V);
}

/// Reads \p V from exactly the bytes \p B.  On failure resets \p V and
/// sets \p Err.
template <typename T>
bool decodeFields(const std::vector<uint8_t> &B, T &V, std::string &Err) {
  V = T();
  ByteReader R(B);
  if (R.readAll(V, "record"))
    return true;
  V = T();
  Err = R.Error;
  return false;
}

/// Appends \p K's opening, then \p V's list, to \p Out.
template <typename T>
void encodeFile(const ByteFileKind &K, const T &V, std::vector<uint8_t> &Out) {
  Out.insert(Out.end(), K.Magic, K.Magic + 4);
  appendPackedU32(Out, K.Version);
  encodeFields(V, Out);
}

/// Reads a file of kind \p K into \p V.  On failure resets \p V and sets
/// \p Err to "Noun decode: " and the reason.
template <typename T>
bool decodeFile(const ByteFileKind &K, const std::vector<uint8_t> &B, T &V,
                std::string &Err) {
  V = T();
  ByteReader R(B);
  if (R.opens(K) && R.readAll(V, K.Noun))
    return true;
  V = T();
  Err = std::string(K.Noun) + " decode: " + R.Error;
  return false;
}

/// Sequential reader over a byte-packed table blob.
class PackedReader {
public:
  PackedReader(const uint8_t *Data, size_t Size)
      : Data(Data), Size(Size), Pos(0) {}
  explicit PackedReader(const std::vector<uint8_t> &Blob)
      : Data(Blob.data()), Size(Blob.size()), Pos(0) {}

  int32_t readPackedWord() { return readPacked(Data, Size, Pos); }

  int32_t readWord32() {
    uint32_t U = 0;
    for (unsigned I = 0; I != 4; ++I)
      U |= static_cast<uint32_t>(Data[Pos++]) << (8 * I);
    return static_cast<int32_t>(U);
  }

  uint8_t readByte() { return Data[Pos++]; }

  bool atEnd() const { return Pos >= Size; }
  size_t position() const { return Pos; }
  void seek(size_t NewPos) { Pos = NewPos; }

private:
  const uint8_t *Data;
  size_t Size;
  size_t Pos;
};

} // namespace mgc

#endif // MGC_SUPPORT_BYTECODEC_H
