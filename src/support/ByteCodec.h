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
class SafeReader {
public:
  explicit SafeReader(const std::vector<uint8_t> &B) : B(B) {}

  bool failed() const { return Fail; }
  size_t position() const { return Pos; }
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
