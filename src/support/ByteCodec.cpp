//===- support/ByteCodec.cpp ----------------------------------------------===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/ByteCodec.h"

#include <cassert>
#include <fstream>

using namespace mgc;

/// The smallest number of 7-bit groups whose sign extension reproduces
/// \p Word.  A group count N covers values representable in 7*N bits as a
/// signed quantity.
unsigned mgc::packedSize(int32_t Word) {
  int64_t V = Word;
  for (unsigned N = 1; N <= 4; ++N) {
    unsigned Bits = 7 * N;
    int64_t Lo = -(int64_t(1) << (Bits - 1));
    int64_t Hi = (int64_t(1) << (Bits - 1)) - 1;
    if (V >= Lo && V <= Hi)
      return N;
  }
  return 5;
}

void mgc::appendPacked(std::vector<uint8_t> &Out, int32_t Word) {
  unsigned N = packedSize(Word);
  uint64_t U = static_cast<uint64_t>(static_cast<int64_t>(Word)) &
               ((uint64_t(1) << (7 * N)) - 1);
  // Most significant group first; continuation bit set on all but the last.
  for (unsigned I = N; I-- > 0;) {
    uint8_t Group = static_cast<uint8_t>((U >> (7 * I)) & 0x7f);
    if (I != 0)
      Group |= 0x80;
    Out.push_back(Group);
  }
}

int32_t mgc::readPacked(const uint8_t *Data, size_t Size, size_t &Pos) {
  assert(Pos < Size && "packed read past end of table");
  uint8_t First = Data[Pos++];
  // Sign-extend the first byte's 7 payload bits.
  int64_t V = static_cast<int8_t>(static_cast<uint8_t>(First << 1)) >> 1;
  while (First & 0x80) {
    assert(Pos < Size && "truncated packed word");
    First = Data[Pos++];
    V = (V << 7) | (First & 0x7f);
  }
  return static_cast<int32_t>(V);
}

bool mgc::writeByteFile(const std::string &Path,
                        const std::vector<uint8_t> &Bytes, std::string &Err) {
  std::ofstream F(Path, std::ios::binary | std::ios::trunc);
  if (!F) {
    Err = "cannot open '" + Path + "' for writing";
    return false;
  }
  F.write(reinterpret_cast<const char *>(Bytes.data()),
          static_cast<std::streamsize>(Bytes.size()));
  F.flush();
  if (!F) {
    Err = "write to '" + Path + "' failed";
    return false;
  }
  return true;
}

bool mgc::readByteFile(const std::string &Path, std::vector<uint8_t> &Bytes,
                       std::string &Err) {
  std::ifstream F(Path, std::ios::binary);
  if (!F) {
    Err = "cannot open '" + Path + "'";
    return false;
  }
  Bytes.assign(std::istreambuf_iterator<char>(F),
               std::istreambuf_iterator<char>());
  return true;
}
