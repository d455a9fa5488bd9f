//===- tests/GoldenUtil.h - Checked-in golden rows --------------*- C++ -*-===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared by the golden tests (CompileGoldenTest, GcGoldenTest): an
/// FNV-1a-64 digest and a reader for tests/golden/*.tsv, whose rows are
/// tab-separated and keyed by their first two fields.  '#' starts a
/// comment line.
///
//===----------------------------------------------------------------------===//

#ifndef MGC_TESTS_GOLDENUTIL_H
#define MGC_TESTS_GOLDENUTIL_H

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>

namespace mgc {
namespace test {

struct Fnv64 {
  uint64_t H = 0xcbf29ce484222325ull;
  void bytes(const void *P, size_t N) {
    const auto *B = static_cast<const uint8_t *>(P);
    for (size_t I = 0; I != N; ++I) {
      H ^= B[I];
      H *= 0x100000001b3ull;
    }
  }
  void u64(uint64_t V) {
    uint8_t B[8];
    for (unsigned I = 0; I != 8; ++I)
      B[I] = static_cast<uint8_t>(V >> (8 * I));
    bytes(B, 8);
  }
  std::string hex() const {
    char Buf[17];
    std::snprintf(Buf, sizeof(Buf), "%016llx",
                  static_cast<unsigned long long>(H));
    return Buf;
  }
};

/// The key of a golden row: its first two fields.
inline std::string goldenKey(const std::string &Row) {
  size_t Tab = Row.find('\t');
  return Row.substr(0, Row.find('\t', Tab + 1));
}

/// The rows of tests/golden/\p File by key; empty when the file is
/// missing.
inline std::map<std::string, std::string> readGolden(const char *File) {
  std::map<std::string, std::string> Golden;
  std::ifstream In(std::string(MGC_SOURCE_DIR) + "/tests/golden/" + File);
  for (std::string Line; std::getline(In, Line);)
    if (!Line.empty() && Line[0] != '#')
      Golden[goldenKey(Line)] = Line;
  return Golden;
}

} // namespace test
} // namespace mgc

#endif // MGC_TESTS_GOLDENUTIL_H
