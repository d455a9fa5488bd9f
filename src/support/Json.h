//===- support/Json.h - Compact JSON writer ---------------------*- C++ -*-===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one JSON emitter behind every machine-readable artifact: the JSONL
/// trace records, mgc-report --json, --stats-json, the provenance header
/// and the BENCH_*.json files.  Output is compact (no whitespace), integers
/// print in decimal, fixed-point values print as printf's "%.Nf", and
/// strings are escaped in the one form obs::parseTraceLine reads back
/// byte-exact: \" \\ \n \t \r, and \u00XX for other control bytes.
///
//===----------------------------------------------------------------------===//

#ifndef MGC_SUPPORT_JSON_H
#define MGC_SUPPORT_JSON_H

#include <cstdint>
#include <string>
#include <string_view>

namespace mgc {
namespace support {

/// Appends \p S to \p Out as one quoted, escaped JSON string literal.
void appendJsonString(std::string &Out, std::string_view S);

/// Appends JSON text to a caller-owned string and places the commas: it
/// remembers, per open object or array, whether a member was written.
/// Members written at depth 0 form a bare field list ("a":1,"b":2), which
/// one writer can append to an object another writer opened.
class JsonWriter {
public:
  explicit JsonWriter(std::string &Out) : Out(Out) {}

  /// Opens an object as the next array element (or the document itself).
  JsonWriter &beginObject();
  /// Opens an object or array as the value of member \p Key.
  JsonWriter &beginObject(std::string_view Key);
  JsonWriter &beginArray(std::string_view Key);
  JsonWriter &endObject();
  JsonWriter &endArray();

  /// Writes the separator and "Key": for a value the caller appends next.
  JsonWriter &key(std::string_view Key);

  JsonWriter &uint(std::string_view Key, uint64_t V);
  JsonWriter &sint(std::string_view Key, int64_t V);
  /// \p V with \p Digits digits after the point, as printf's "%.*f".
  JsonWriter &fixed(std::string_view Key, double V, int Digits = 3);
  JsonWriter &str(std::string_view Key, std::string_view V);
  JsonWriter &boolean(std::string_view Key, bool V);
  /// Member \p Key whose value is the JSON text \p Json, copied verbatim.
  JsonWriter &raw(std::string_view Key, std::string_view Json);

private:
  void separate();
  JsonWriter &open(char C);
  JsonWriter &close(char C);

  std::string &Out;
  unsigned Depth = 0;
  /// Bit D: the container at depth D already holds a member.
  uint64_t HasMember = 0;
};

} // namespace support
} // namespace mgc

#endif // MGC_SUPPORT_JSON_H
