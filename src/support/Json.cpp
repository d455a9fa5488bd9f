//===- support/Json.cpp ---------------------------------------------------===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include <cassert>
#include <cstdio>

using namespace mgc;
using namespace mgc::support;

void support::appendJsonString(std::string &Out, std::string_view S) {
  Out += '"';
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        static const char Hex[] = "0123456789abcdef";
        Out += "\\u00";
        Out += Hex[(C >> 4) & 0xf];
        Out += Hex[C & 0xf];
      } else {
        Out += C;
      }
    }
  }
  Out += '"';
}

void JsonWriter::separate() {
  uint64_t Bit = uint64_t(1) << Depth;
  if (HasMember & Bit)
    Out += ',';
  HasMember |= Bit;
}

JsonWriter &JsonWriter::open(char C) {
  Out += C;
  ++Depth;
  assert(Depth < 64 && "JSON nesting too deep");
  HasMember &= ~(uint64_t(1) << Depth);
  return *this;
}

JsonWriter &JsonWriter::close(char C) {
  assert(Depth > 0 && "unbalanced JSON container");
  --Depth;
  Out += C;
  return *this;
}

JsonWriter &JsonWriter::beginObject() {
  separate();
  return open('{');
}

JsonWriter &JsonWriter::beginObject(std::string_view Key) {
  key(Key);
  return open('{');
}

JsonWriter &JsonWriter::beginArray(std::string_view Key) {
  key(Key);
  return open('[');
}

JsonWriter &JsonWriter::endObject() { return close('}'); }

JsonWriter &JsonWriter::endArray() { return close(']'); }

JsonWriter &JsonWriter::key(std::string_view Key) {
  separate();
  Out += '"';
  Out += Key;
  Out += "\":";
  return *this;
}

JsonWriter &JsonWriter::uint(std::string_view Key, uint64_t V) {
  key(Key);
  Out += std::to_string(V);
  return *this;
}

JsonWriter &JsonWriter::sint(std::string_view Key, int64_t V) {
  key(Key);
  Out += std::to_string(V);
  return *this;
}

JsonWriter &JsonWriter::fixed(std::string_view Key, double V, int Digits) {
  key(Key);
  // 309 integer digits, a sign and the fraction: the widest finite double.
  char Buf[400];
  std::snprintf(Buf, sizeof(Buf), "%.*f", Digits, V);
  Out += Buf;
  return *this;
}

JsonWriter &JsonWriter::str(std::string_view Key, std::string_view V) {
  key(Key);
  appendJsonString(Out, V);
  return *this;
}

JsonWriter &JsonWriter::boolean(std::string_view Key, bool V) {
  key(Key);
  Out += V ? "true" : "false";
  return *this;
}

JsonWriter &JsonWriter::raw(std::string_view Key, std::string_view Json) {
  key(Key);
  Out += Json;
  return *this;
}
