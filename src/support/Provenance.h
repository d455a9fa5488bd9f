//===- support/Provenance.h - Build/run provenance stamping -----*- C++ -*-===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One shared answer to "which build produced this artifact?".  Every
/// persistent artifact the toolchain writes — JSONL traces, heap-snapshot
/// files, profile files, and the BENCH_*.json gate outputs — stamps the
/// same three fields so artifacts from different builds (or different
/// seeds) can never be silently compared:
///
///   tool_version  the mgc release string (bumped with the format),
///   build_flags   compiler identity + assertion state of this binary,
///   seed          the run's deterministic seed (0 when the run has none).
///
/// The fields are provenance only: binary codecs keep them in a header
/// *outside* the byte-identity contract (profiles must stay bit-identical
/// across dispatch tiers even when the command lines differ), and the
/// JSONL re-parser treats them as ordinary string/int fields.
///
//===----------------------------------------------------------------------===//

#ifndef MGC_SUPPORT_PROVENANCE_H
#define MGC_SUPPORT_PROVENANCE_H

#include "support/Json.h"

#include <cstdint>
#include <string>

namespace mgc {
namespace support {

/// The tool release string.  Bump when an artifact format changes.
constexpr const char *ToolVersion = "mgc 0.10.0";

/// Compiler identity and assertion state of this binary, as one compact
/// string.  Computed at compile time of this translation unit, so two
/// binaries from different toolchains stamp different values.
inline const std::string &buildFlags() {
  static const std::string Flags = [] {
    std::string F = "cc=";
#if defined(__VERSION__)
    F += __VERSION__;
#else
    F += "unknown";
#endif
#if defined(NDEBUG)
    F += ";assertions=off";
#else
    F += ";assertions=on";
#endif
    return F;
  }();
  return Flags;
}

/// The three provenance fields as a JSON object (with surrounding braces):
/// {"tool_version":"...","build_flags":"...","seed":N}.  For embedding
/// under a "provenance" key in BENCH_*.json and --stats-json.
inline std::string provenanceJson(uint64_t Seed = 0) {
  std::string Out;
  JsonWriter(Out)
      .beginObject()
      .str("tool_version", ToolVersion)
      .str("build_flags", buildFlags())
      .uint("seed", Seed)
      .endObject();
  return Out;
}

} // namespace support
} // namespace mgc

#endif // MGC_SUPPORT_PROVENANCE_H
