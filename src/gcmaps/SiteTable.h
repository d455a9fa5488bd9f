//===- gcmaps/SiteTable.h - Allocation-site table ---------------*- C++ -*-===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compiler-emitted *allocation-site table*: one record per static NEW
/// in the program, carrying the source position and heap type, plus the
/// pc -> site attributions that let the runtime charge every allocation to
/// its site.  The table rides alongside the gc tables (same byte-packed
/// Figure-3 codec) but is kept strictly separate in all size accounting:
/// observability support must never inflate the paper's
/// table-size-vs-code-size figures, so its encoded size is reported as its
/// own line (`SchemeSizes::SiteTableBytes`) and is included in no scheme
/// column.
///
/// Sites are deduplicated by (function, line, column, type descriptor) and
/// sorted on that key, so site ids are deterministic and stable across
/// optimization levels: an allocation duplicated by loop unswitching or
/// path splitting still reports as the single source-level site it came
/// from.
///
//===----------------------------------------------------------------------===//

#ifndef MGC_GCMAPS_SITETABLE_H
#define MGC_GCMAPS_SITETABLE_H

#include <cstdint>
#include <tuple>
#include <vector>

namespace mgc {
namespace gcmaps {

/// One static allocation site (a NEW expression, or a synthesized
/// allocation such as a string literal's open array).
struct AllocSite {
  uint32_t Func = 0; ///< Function index in the linked program.
  uint32_t Line = 0; ///< 1-based source line; 0 for synthesized sites.
  uint32_t Col = 0;  ///< 1-based source column; 0 for synthesized sites.
  uint32_t Desc = 0; ///< Heap type descriptor index.

  bool operator==(const AllocSite &O) const {
    return Func == O.Func && Line == O.Line && Col == O.Col && Desc == O.Desc;
  }
  bool operator<(const AllocSite &O) const {
    return std::tie(Func, Line, Col, Desc) <
           std::tie(O.Func, O.Line, O.Col, O.Desc);
  }
  /// The four fields in heap-snapshot and profile files
  /// (support/ByteCodec.h).
  template <typename IO, typename T> static void keys(IO &F, T &V) {
    F.num(V.Func, V.Line, V.Col, V.Desc);
  }
};

/// Charges the allocation instruction at global instruction index \p PC to
/// site \p Site.  Several instructions may share one site (optimizer
/// duplication); every NewObj/NewArr has exactly one attribution.
struct SiteAttribution {
  uint32_t PC = 0;
  uint32_t Site = 0;
};

/// The per-program site table: deduplicated sites in sorted order plus the
/// pc-ordered attributions.
struct SiteTable {
  std::vector<AllocSite> Sites;
  std::vector<SiteAttribution> Attrs; ///< Sorted by PC.
};

/// Encodes \p Table with the Figure-3 byte packing: site records are
/// delta-encoded on the sorted (Func, Line) key and attributions on the pc
/// order.  The blob's size is the honest cost of allocation-site
/// observability.
std::vector<uint8_t> encodeSiteTable(const SiteTable &Table);

/// Decodes a blob produced by encodeSiteTable.  The driver installs the
/// *decoded* table, so every compile round-trips the codec.
SiteTable decodeSiteTable(const std::vector<uint8_t> &Blob);

} // namespace gcmaps
} // namespace mgc

#endif // MGC_GCMAPS_SITETABLE_H
