//===- tests/CompileGoldenTest.cpp - Byte identity of compiler output -----===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the compiler's output across commits.  Every corpus, §6 and example
/// program is compiled under six option sets, and each compile must match
/// its row in tests/golden/compile.tsv: code bytes, the Table 2 DeltaPP
/// and PC-map sizes, the site-table size, and FNV-1a-64 digests of the
/// serialized image, of every function's encoded gc maps (Blob, RetPCs,
/// GroundCount) and of the optimized IR text.
///
/// A change that alters compiler output on purpose replaces the rows the
/// failure message prints (a missing row is printed the same way) and
/// says so in its change notes.
///
//===----------------------------------------------------------------------===//

#include "CheckedInPrograms.h"
#include "GoldenUtil.h"
#include "driver/Compiler.h"
#include "ir/Printer.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

using namespace mgc;
using test::Fnv64;

namespace {

struct OptionSet {
  const char *Name;
  driver::CompilerOptions CO;
};

std::vector<OptionSet> optionSets() {
  std::vector<OptionSet> Sets;
  driver::CompilerOptions O0;
  O0.OptLevel = 0;
  Sets.push_back({"O0", O0});
  driver::CompilerOptions O2;
  Sets.push_back({"O2", O2});
  driver::CompilerOptions Wb = O2;
  Wb.WriteBarriers = true;
  Wb.ThreadedPolls = true;
  Sets.push_back({"O2-barriers-polls", Wb});
  driver::CompilerOptions Split = O2;
  Split.Mode = driver::Disambiguation::PathSplitting;
  Sets.push_back({"O2-split", Split});
  driver::CompilerOptions Interproc = O2;
  Interproc.InterprocGcPoints = true;
  Sets.push_back({"O2-interproc", Interproc});
  driver::CompilerOptions Cisc = O2;
  Cisc.CiscFold = true;
  Sets.push_back({"O2-cisc", Cisc});
  return Sets;
}

/// The tab-separated row for one compile, keyed by its first two fields.
std::string rowFor(const std::string &Program, const char *Options,
                   const driver::CompileResult &C) {
  const vm::Program &P = *C.Prog;
  Fnv64 Image;
  Image.bytes(P.Image.Bytes.data(), P.Image.Bytes.size());
  Fnv64 Maps;
  Maps.u64(P.Maps.size());
  for (const gcmaps::EncodedFuncMaps &M : P.Maps) {
    Maps.u64(M.Blob.size());
    Maps.bytes(M.Blob.data(), M.Blob.size());
    Maps.u64(M.RetPCs.size());
    for (uint32_t PC : M.RetPCs)
      Maps.u64(PC);
    Maps.u64(M.GroundCount);
  }
  Fnv64 IR;
  std::string Text = ir::toString(*C.IR);
  IR.bytes(Text.data(), Text.size());
  std::ostringstream Row;
  Row << Program << '\t' << Options << '\t' << P.codeSizeBytes() << '\t'
      << P.Sizes.DeltaPP << '\t' << P.Sizes.PcMapBytes << '\t'
      << P.Sizes.SiteTableBytes << '\t' << Image.hex() << '\t' << Maps.hex()
      << '\t' << IR.hex();
  return Row.str();
}

} // namespace

TEST(CompileGolden, OutputMatchesCheckedInRows) {
  std::map<std::string, std::string> Golden = test::readGolden("compile.tsv");
  ASSERT_FALSE(Golden.empty()) << "cannot read tests/golden/compile.tsv";

  std::vector<test::NamedSource> Sources = test::checkedInPrograms();
  std::vector<OptionSet> Sets = optionSets();
  EXPECT_EQ(Golden.size(), Sources.size() * Sets.size())
      << "stale or missing rows in tests/golden/compile.tsv";
  for (const test::NamedSource &S : Sources) {
    ASSERT_FALSE(S.Source.empty()) << S.Name;
    for (const OptionSet &O : Sets) {
      driver::CompileResult C = driver::compile(S.Source, O.CO);
      ASSERT_TRUE(C.Prog) << S.Name << " " << O.Name << ":\n"
                          << C.Diags.str();
      std::string Row = rowFor(S.Name, O.Name, C);
      auto It = Golden.find(test::goldenKey(Row));
      std::string Want = It == Golden.end() ? "(no row)" : It->second;
      EXPECT_EQ(Row, Want) << "replacement row:\n" << Row;
    }
  }
}
