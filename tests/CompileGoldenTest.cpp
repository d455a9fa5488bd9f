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
/// GroundCount) and of the optimized IR text.  The generated programs of
/// fuzz seeds 1-200 get one row per option set, in which the sizes are
/// sums and the digests run over all 200 compiles in seed order.
///
/// A change that alters compiler output on purpose replaces the rows the
/// failure message prints (a missing row is printed the same way) and
/// says so in its change notes.
///
//===----------------------------------------------------------------------===//

#include "CheckedInPrograms.h"
#include "GoldenUtil.h"
#include "driver/Compiler.h"
#include "fuzz/Generator.h"
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

/// The sizes and digests of one or more compiles, folded in order.
struct CompileDigest {
  uint64_t CodeBytes = 0, DeltaPP = 0, PcMapBytes = 0, SiteTableBytes = 0;
  Fnv64 Image, Maps, IR;

  void add(const driver::CompileResult &C) {
    const vm::Program &P = *C.Prog;
    CodeBytes += P.codeSizeBytes();
    DeltaPP += P.Sizes.DeltaPP;
    PcMapBytes += P.Sizes.PcMapBytes;
    SiteTableBytes += P.Sizes.SiteTableBytes;
    Image.bytes(P.Image.Bytes.data(), P.Image.Bytes.size());
    Maps.u64(P.Maps.size());
    for (const gcmaps::EncodedFuncMaps &M : P.Maps) {
      Maps.u64(M.Blob.size());
      Maps.bytes(M.Blob.data(), M.Blob.size());
      Maps.u64(M.RetPCs.size());
      for (uint32_t PC : M.RetPCs)
        Maps.u64(PC);
      Maps.u64(M.GroundCount);
    }
    std::string Text = ir::toString(*C.IR);
    IR.bytes(Text.data(), Text.size());
  }

  /// The tab-separated row, keyed by its first two fields.
  std::string row(const std::string &Program, const char *Options) const {
    std::ostringstream Row;
    Row << Program << '\t' << Options << '\t' << CodeBytes << '\t'
        << DeltaPP << '\t' << PcMapBytes << '\t' << SiteTableBytes << '\t'
        << Image.hex() << '\t' << Maps.hex() << '\t' << IR.hex();
    return Row.str();
  }
};

constexpr uint64_t GeneratedSeeds = 200;
const char *const GeneratedName = "generated/seeds1-200";

void expectRow(const std::map<std::string, std::string> &Golden,
               const std::string &Row) {
  auto It = Golden.find(test::goldenKey(Row));
  std::string Want = It == Golden.end() ? "(no row)" : It->second;
  EXPECT_EQ(Row, Want) << "replacement row:\n" << Row;
}

} // namespace

TEST(CompileGolden, OutputMatchesCheckedInRows) {
  std::map<std::string, std::string> Golden = test::readGolden("compile.tsv");
  ASSERT_FALSE(Golden.empty()) << "cannot read tests/golden/compile.tsv";

  std::vector<test::NamedSource> Sources = test::checkedInPrograms();
  std::vector<OptionSet> Sets = optionSets();
  // One row per program and option set, plus the generated programs' row
  // per option set.
  EXPECT_EQ(Golden.size(), (Sources.size() + 1) * Sets.size())
      << "stale or missing rows in tests/golden/compile.tsv";
  for (const test::NamedSource &S : Sources) {
    ASSERT_FALSE(S.Source.empty()) << S.Name;
    for (const OptionSet &O : Sets) {
      driver::CompileResult C = driver::compile(S.Source, O.CO);
      ASSERT_TRUE(C.Prog) << S.Name << " " << O.Name << ":\n"
                          << C.Diags.str();
      CompileDigest D;
      D.add(C);
      expectRow(Golden, D.row(S.Name, O.Name));
    }
  }
}

TEST(CompileGolden, GeneratedProgramsMatchCheckedInRows) {
  std::map<std::string, std::string> Golden = test::readGolden("compile.tsv");
  ASSERT_FALSE(Golden.empty()) << "cannot read tests/golden/compile.tsv";

  std::vector<std::string> Sources;
  for (uint64_t Seed = 1; Seed <= GeneratedSeeds; ++Seed)
    Sources.push_back(fuzz::generateProgram(Seed).render());
  for (const OptionSet &O : optionSets()) {
    CompileDigest D;
    for (uint64_t Seed = 1; Seed <= GeneratedSeeds; ++Seed) {
      driver::CompileResult C = driver::compile(Sources[Seed - 1], O.CO);
      ASSERT_TRUE(C.Prog) << "seed " << Seed << " " << O.Name << ":\n"
                          << C.Diags.str();
      D.add(C);
    }
    expectRow(Golden, D.row(GeneratedName, O.Name));
  }
}
