//===- tests/SampleProgramsTest.cpp - The shipped .mg sample programs ------===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include <fstream>
#include <sstream>

using namespace mgc;
using namespace mgc::test;

namespace {

std::string readProgram(const std::string &Name) {
  std::string Path = std::string(MGC_SOURCE_DIR) + "/examples/programs/" +
                     Name;
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << "cannot open " << Path;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

struct Sample {
  const char *File;
  const char *Expected;
};

// Without a printer gtest shows a Sample as its raw bytes, i.e. the two string
// addresses, which vary with the binary's layout and with ASLR; ctest takes
// that text into the discovered test names, so they changed on every build.
void PrintTo(const Sample &S, std::ostream *OS) { *OS << S.File; }

class SamplePrograms : public ::testing::TestWithParam<Sample> {};

TEST_P(SamplePrograms, RunsIdenticallyAcrossConfigurations) {
  const Sample &S = GetParam();
  std::string Src = readProgram(S.File);
  ASSERT_FALSE(Src.empty());
  for (int Opt : {0, 2}) {
    for (int Stress : {0, 1}) {
      driver::CompilerOptions CO;
      CO.OptLevel = Opt;
      CO.InterprocGcPoints = Opt == 2; // Exercise the elision too.
      vm::VMOptions VO;
      VO.GcStress = Stress != 0;
      VO.HeapBytes = 4u << 20;
      VO.StackWords = 1u << 20;
      RunResult R = compileAndRun(Src, CO, VO);
      ASSERT_TRUE(R.Ok) << S.File << " opt=" << Opt << " stress=" << Stress
                        << ": " << R.Error;
      EXPECT_EQ(R.Out, S.Expected)
          << S.File << " opt=" << Opt << " stress=" << Stress;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Files, SamplePrograms,
    ::testing::Values(Sample{"sieve.mg", "303 1999\n"},
                      Sample{"nqueens.mg", "40\n"},
                      Sample{"wordcount.mg", "12 19\n"}),
    [](const ::testing::TestParamInfo<Sample> &Info) {
      std::string Name = Info.param.File;
      return Name.substr(0, Name.find('.'));
    });

} // namespace
