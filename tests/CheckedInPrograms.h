//===- tests/CheckedInPrograms.h - Every checked-in MG program --*- C++ -*-===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The programs the compiler-wide sweeps run over: the frozen corpus, the
/// four §6 benchmark programs and the three example programs, named
/// "corpus/seed001", "sec6/typereg" and "examples/nqueens".
///
//===----------------------------------------------------------------------===//

#ifndef MGC_TESTS_CHECKEDINPROGRAMS_H
#define MGC_TESTS_CHECKEDINPROGRAMS_H

#include "Corpus.h"
#include "Programs.h"

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace mgc {
namespace test {

struct NamedSource {
  std::string Name;
  std::string Source;
};

inline std::vector<NamedSource> checkedInPrograms() {
  std::vector<NamedSource> Out;
  for (const CorpusProgram &P : corpus())
    Out.push_back({"corpus/" + P.Name, P.Source});
  for (const programs::NamedProgram &P : programs::All)
    Out.push_back({std::string("sec6/") + P.Name, P.Source});
  for (const char *File : {"nqueens", "sieve", "wordcount"}) {
    std::ifstream In(std::string(MGC_SOURCE_DIR) + "/examples/programs/" +
                     File + ".mg");
    std::ostringstream Buf;
    Buf << In.rdbuf();
    Out.push_back({std::string("examples/") + File, Buf.str()});
  }
  return Out;
}

} // namespace test
} // namespace mgc

#endif // MGC_TESTS_CHECKEDINPROGRAMS_H
