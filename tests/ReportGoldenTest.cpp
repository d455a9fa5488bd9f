//===- tests/ReportGoldenTest.cpp - mgc-report output pins ----------------===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins what mgc-report prints.  Four checked-in traces under
/// tests/golden/report/ hold all ten record types between them: leaky
/// (`mgc --gen-gc --leak-detect --leak-window 3 --leak-min-bytes 64
/// --heap 16384 --nursery-bytes 2048 --profile-interval 32` on leaky.mg:
/// minor and full gc, req, leak, site_live, age_hist, prof_stack), exhaust
/// (`mgc --heap 8192 --profile-interval 64` on exhaust.mg: a failed run),
/// edges (hand-written: ring drops, a no-site live row, a site without
/// a column, more leaks and stacks than --top 3 shows) and empty (a meta
/// record alone).  Each renders through renderReport at the default top
/// and at 3, renderReportJson and renderLeaks, and must equal the files
/// `mgc-report [--top 3 | --json | --leaks] NAME.jsonl` wrote next to it.
///
/// The hot-stack records are pinned against the profile they come from:
/// an `mgc --trace --profile` run's trace lists the profile's ten heaviest
/// mutator stacks, by weight (descending) then stack id, folded.
///
/// Suite names start with "Obs" for the `obs` ctest label.
///
//===----------------------------------------------------------------------===//

#include "obs/Profile.h"
#include "obs/Report.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

using namespace mgc;

namespace {

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

std::string goldenPath(const std::string &File) {
  return std::string(MGC_SOURCE_DIR) + "/tests/golden/report/" + File;
}

TEST(ObsReportGolden, RendersMatchCheckedInFiles) {
  for (const char *Name : {"leaky", "exhaust", "edges", "empty"}) {
    SCOPED_TRACE(Name);
    std::string Trace = readFile(goldenPath(std::string(Name) + ".jsonl"));
    ASSERT_FALSE(Trace.empty());
    std::istringstream In(Trace);
    obs::TraceReport Report;
    std::string Err;
    ASSERT_TRUE(obs::readTrace(In, Report, Err)) << Err;
    auto Expect = [&](const char *Suffix, const std::string &Rendered) {
      EXPECT_EQ(Rendered, readFile(goldenPath(std::string(Name) + Suffix)))
          << Suffix;
    };
    Expect(".txt", obs::renderReport(Report));
    Expect(".top3.txt", obs::renderReport(Report, /*TopN=*/3));
    Expect(".json", obs::renderReportJson(Report));
    Expect(".leaks.txt", obs::renderLeaks(Report));
  }
}

TEST(ObsReportGolden, TracesHoldEveryRecordType) {
  std::string All;
  for (const char *Name : {"leaky", "exhaust", "edges", "empty"})
    All += readFile(goldenPath(std::string(Name) + ".jsonl"));
  for (const char *Type : {"meta", "site", "gc", "req", "site_stats",
                           "site_live", "age_hist", "leak", "run",
                           "prof_stack"})
    EXPECT_NE(All.find(std::string("{\"type\":\"") + Type + "\""),
              std::string::npos)
        << Type;
  EXPECT_NE(All.find("\"kind\":\"minor\""), std::string::npos);
  EXPECT_NE(All.find("\"kind\":\"full\""), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Hot stacks in the trace against the profile
//===----------------------------------------------------------------------===//

TEST(ObsHotStacks, TraceHoldsTheProfilesTenHeaviestStacks) {
  struct Case {
    const char *Name;
    std::string Program;
    const char *Flags;
  };
  const Case Cases[] = {
      {"destroy",
       std::string(MGC_SOURCE_DIR) + "/perfbench/programs/sec6_destroy.mg",
       "--gen-gc --heap 65536"},
      {"seed102", std::string(MGC_SOURCE_DIR) + "/tests/corpus/seed102.mg",
       "--heap 65536"},
  };
  for (const Case &C : Cases) {
    SCOPED_TRACE(C.Name);
    std::string Base = testing::TempDir() + "mgc_hot_stacks_" + C.Name;
    std::string Cmd = std::string("\"") + MGC_TOOL + "\" " + C.Flags +
                      " --profile-interval 64 --trace \"" + Base +
                      ".jsonl\" --profile \"" + Base + ".prof\" \"" +
                      C.Program + "\" > /dev/null";
    ASSERT_EQ(std::system(Cmd.c_str()), 0) << Cmd;

    obs::Profile P;
    std::string Err;
    ASSERT_TRUE(obs::readProfileFile(Base + ".prof", P, Err)) << Err;
    std::vector<obs::Profile::MutRow> Rows = P.Mutator;
    ASSERT_GT(Rows.size(), 10u) << "too few stacks to cut at ten";
    std::sort(Rows.begin(), Rows.end(),
              [](const obs::Profile::MutRow &A,
                 const obs::Profile::MutRow &B) {
                if (A.Weight != B.Weight)
                  return A.Weight > B.Weight;
                return A.StackId < B.StackId;
              });
    Rows.resize(10);

    std::ifstream In(Base + ".jsonl");
    obs::TraceReport Report;
    ASSERT_TRUE(obs::readTrace(In, Report, Err)) << Err;
    ASSERT_TRUE(Report.HasRun);
    ASSERT_EQ(Report.HotStacks.size(), Rows.size());
    for (size_t I = 0; I != Rows.size(); ++I) {
      SCOPED_TRACE(I);
      EXPECT_EQ(Report.HotStacks[I].Rank, I + 1);
      EXPECT_EQ(Report.HotStacks[I].Samples, Rows[I].Samples);
      EXPECT_EQ(Report.HotStacks[I].Weight, Rows[I].Weight);
      EXPECT_EQ(Report.HotStacks[I].Stack,
                obs::foldedStack(P, Rows[I].StackId));
    }
    // The stacks follow the run record: the trace's last ten lines.
    std::string Trace = readFile(Base + ".jsonl");
    size_t Run = Trace.find("{\"type\":\"run\"");
    ASSERT_NE(Run, std::string::npos);
    EXPECT_EQ(Trace.find("{\"type\":\"prof_stack\""),
              Trace.find('\n', Run) + 1);
    std::remove((Base + ".jsonl").c_str());
    std::remove((Base + ".prof").c_str());
  }
}

} // namespace
