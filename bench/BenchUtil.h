//===- bench/BenchUtil.h - Shared benchmark helpers -------------*- C++ -*-===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//

#ifndef MGC_BENCH_BENCHUTIL_H
#define MGC_BENCH_BENCHUTIL_H

#include "Programs.h"

#include "driver/Compiler.h"
#include "gc/Collector.h"
#include "support/Json.h"
#include "support/Provenance.h"
#include "vm/VM.h"

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <memory>
#include <string>
#include <vector>

namespace mgc {
namespace bench {

/// Compiles \p Source, aborting the benchmark binary on errors.
inline std::unique_ptr<vm::Program>
compileOrDie(const char *Name, const char *Source,
             driver::CompilerOptions Options = {}) {
  auto R = driver::compile(Source, Options);
  if (!R.Prog) {
    std::fprintf(stderr, "%s: compilation failed:\n%s\n", Name,
                 R.Diags.str().c_str());
    std::exit(1);
  }
  return std::move(R.Prog);
}

inline void printRule(unsigned Width = 78) {
  for (unsigned I = 0; I != Width; ++I)
    std::putchar('-');
  std::putchar('\n');
}

/// The §6 destroy program with its tree shape and iteration count
/// replaced, so collections are frequent and stacks deep.
inline std::string destroySource(int Branch, int Depth, int Iters) {
  std::string S(programs::DestroySource);
  auto Replace = [&](const std::string &From, const std::string &To) {
    size_t Pos = S.find(From);
    if (Pos != std::string::npos)
      S.replace(Pos, From.size(), To);
  };
  Replace("Branch = 3", "Branch = " + std::to_string(Branch));
  Replace("Depth = 6", "Depth = " + std::to_string(Depth));
  Replace("Iters = 60", "Iters = " + std::to_string(Iters));
  return S;
}

/// What destroySource(Branch, Depth, Iters) prints, from its closed form:
/// the complete tree's node count, then the nodes built — the tree plus
/// Iters replacement subtrees of height Depth - 3 (ReplDepth stays 2).
inline std::string destroyExpected(int Branch, int Depth, int Iters) {
  auto Nodes = [&](int Height) {
    int64_t Total = 0, Level = 1;
    for (int H = 0; H <= Height; ++H, Level *= Branch)
      Total += Level;
    return Total;
  };
  int64_t Tree = Nodes(Depth);
  int64_t Built = Tree + static_cast<int64_t>(Iters) * Nodes(Depth - 3);
  return std::to_string(Tree) + " " + std::to_string(Built) + "\n";
}

/// An allocation-heavy program with the heap it runs in.
struct Workload {
  const char *Name;
  std::string Source;
  const char *Expected; ///< Null when scaled away from the pinned output.
  size_t HeapBytes;
  size_t NurseryBytes; ///< Each nursery half in generational mode.
};

/// The generational-collector workloads of bench/obs_overhead's rows and
/// of the GenGC mode tests: heaps a few times the live set, so both minor
/// and full collections are frequent.
inline const std::vector<Workload> &gengcWorkloads() {
  static const std::vector<Workload> W = {
      {"destroy", destroySource(3, 6, 60), nullptr, 48u << 10, 4u << 10},
      {"destroy-big", destroySource(3, 7, 200), nullptr, 160u << 10,
       8u << 10},
      {"typereg", programs::TypeRegSource, programs::TypeRegExpected,
       32u << 10, 4u << 10},
  };
  return W;
}

/// Process CPU time in nanoseconds.  The timed runs are single-threaded,
/// and CPU time is immune to scheduler preemption: the overhead gates are
/// tight (1% / 3%) and wall-clock noise on a shared machine swamps them.
inline uint64_t cpuNanos() {
  timespec T{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &T);
  return static_cast<uint64_t>(T.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(T.tv_nsec);
}

/// One BENCH_*.json document: a JSON object that opens with the shared
/// provenance header.  Add members through J, then write().
class BenchFile {
  std::string Text;

public:
  support::JsonWriter J{Text};

  explicit BenchFile(uint64_t Seed = 0) {
    J.beginObject().raw("provenance", support::provenanceJson(Seed));
  }
  BenchFile(const BenchFile &) = delete;
  BenchFile &operator=(const BenchFile &) = delete;

  /// Closes the object and writes it to \p Path in the working directory;
  /// reports and returns false when the file cannot be written.
  bool write(const char *Path) {
    J.endObject();
    Text += '\n';
    std::FILE *F = std::fopen(Path, "w");
    bool Ok = F && std::fputs(Text.c_str(), F) >= 0;
    if (F && std::fclose(F) != 0)
      Ok = false;
    if (!Ok)
      std::fprintf(stderr, "cannot write %s\n", Path);
    return Ok;
  }
};

} // namespace bench
} // namespace mgc

#endif // MGC_BENCH_BENCHUTIL_H
