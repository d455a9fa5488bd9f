//===- bench/micro_decode.cpp - Table decode microbenchmarks ---------------===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// google-benchmark harness for the decode-time side of §5.1/§6.3: the
/// byte-packing codec, gc-point lookup, and full gc-point decoding
/// (including the identical-to-previous chain walk) on the real tables of
/// the destroy and typereg benchmarks.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "Programs.h"

#include "gcmaps/MapIndex.h"
#include "support/Provenance.h"

#include <benchmark/benchmark.h>

using namespace mgc;

namespace {

//===----------------------------------------------------------------------===//
// Byte packing codec
//===----------------------------------------------------------------------===//

void BM_PackWord(benchmark::State &State) {
  std::vector<uint8_t> Out;
  int32_t V = static_cast<int32_t>(State.range(0));
  for (auto _ : State) {
    Out.clear();
    appendPacked(Out, V);
    benchmark::DoNotOptimize(Out.data());
  }
}
BENCHMARK(BM_PackWord)->Arg(5)->Arg(300)->Arg(100000)->Arg(-100000);

void BM_UnpackWord(benchmark::State &State) {
  std::vector<uint8_t> Bytes;
  appendPacked(Bytes, static_cast<int32_t>(State.range(0)));
  for (auto _ : State) {
    size_t Pos = 0;
    int32_t V = readPacked(Bytes.data(), Bytes.size(), Pos);
    benchmark::DoNotOptimize(V);
  }
}
BENCHMARK(BM_UnpackWord)->Arg(5)->Arg(300)->Arg(100000)->Arg(-100000);

//===----------------------------------------------------------------------===//
// GC-point lookup and decode on real program tables
//===----------------------------------------------------------------------===//

struct ProgramFixture {
  std::unique_ptr<vm::Program> Prog;
  /// Function with the most gc-points, and its busiest ordinals.
  const gcmaps::EncodedFuncMaps *Busiest = nullptr;
  const gcmaps::FuncMapIndex *BusiestIndex = nullptr;
  unsigned BusiestFunc = 0;

  explicit ProgramFixture(const char *Source) {
    driver::CompilerOptions CO;
    CO.OptLevel = 2;
    Prog = bench::compileOrDie("micro", Source, CO);
    size_t Best = 0;
    for (unsigned F = 0; F != Prog->Maps.size(); ++F)
      if (Prog->Maps[F].RetPCs.size() > Best) {
        Best = Prog->Maps[F].RetPCs.size();
        Busiest = &Prog->Maps[F];
        BusiestIndex = &Prog->MapIndexes[F];
        BusiestFunc = F;
      }
  }
};

ProgramFixture &destroyFixture() {
  static ProgramFixture F(programs::DestroySource);
  return F;
}

ProgramFixture &typeregFixture() {
  static ProgramFixture F(programs::TypeRegSource);
  return F;
}

void BM_FindGcPoint(benchmark::State &State) {
  ProgramFixture &F = destroyFixture();
  const auto &Maps = *F.Busiest;
  uint32_t Target = Maps.RetPCs[Maps.RetPCs.size() / 2];
  for (auto _ : State) {
    int Ord = gcmaps::findGcPoint(Maps, Target);
    benchmark::DoNotOptimize(Ord);
  }
}
BENCHMARK(BM_FindGcPoint);

/// Decoding the first gc-point (no chain to walk) vs the last (the full
/// identical-to-previous chain): the cost the paper trades against table
/// size in §5.1.
void BM_DecodeGcPoint(benchmark::State &State) {
  ProgramFixture &F = State.range(1) ? typeregFixture() : destroyFixture();
  const auto &Maps = *F.Busiest;
  unsigned Ordinal =
      State.range(0) == 0
          ? 0
          : static_cast<unsigned>(Maps.RetPCs.size()) - 1;
  for (auto _ : State) {
    gcmaps::GcPointInfo Info = gcmaps::decodeGcPoint(Maps, Ordinal);
    benchmark::DoNotOptimize(Info.RegMask);
  }
  State.SetLabel(State.range(1) ? "typereg" : "destroy");
}
BENCHMARK(BM_DecodeGcPoint)
    ->Args({0, 0})
    ->Args({1, 0})
    ->Args({0, 1})
    ->Args({1, 1});

/// The same decode through the load-time side index: the chain walk and
/// ground-table re-expansion disappear; only the point's own payloads are
/// read.
void BM_DecodeGcPointIndexed(benchmark::State &State) {
  ProgramFixture &F = State.range(1) ? typeregFixture() : destroyFixture();
  const auto &Maps = *F.Busiest;
  const auto &Index = *F.BusiestIndex;
  unsigned Ordinal =
      State.range(0) == 0
          ? 0
          : static_cast<unsigned>(Maps.RetPCs.size()) - 1;
  gcmaps::GcPointInfo Info; // Reused: capacity persists across decodes.
  for (auto _ : State) {
    gcmaps::decodeGcPointIndexed(Maps, Index, Ordinal, Info);
    benchmark::DoNotOptimize(Info.RegMask);
  }
  State.SetLabel(State.range(1) ? "typereg" : "destroy");
}
BENCHMARK(BM_DecodeGcPointIndexed)
    ->Args({0, 0})
    ->Args({1, 0})
    ->Args({0, 1})
    ->Args({1, 1});

/// The collector's steady-state path: the decoded-point cache hit, which
/// returns a const reference without touching the blob at all.
void BM_DecodeGcPointCached(benchmark::State &State) {
  ProgramFixture &F = State.range(1) ? typeregFixture() : destroyFixture();
  const auto &Maps = *F.Busiest;
  const auto &Index = *F.BusiestIndex;
  unsigned Ordinal =
      State.range(0) == 0
          ? 0
          : static_cast<unsigned>(Maps.RetPCs.size()) - 1;
  gcmaps::DecodedPointCache Cache;
  gcmaps::decodeGcPointIndexed(Maps, Index, Ordinal,
                               Cache.insert(F.BusiestFunc, Ordinal));
  for (auto _ : State) {
    const gcmaps::GcPointInfo *Info = Cache.lookup(F.BusiestFunc, Ordinal);
    benchmark::DoNotOptimize(Info);
  }
  State.SetLabel(State.range(1) ? "typereg" : "destroy");
}
BENCHMARK(BM_DecodeGcPointCached)
    ->Args({0, 0})
    ->Args({1, 0})
    ->Args({0, 1})
    ->Args({1, 1});

/// Decoding every gc-point of every function: the per-collection table
/// work for a whole program, amortized.
void BM_DecodeAllPoints(benchmark::State &State) {
  ProgramFixture &F = destroyFixture();
  for (auto _ : State) {
    size_t Total = 0;
    for (const auto &Maps : F.Prog->Maps)
      for (unsigned K = 0; K != Maps.RetPCs.size(); ++K) {
        gcmaps::GcPointInfo Info = gcmaps::decodeGcPoint(Maps, K);
        Total += Info.LiveSlots.size();
      }
    benchmark::DoNotOptimize(Total);
  }
}
BENCHMARK(BM_DecodeAllPoints);

/// Every gc-point of every function through the index (scratch reused):
/// the O(points²) chain replay of the reference decoder becomes O(points).
void BM_DecodeAllPointsIndexed(benchmark::State &State) {
  ProgramFixture &F = destroyFixture();
  gcmaps::GcPointInfo Info;
  for (auto _ : State) {
    size_t Total = 0;
    for (size_t FI = 0; FI != F.Prog->Maps.size(); ++FI) {
      const auto &Maps = F.Prog->Maps[FI];
      const auto &Index = F.Prog->MapIndexes[FI];
      for (unsigned K = 0; K != Maps.RetPCs.size(); ++K) {
        gcmaps::decodeGcPointIndexed(Maps, Index, K, Info);
        Total += Info.LiveSlots.size();
      }
    }
    benchmark::DoNotOptimize(Total);
  }
}
BENCHMARK(BM_DecodeAllPointsIndexed);

/// What programs pay for the acceleration: index construction itself.
void BM_BuildMapIndex(benchmark::State &State) {
  ProgramFixture &F = destroyFixture();
  for (auto _ : State) {
    size_t Points = 0;
    for (const auto &Maps : F.Prog->Maps) {
      gcmaps::FuncMapIndex Index = gcmaps::buildFuncMapIndex(Maps);
      Points += Index.Points.size();
    }
    benchmark::DoNotOptimize(Points);
  }
}
BENCHMARK(BM_BuildMapIndex);

//===----------------------------------------------------------------------===//
// Whole-collection cost (precise, table-driven)
//===----------------------------------------------------------------------===//

void BM_FullCollection(benchmark::State &State) {
  ProgramFixture &F = destroyFixture();
  // Run destroy once to a mid-execution heap, then measure explicit
  // collections on the final state.  Arg 0 selects the decoder: 0 = the
  // reference walk-from-start decoder, 1 = index + decoded-point cache.
  vm::VMOptions VO;
  VO.HeapBytes = 1u << 20;
  VO.StackWords = 1u << 20;
  VO.UseMapIndex = State.range(0) != 0;
  vm::VM M(*F.Prog, VO);
  gc::installPreciseCollector(M);
  if (!M.run()) {
    State.SkipWithError(M.Error.c_str());
    return;
  }
  for (auto _ : State) {
    M.collectNow();
    benchmark::DoNotOptimize(M.Stats.Collections);
  }
  State.SetLabel(VO.UseMapIndex ? "indexed" : "reference");
}
BENCHMARK(BM_FullCollection)->Arg(0)->Arg(1);

} // namespace

int main(int argc, char **argv) {
  benchmark::AddCustomContext("tool_version", mgc::support::ToolVersion);
  benchmark::AddCustomContext("build_flags", mgc::support::buildFlags());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
