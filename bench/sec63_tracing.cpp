//===- bench/sec63_tracing.cpp - §6.3: stack tracing timings ---------------===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// §6.3 times the table-driven stack tracing on the destroy benchmark:
/// 470µs per collection (90% confidence < 1710µs), 27–98µs per frame
/// traced, and stack tracing under 1.7–6% of total gc time.  Absolute
/// numbers on a modern host under an interpreter differ wildly from a
/// VAXStation 3500; the *shape* to reproduce is that locating + decoding
/// the tables and enumerating roots is a small fraction of total
/// collection time, even in the gc-intensive destroy workload.
///
/// As an ablation this harness also times a Boehm-style conservative scan
/// of the same stacks (every word a potential pointer) at each collection.
///
/// Last come the decode microcosts behind those figures, the table-size
/// vs decode-time trade of §5.1: byte packing, the pc -> gc-point lookup,
/// first and last gc-point decodes (reference, indexed, cached), every
/// gc-point of destroy, the map-index build, and a whole collection on
/// destroy's final heap.  Each is process CPU time per operation, the
/// minimum over interleaved rounds, written to BENCH_decode.json.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "Programs.h"

#include "gcmaps/MapIndex.h"

#include <functional>

using namespace mgc;
using namespace mgc::bench;

namespace {

struct Row {
  const char *Label;
  vm::VMStats Stats;
  gc::ConservativeStats Conservative;
  unsigned ConservativeRuns = 0;
};

Row runWorkload(const char *Label, const std::string &Source,
                size_t HeapBytes, vm::VMOptions VO = {}) {
  driver::CompilerOptions CO;
  CO.OptLevel = 2;
  auto Prog = compileOrDie(Label, Source.c_str(), CO);

  VO.HeapBytes = HeapBytes;
  VO.StackWords = 1u << 20;
  vm::VM M(*Prog, VO);
  gc::installPreciseCollector(M);

  // Wrap the precise collector with a timed conservative scan of the same
  // machine state, for the precise-vs-ambiguous-roots ablation.
  Row R;
  R.Label = Label;
  auto Precise = M.Collector;
  M.Collector = [&R, Precise](vm::VM &Inner) {
    gc::ConservativeStats C = gc::conservativeTrace(Inner);
    R.Conservative.WordsScanned += C.WordsScanned;
    R.Conservative.CandidatePointers += C.CandidatePointers;
    R.Conservative.ObjectsReached += C.ObjectsReached;
    R.Conservative.Nanos += C.Nanos;
    ++R.ConservativeRuns;
    Precise(Inner);
  };

  if (!M.run()) {
    std::fprintf(stderr, "%s: run failed: %s\n", Label, M.Error.c_str());
    std::exit(1);
  }
  R.Stats = M.Stats;
  return R;
}

void printRow(const Row &R) {
  const vm::VMStats &S = R.Stats;
  if (S.Collections == 0) {
    std::printf("%-22s (no collections)\n", R.Label);
    return;
  }
  double TraceUs = S.StackTraceNanos / 1000.0 / S.Collections;
  double GcUs = S.GcNanos / 1000.0 / S.Collections;
  double Frames = static_cast<double>(S.FramesTraced) / S.Collections;
  double PerFrameUs =
      S.FramesTraced ? S.StackTraceNanos / 1000.0 / S.FramesTraced : 0.0;
  double Fraction = 100.0 * S.StackTraceNanos / S.GcNanos;
  std::printf("%-22s %6llu %10.1f %10.1f %7.1f%% %8.1f %9.3f\n", R.Label,
              static_cast<unsigned long long>(S.Collections), TraceUs, GcUs,
              Fraction, Frames, PerFrameUs);
}

//===----------------------------------------------------------------------===//
// Decode microcosts
//===----------------------------------------------------------------------===//

constexpr int MicroRounds = 7;
/// Each timed batch runs the operation at least this long.
constexpr uint64_t MicroBatchNanos = 500'000;

/// Keeps \p V in a register or memory the compiler must assume is read and
/// written, so neither the operation producing it nor its inputs can be
/// hoisted out of the timing loop or deleted.
template <typename T> inline void keep(T &V) {
  asm volatile("" : "+r,m"(V) : : "memory");
}

/// One microcost row: Batch(N) runs the operation N times.
struct Micro {
  std::string Name;
  std::function<void(uint64_t)> Batch;
  uint64_t Iters = 1;
  uint64_t BestNanos = UINT64_MAX;
  double nsPerOp() const {
    return static_cast<double>(BestNanos) / static_cast<double>(Iters);
  }
};

template <typename Op> std::function<void(uint64_t)> repeat(Op O) {
  return [O](uint64_t N) mutable {
    for (uint64_t I = 0; I != N; ++I)
      O();
  };
}

/// A §6 program compiled at -O2, with its busiest function (the most
/// gc-points) and that function's map index.
struct Tables {
  const char *Name;
  std::unique_ptr<vm::Program> Prog;
  unsigned Func = 0;
  const gcmaps::EncodedFuncMaps *Maps = nullptr;
  const gcmaps::FuncMapIndex *Index = nullptr;

  Tables(const char *Name, const char *Source) : Name(Name) {
    driver::CompilerOptions CO;
    CO.OptLevel = 2;
    Prog = compileOrDie(Name, Source, CO);
    for (unsigned F = 0; F != Prog->Maps.size(); ++F)
      if (!Maps || Prog->Maps[F].RetPCs.size() > Maps->RetPCs.size()) {
        Func = F;
        Maps = &Prog->Maps[F];
        Index = &Prog->MapIndexes[F];
      }
  }
};

/// Runs destroy to completion in a VM left alive for collectNow().
std::unique_ptr<vm::VM> finalHeap(const vm::Program &Prog, bool Indexed) {
  vm::VMOptions VO;
  VO.HeapBytes = 1u << 20;
  VO.StackWords = 1u << 20;
  VO.UseMapIndex = Indexed;
  auto M = std::make_unique<vm::VM>(Prog, VO);
  gc::installPreciseCollector(*M);
  if (!M->run()) {
    std::fprintf(stderr, "destroy: run failed: %s\n", M->Error.c_str());
    std::exit(1);
  }
  return M;
}

/// Times every row: after a warm-up batch, each row's batch size is doubled
/// until one batch takes MicroBatchNanos; then each of MicroRounds rounds
/// times one batch of every row in turn, and the row keeps its fastest.
void timeMicro(std::vector<Micro> &Rows) {
  for (Micro &R : Rows)
    for (R.Batch(2);;) {
      uint64_t T0 = cpuNanos();
      R.Batch(R.Iters);
      if (cpuNanos() - T0 >= MicroBatchNanos)
        break;
      R.Iters *= 2;
    }
  for (int Round = 0; Round != MicroRounds; ++Round)
    for (Micro &R : Rows) {
      uint64_t T0 = cpuNanos();
      R.Batch(R.Iters);
      R.BestNanos = std::min(R.BestNanos, cpuNanos() - T0);
    }
}

std::vector<Micro> decodeMicros(Tables &Destroy, Tables &TypeReg,
                                std::vector<std::unique_ptr<vm::VM>> &VMs) {
  std::vector<Micro> Rows;
  auto Add = [&](std::string Name, std::function<void(uint64_t)> B) {
    Rows.push_back({std::move(Name), std::move(B)});
  };

  for (int32_t V : {5, 300, 100000, -100000}) {
    std::string Arg = "(" + std::to_string(V) + ")";
    Add("pack_word" + Arg, repeat([V, Out = std::vector<uint8_t>()]() mutable {
          int32_t W = V;
          keep(W);
          Out.clear();
          appendPacked(Out, W);
          keep(Out);
        }));
    std::vector<uint8_t> Bytes;
    appendPacked(Bytes, V);
    Add("unpack_word" + Arg, repeat([Bytes] {
          size_t Pos = 0;
          int32_t W = readPacked(Bytes.data(), Bytes.size(), Pos);
          keep(W);
        }));
  }

  const gcmaps::EncodedFuncMaps &DM = *Destroy.Maps;
  uint32_t MidPC = DM.RetPCs[DM.RetPCs.size() / 2];
  Add("find_gc_point/destroy", repeat([&DM, MidPC] {
        uint32_t PC = MidPC;
        keep(PC);
        int Ord = gcmaps::findGcPoint(DM, PC);
        keep(Ord);
      }));

  // The first gc-point has no identical-to-previous chain to walk; the
  // last one walks the whole chain.
  for (Tables *T : {&Destroy, &TypeReg})
    for (bool Last : {false, true}) {
      const gcmaps::EncodedFuncMaps &Maps = *T->Maps;
      const gcmaps::FuncMapIndex &Index = *T->Index;
      unsigned Ord = Last ? static_cast<unsigned>(Maps.RetPCs.size()) - 1 : 0;
      std::string Name = std::string(Last ? "decode_last/" : "decode_first/") +
                         T->Name + "/";
      Add(Name + "reference", repeat([&Maps, Ord] {
            gcmaps::GcPointInfo Info = gcmaps::decodeGcPoint(Maps, Ord);
            keep(Info.RegMask);
          }));
      Add(Name + "indexed",
          repeat([&Maps, &Index, Ord, Info = gcmaps::GcPointInfo()]() mutable {
            gcmaps::decodeGcPointIndexed(Maps, Index, Ord, Info);
            keep(Info.RegMask);
          }));
      gcmaps::DecodedPointCache Cache;
      gcmaps::decodeGcPointIndexed(Maps, Index, Ord,
                                   Cache.insert(T->Func, Ord));
      Add(Name + "cached",
          repeat([Cache = std::move(Cache), Func = T->Func, Ord]() mutable {
            const gcmaps::GcPointInfo *Info = Cache.lookup(Func, Ord);
            keep(Info);
          }));
    }

  const vm::Program &DP = *Destroy.Prog;
  Add("decode_all/destroy/reference", repeat([&DP] {
        size_t Total = 0;
        for (const gcmaps::EncodedFuncMaps &Maps : DP.Maps)
          for (unsigned K = 0; K != Maps.RetPCs.size(); ++K)
            Total += gcmaps::decodeGcPoint(Maps, K).LiveSlots.size();
        keep(Total);
      }));
  Add("decode_all/destroy/indexed",
      repeat([&DP, Info = gcmaps::GcPointInfo()]() mutable {
        size_t Total = 0;
        for (size_t F = 0; F != DP.Maps.size(); ++F)
          for (unsigned K = 0; K != DP.Maps[F].RetPCs.size(); ++K) {
            gcmaps::decodeGcPointIndexed(DP.Maps[F], DP.MapIndexes[F], K,
                                         Info);
            Total += Info.LiveSlots.size();
          }
        keep(Total);
      }));
  Add("build_map_index/destroy", repeat([&DP] {
        size_t Points = 0;
        for (const gcmaps::EncodedFuncMaps &Maps : DP.Maps)
          Points += gcmaps::buildFuncMapIndex(Maps).Points.size();
        keep(Points);
      }));

  for (bool Indexed : {false, true}) {
    VMs.push_back(finalHeap(DP, Indexed));
    vm::VM &M = *VMs.back();
    Add(std::string("full_collection/destroy/") +
            (Indexed ? "indexed" : "reference"),
        repeat([&M] { M.collectNow(); }));
  }
  return Rows;
}

} // namespace

int main() {
  std::printf("Section 6.3: stack tracing cost on the destroy benchmark\n");
  std::printf("(paper, VAXStation 3500: 470us/collection tracing, 27-98us "
              "per frame,\n tracing <1.7%%-6%% of total gc time)\n\n");
  std::printf("%-22s %6s %10s %10s %8s %8s %9s\n", "workload", "colls",
              "trace us", "gc us", "trace%", "frames", "us/frame");
  printRule(80);

  vm::VMOptions Reference;
  Reference.UseMapIndex = false;
  vm::VMOptions Indexed; // Defaults: index + cache.

  struct Workload {
    const char *Label;
    std::string Source;
    size_t HeapBytes;
  };
  std::vector<Workload> Workloads;
  // Paper-scale destroy plus two heavier variants.
  Workloads.push_back(
      {"destroy(3,6,60)", destroySource(3, 6, 60), 48u << 10});
  Workloads.push_back(
      {"destroy(3,7,200)", destroySource(3, 7, 200), 160u << 10});
  Workloads.push_back(
      {"destroy(2,12,80)", destroySource(2, 12, 80), 400u << 10});
  // A less gc-intensive program for the paper's "five times lower gc cost"
  // remark.
  Workloads.push_back({"typereg", programs::TypeRegSource, 64u << 10});

  // Reference decoder: the §6.3 measured artifact.
  std::vector<Row> Rows;
  for (const Workload &W : Workloads)
    Rows.push_back(
        runWorkload(W.Label, W.Source, W.HeapBytes, Reference));
  for (const Row &R : Rows)
    printRow(R);
  printRule(80);

  // The same workloads through the load-time index + decoded-point cache.
  std::printf("\nDecode acceleration: same workloads, load-time index + "
              "decoded-point cache\n");
  std::printf("%-22s %10s %10s %8s %9s %9s %10s\n", "workload", "trace us",
              "speedup", "hit%", "misses", "skippedKB", "roots==ref");
  printRule(84);
  for (size_t I = 0; I != Workloads.size(); ++I) {
    const Workload &W = Workloads[I];
    Row R = runWorkload(W.Label, W.Source, W.HeapBytes, Indexed);
    const vm::VMStats &S = R.Stats;
    const vm::VMStats &Ref = Rows[I].Stats;
    if (S.Collections == 0)
      continue;
    // Identical semantics is part of the contract: the accelerated walk
    // must enumerate exactly the reference roots and derived values.
    bool Same = S.RootsTraced == Ref.RootsTraced &&
                S.DerivedAdjusted == Ref.DerivedAdjusted &&
                S.FramesTraced == Ref.FramesTraced;
    if (!Same) {
      std::fprintf(stderr,
                   "%s: indexed trace diverged from reference "
                   "(roots %llu vs %llu)\n",
                   W.Label, static_cast<unsigned long long>(S.RootsTraced),
                   static_cast<unsigned long long>(Ref.RootsTraced));
      return 1;
    }
    double TraceUs = S.StackTraceNanos / 1000.0 / S.Collections;
    double Speedup = S.StackTraceNanos
                         ? static_cast<double>(Ref.StackTraceNanos) /
                               static_cast<double>(S.StackTraceNanos)
                         : 0.0;
    double HitPct = 100.0 * static_cast<double>(S.DecodeCacheHits) /
                    static_cast<double>(S.DecodeCacheHits +
                                        S.DecodeCacheMisses);
    std::printf("%-22s %10.1f %9.2fx %7.1f%% %9llu %10.1f %10s\n", W.Label,
                TraceUs, Speedup, HitPct,
                static_cast<unsigned long long>(S.DecodeCacheMisses),
                S.DecodeBytesSkipped / 1024.0, "yes");
  }
  printRule(84);

  // Cross-check mode: every decode of all four benchmark programs is also
  // run through the reference decoder; any disagreement aborts.
  vm::VMOptions Checked;
  Checked.CrossCheck = true;
  std::printf("\nCross-check (cached == reference on every decode): ");
  for (const programs::NamedProgram &P : programs::All)
    runWorkload(P.Name, P.Source, 96u << 10, Checked);
  std::printf("ok on all four benchmark programs\n");

  std::printf("\nAblation: precise (table-driven) root enumeration vs "
              "conservative whole-stack scan\n");
  std::printf("%-22s %14s %14s %14s %12s\n", "workload", "precise us/coll",
              "conserv us/scan", "words/scan", "cand ptrs");
  printRule(82);
  for (const Row &R : Rows) {
    if (R.ConservativeRuns == 0)
      continue;
    std::printf("%-22s %14.1f %14.1f %14.0f %12.0f\n", R.Label,
                R.Stats.StackTraceNanos / 1000.0 / R.Stats.Collections,
                R.Conservative.Nanos / 1000.0 / R.ConservativeRuns,
                static_cast<double>(R.Conservative.WordsScanned) /
                    R.ConservativeRuns,
                static_cast<double>(R.Conservative.CandidatePointers) /
                    R.ConservativeRuns);
  }
  printRule(82);
  std::printf("\n(The conservative scan visits every stack word; the "
              "precise walk touches only\ntable-described locations but "
              "pays table decoding. The paper's claim is that the\nprecise "
              "cost is a small fraction of total gc time.)\n");

  Tables Destroy("destroy", programs::DestroySource);
  Tables TypeReg("typereg", programs::TypeRegSource);
  std::vector<std::unique_ptr<vm::VM>> VMs;
  std::vector<Micro> Micros = decodeMicros(Destroy, TypeReg, VMs);
  timeMicro(Micros);
  std::printf("\nDecode microcosts (CPU time per operation, min of %d "
              "interleaved rounds)\n",
              MicroRounds);
  std::printf("%-34s %12s %12s\n", "operation", "ns/op", "iters");
  printRule(60);
  BenchFile File;
  File.J.uint("rounds", MicroRounds).beginArray("microcosts");
  for (const Micro &R : Micros) {
    std::printf("%-34s %12.1f %12llu\n", R.Name.c_str(), R.nsPerOp(),
                static_cast<unsigned long long>(R.Iters));
    File.J.beginObject()
        .str("name", R.Name)
        .uint("iters", R.Iters)
        .fixed("ns_per_op", R.nsPerOp(), 2)
        .endObject();
  }
  printRule(60);
  File.J.endArray();
  return File.write("BENCH_decode.json") ? 0 : 1;
}
