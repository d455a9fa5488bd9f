//===- tests/SnapshotTest.cpp - Heap snapshot tests ------------------------===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for precise heap snapshots (obs/HeapSnapshot.h + gc/Snapshot.h):
/// exact node/edge/root ground truth for a handwritten program across the
/// -O0/-O2 x two-space/gen-gc matrix, dominator/retained-size unit tests
/// on a hand-built diamond+cycle graph, persistent-attribution ages,
/// NoSite behavior for objects predating site linking, snapshot diffing
/// of an induced leak, codec round-trips and mutation strictness over the
/// frozen corpus, and the capture-vs-recount-vs-conservative cross-check
/// on the §6 benchmarks and the corpus in all four configurations, plus
/// the stack walk's failure path on a corrupt frame chain.
///
/// Every suite name starts with "Snap" — tests/CMakeLists.txt gives them
/// the `snap` ctest label.
///
//===----------------------------------------------------------------------===//

#include "Corpus.h"
#include "Programs.h"
#include "TestUtil.h"

#include "gc/Snapshot.h"
#include "obs/HeapSnapshot.h"
#include "obs/Trace.h"

#include <algorithm>
#include <memory>

using namespace mgc;
using namespace mgc::test;

namespace {

//===----------------------------------------------------------------------===//
// Helper: compile, run, capture the at-exit snapshot
//===----------------------------------------------------------------------===//

struct SnapRun {
  bool Ok = false;
  std::string Out;
  std::string Error;
  vm::VMStats Stats;
  obs::HeapSnapshot Snap;
  bool Captured = false;
  bool CrosscheckOk = false;
  std::string SnapErr;
};

/// Compiles \p Source at \p Opt, runs it under the given collector mode
/// with an attribution tracer attached, then captures and cross-checks
/// the at-exit snapshot.
SnapRun runAndSnapshot(const std::string &Source, int Opt, bool Gen,
                       size_t HeapBytes = 1u << 20,
                       size_t NurseryBytes = 8u << 10, bool Stress = false,
                       bool WithTracer = true) {
  SnapRun R;
  driver::CompilerOptions CO;
  CO.OptLevel = Opt;
  CO.WriteBarriers = Gen;
  auto C = driver::compile(Source, CO);
  if (!C.Prog) {
    ADD_FAILURE() << "compilation failed:\n" << C.Diags.str();
    return R;
  }
  vm::VMOptions VO;
  VO.HeapBytes = HeapBytes;
  VO.GenGc = Gen;
  VO.NurseryBytes = Gen ? NurseryBytes : 0;
  VO.GcStress = Stress;
  VO.CrossCheck = true;
  vm::VM M(*C.Prog, VO);
  gc::installPreciseCollector(M);

  std::unique_ptr<obs::Tracer> Tracer;
  if (WithTracer) {
    obs::TracerConfig TC;
    TC.Sites = &C.Prog->SiteTab;
    for (const auto &F : C.Prog->Funcs)
      TC.FuncNames.push_back(F.Name);
    TC.ProgramName = "test";
    TC.GenGc = Gen;
    Tracer = std::make_unique<obs::Tracer>(std::move(TC));
    Tracer->enable(nullptr);
    M.Tracer = Tracer.get();
  }

  R.Ok = M.run();
  R.Out = M.Out;
  R.Error = M.Error;
  R.Stats = M.Stats;
  if (!R.Ok)
    return R;
  R.Captured = gc::captureHeapSnapshot(M, R.Snap, /*WalkStacks=*/true,
                                       R.SnapErr);
  if (R.Captured)
    R.CrosscheckOk =
        gc::crosscheckSnapshot(M, R.Snap, /*WalkStacks=*/true, R.SnapErr);
  return R;
}

/// Sum of retained sizes over the super-root's immediate children.
uint64_t rootRetained(const obs::HeapSnapshot &S) {
  std::vector<int32_t> Idom = obs::computeIdoms(S);
  std::vector<uint64_t> Ret = obs::retainedSizes(S, Idom);
  uint64_t Total = 0;
  for (size_t I = 0; I != S.Nodes.size(); ++I)
    if (Idom[I] == obs::IdomRoot)
      Total += Ret[I];
  return Total;
}

//===----------------------------------------------------------------------===//
// Ground truth: exact nodes, edges, roots
//===----------------------------------------------------------------------===//

// At exit exactly three objects are reachable from the globals: a PairRec
// 'a' pointing twice at PairRec 'b' (left and right), and a 4-element open
// integer array.  The temporary 't' dies inside Build.
const char *GroundTruthSource = R"MG(MODULE SnapGT;
TYPE
  Pair = REF PairRec;
  PairRec = RECORD v: INTEGER; left, right: Pair END;
  IArr = REF ARRAY OF INTEGER;
VAR a, b: Pair; arr: IArr; sink: INTEGER;
PROCEDURE Build();
VAR t: Pair;
BEGIN
  a := NEW(Pair);
  b := NEW(Pair);
  t := NEW(Pair);
  t^.v := 9;
  a^.v := 1;
  b^.v := 2;
  a^.left := b;
  a^.right := b;
  arr := NEW(IArr, 4);
  arr^[0] := 7;
  GcCollect();
  sink := t^.v
END Build;
BEGIN
  Build()
END SnapGT.
)MG";

struct GroundTruthIds {
  size_t A = 0, B = 0, Arr = 0;
};

/// Identifies the three nodes structurally: 'a' is the node with two
/// edges, 'b' its (sole) target, 'arr' the edgeless open array.
GroundTruthIds identify(const obs::HeapSnapshot &S) {
  GroundTruthIds Ids;
  bool FoundA = false, FoundArr = false;
  for (size_t I = 0; I != S.Nodes.size(); ++I) {
    if (S.Nodes[I].NumEdges == 2) {
      Ids.A = I;
      Ids.B = S.Edges[S.Nodes[I].FirstEdge].Target;
      FoundA = true;
    } else if (S.Nodes[I].ShallowBytes == 48) {
      Ids.Arr = I;
      FoundArr = true;
    }
  }
  EXPECT_TRUE(FoundA && FoundArr) << "ground-truth shape not found";
  return Ids;
}

TEST(SnapGroundTruth, ExactGraphAcrossConfigs) {
  for (int Opt : {0, 2})
    for (bool Gen : {false, true}) {
      SCOPED_TRACE("O" + std::to_string(Opt) + (Gen ? " gen" : " two"));
      SnapRun R = runAndSnapshot(GroundTruthSource, Opt, Gen);
      ASSERT_TRUE(R.Ok) << R.Error;
      ASSERT_TRUE(R.Captured) << R.SnapErr;
      EXPECT_TRUE(R.CrosscheckOk) << R.SnapErr;
      const obs::HeapSnapshot &S = R.Snap;

      // Exactly: three live objects, two edges (a->b twice), three global
      // roots, 32+32+48 live bytes.
      ASSERT_EQ(S.Nodes.size(), 3u);
      ASSERT_EQ(S.Edges.size(), 2u);
      ASSERT_EQ(S.Roots.size(), 3u);
      EXPECT_EQ(S.totalBytes(), 112u);
      EXPECT_EQ(S.GenGc, Gen);
      EXPECT_TRUE(S.StacksWalked);

      GroundTruthIds Ids = identify(S);
      const auto &A = S.Nodes[Ids.A];
      const auto &B = S.Nodes[Ids.B];
      const auto &Arr = S.Nodes[Ids.Arr];
      EXPECT_EQ(A.ShallowBytes, 32u);
      EXPECT_EQ(B.ShallowBytes, 32u);
      EXPECT_EQ(B.NumEdges, 0u);
      EXPECT_EQ(Arr.NumEdges, 0u);
      // Both of a's edges hit b, at the left/right payload words (v is
      // word 1; header is word 0).
      EXPECT_EQ(S.Edges[A.FirstEdge].Slot, 2u);
      EXPECT_EQ(S.Edges[A.FirstEdge + 1].Slot, 3u);
      EXPECT_EQ(S.Edges[A.FirstEdge].Target, S.Edges[A.FirstEdge + 1].Target);

      // All three roots are globals, rooting exactly {a, b, arr}.
      std::vector<char> Rooted(S.Nodes.size(), 0);
      for (const auto &Rt : S.Roots) {
        EXPECT_EQ(Rt.Kind, obs::HeapSnapshot::RootKind::Global);
        EXPECT_EQ(Rt.Func, obs::NoFunc);
        Rooted[Rt.Node] = 1;
      }
      EXPECT_TRUE(Rooted[Ids.A] && Rooted[Ids.B] && Rooted[Ids.Arr]);

      // Attribution: a and b come from distinct NEW(Pair) sites; the array
      // from a third.  All survived the explicit collection.
      EXPECT_NE(A.Site, obs::NoSite);
      EXPECT_NE(B.Site, obs::NoSite);
      EXPECT_NE(Arr.Site, obs::NoSite);
      EXPECT_NE(A.Site, B.Site);
      EXPECT_NE(A.Site, Arr.Site);
      ASSERT_LT(A.Site, S.Sites.size());
      EXPECT_NE(S.Sites[A.Site].Line, S.Sites[B.Site].Line);

      // Retained sizes: b is independently rooted, so a retains only
      // itself; the root-retained sum covers the whole live heap.
      std::vector<int32_t> Idom = obs::computeIdoms(S);
      std::vector<uint64_t> Ret = obs::retainedSizes(S, Idom);
      EXPECT_EQ(Idom[Ids.A], obs::IdomRoot);
      EXPECT_EQ(Idom[Ids.B], obs::IdomRoot);
      EXPECT_EQ(Ret[Ids.A], 32u);
      EXPECT_EQ(Ret[Ids.B], 32u);
      EXPECT_EQ(rootRetained(S), S.totalBytes());

      // Determinism: a second identical run yields a bit-identical
      // snapshot and encoding.
      SnapRun R2 = runAndSnapshot(GroundTruthSource, Opt, Gen);
      ASSERT_TRUE(R2.Captured) << R2.SnapErr;
      EXPECT_TRUE(R.Snap == R2.Snap);
      std::vector<uint8_t> B1, B2;
      obs::encodeSnapshot(R.Snap, B1);
      obs::encodeSnapshot(R2.Snap, B2);
      EXPECT_EQ(B1, B2);
    }
}

TEST(SnapGroundTruth, RenderAndPathTo) {
  SnapRun R = runAndSnapshot(GroundTruthSource, 2, false);
  ASSERT_TRUE(R.Captured) << R.SnapErr;
  std::string Text = obs::renderSnapshot(R.Snap, 10);
  EXPECT_NE(Text.find("3 nodes"), std::string::npos) << Text;
  EXPECT_NE(Text.find("equals live bytes"), std::string::npos) << Text;
  GroundTruthIds Ids = identify(R.Snap);
  std::string Path =
      obs::renderPathTo(R.Snap, static_cast<uint32_t>(Ids.B));
  // b is rooted directly: the shortest path is zero hops from a global.
  EXPECT_NE(Path.find("0 hop(s)"), std::string::npos) << Path;
  EXPECT_NE(Path.find("global word"), std::string::npos) << Path;
  EXPECT_NE(obs::renderPathTo(R.Snap, 999).find("out of range"),
            std::string::npos);
}

//===----------------------------------------------------------------------===//
// Dominators and retained sizes on a hand-built graph
//===----------------------------------------------------------------------===//

/// Builds the test graph: diamond A->{B,C}->D plus cycle D->E->F->D, every
/// node 8 shallow bytes, rooted as given.  With \p WithUnreachable a node
/// G (with an edge back into the cycle) is appended but never rooted.
obs::HeapSnapshot diamondCycle(const std::vector<uint32_t> &RootNodes,
                               bool WithUnreachable) {
  obs::HeapSnapshot S;
  S.Program = "unit";
  auto AddNode = [&](std::vector<uint32_t> Targets) {
    obs::HeapSnapshot::Node N;
    N.OffsetWords = S.Nodes.size() * 2;
    N.ShallowBytes = 8;
    N.FirstEdge = static_cast<uint32_t>(S.Edges.size());
    N.NumEdges = static_cast<uint32_t>(Targets.size());
    for (uint32_t T : Targets)
      S.Edges.push_back({1, T});
    S.Nodes.push_back(N);
  };
  AddNode({1, 2}); // A -> B, C
  AddNode({3});    // B -> D
  AddNode({3});    // C -> D
  AddNode({4});    // D -> E
  AddNode({5});    // E -> F
  AddNode({3});    // F -> D (cycle)
  if (WithUnreachable)
    AddNode({3}); // G -> D, never rooted
  for (uint32_t N : RootNodes) {
    obs::HeapSnapshot::Root R;
    R.Kind = obs::HeapSnapshot::RootKind::Global;
    R.Index = static_cast<int32_t>(N);
    R.Node = N;
    S.Roots.push_back(R);
  }
  return S;
}

TEST(SnapDominators, DiamondAndCycle) {
  obs::HeapSnapshot S = diamondCycle({0}, /*WithUnreachable=*/false);
  std::vector<int32_t> Idom = obs::computeIdoms(S);
  ASSERT_EQ(Idom.size(), 6u);
  EXPECT_EQ(Idom[0], obs::IdomRoot);
  EXPECT_EQ(Idom[1], 0); // B: only via A
  EXPECT_EQ(Idom[2], 0); // C: only via A
  EXPECT_EQ(Idom[3], 0); // D: joins B/C paths -> A
  EXPECT_EQ(Idom[4], 3); // E: only via D
  EXPECT_EQ(Idom[5], 4); // F: only via E

  std::vector<uint64_t> Ret = obs::retainedSizes(S, Idom);
  EXPECT_EQ(Ret[5], 8u);
  EXPECT_EQ(Ret[4], 16u);
  EXPECT_EQ(Ret[3], 24u); // D retains the whole cycle
  EXPECT_EQ(Ret[1], 8u);
  EXPECT_EQ(Ret[2], 8u);
  EXPECT_EQ(Ret[0], 48u); // A retains everything
  EXPECT_EQ(rootRetained(S), S.totalBytes());
}

TEST(SnapDominators, SecondRootSplitsRetention) {
  // Rooting D directly re-parents the cycle to the super-root: A now
  // retains only the diamond top, and the retained sums still partition
  // the live bytes.
  obs::HeapSnapshot S = diamondCycle({0, 3}, /*WithUnreachable=*/false);
  std::vector<int32_t> Idom = obs::computeIdoms(S);
  EXPECT_EQ(Idom[0], obs::IdomRoot);
  EXPECT_EQ(Idom[3], obs::IdomRoot);
  EXPECT_EQ(Idom[4], 3);
  EXPECT_EQ(Idom[5], 4);
  std::vector<uint64_t> Ret = obs::retainedSizes(S, Idom);
  EXPECT_EQ(Ret[0], 24u); // A, B, C
  EXPECT_EQ(Ret[3], 24u); // D, E, F
  EXPECT_EQ(rootRetained(S), S.totalBytes());
}

TEST(SnapDominators, UnreachableNodeRetainsNothing) {
  obs::HeapSnapshot S = diamondCycle({0}, /*WithUnreachable=*/true);
  std::vector<int32_t> Idom = obs::computeIdoms(S);
  ASSERT_EQ(Idom.size(), 7u);
  EXPECT_EQ(Idom[6], obs::IdomUnreachable);
  // G's edge into the cycle must not perturb the reachable dominators.
  EXPECT_EQ(Idom[3], 0);
  EXPECT_EQ(Idom[4], 3);
  std::vector<uint64_t> Ret = obs::retainedSizes(S, Idom);
  EXPECT_EQ(Ret[6], 0u);
  EXPECT_EQ(rootRetained(S), S.totalBytes() - 8u);
}

//===----------------------------------------------------------------------===//
// Persistent attribution: collection-count ages
//===----------------------------------------------------------------------===//

TEST(SnapAttribution, AgeCountsCollectionsSurvived) {
  const char *Source = R"MG(MODULE SnapAge;
TYPE Pair = REF PairRec;
     PairRec = RECORD v: INTEGER; left, right: Pair END;
VAR g: Pair; i: INTEGER;
BEGIN
  g := NEW(Pair);
  g^.v := 1;
  FOR i := 1 TO 5 DO GcCollect() END
END SnapAge.
)MG";
  SnapRun R = runAndSnapshot(Source, 2, /*Gen=*/false);
  ASSERT_TRUE(R.Ok) << R.Error;
  ASSERT_TRUE(R.Captured) << R.SnapErr;
  EXPECT_EQ(R.Stats.Collections, 5u);
  ASSERT_EQ(R.Snap.Nodes.size(), 1u);
  EXPECT_EQ(R.Snap.Nodes[0].Age, 5u);
  EXPECT_NE(R.Snap.Nodes[0].Site, obs::NoSite);
}

//===----------------------------------------------------------------------===//
// The stack walk's failure path: a corrupt frame chain is an error
//===----------------------------------------------------------------------===//

// Every collection happens inside Work, so the innermost frame has a
// caller: the module body, which holds the Pair it passes to Keep while
// Work runs.  Pointing Work's saved caller FP (Stack[FP-2]) past the end
// of the stack, or below the first frame, must make capture fail instead
// of reading outside ThreadContext::Stack; restored, the capture succeeds
// (with a root in the body's frame) and the run finishes.
TEST(SnapWalk, CorruptCallerFrameIsAnError) {
  const char *Source = R"MG(MODULE SnapWalk;
TYPE Pair = REF PairRec;
     PairRec = RECORD v: INTEGER; left, right: Pair END;
VAR g: Pair; i: INTEGER;
PROCEDURE Work(): INTEGER;
VAR p: Pair;
BEGIN
  p := NEW(Pair);
  p^.left := g;
  g := p;
  GcCollect();
  RETURN 1
END Work;
PROCEDURE Keep(p: Pair; n: INTEGER);
BEGIN
  p^.v := n;
  p^.right := g;
  g := p
END Keep;
BEGIN
  FOR i := 1 TO 3 DO Keep(NEW(Pair), Work()) END
END SnapWalk.
)MG";
  auto C = driver::compile(Source, driver::CompilerOptions());
  ASSERT_TRUE(C.Prog) << C.Diags.str();
  vm::VM M(*C.Prog, vm::VMOptions());
  gc::installPreciseCollector(M);
  unsigned Collections = 0, Rejected = 0, Restored = 0;
  std::string Err;
  M.PostGcHook = [&](vm::VM &V) {
    ++Collections;
    vm::ThreadContext &T = *V.Threads[0];
    vm::Word &CallerFP = T.Stack[T.FP - 2];
    const vm::Word Saved = CallerFP;
    obs::HeapSnapshot S;
    for (vm::Word Bad : {vm::Word(T.StackWords + 1024), vm::Word(1)}) {
      CallerFP = Bad;
      if (!gc::captureHeapSnapshot(V, S, /*WalkStacks=*/true, Err) &&
          Err.find("leaves its stack") != std::string::npos)
        ++Rejected;
    }
    CallerFP = Saved;
    std::string RestoredErr;
    if (gc::captureHeapSnapshot(V, S, /*WalkStacks=*/true, RestoredErr) &&
        std::any_of(S.Roots.begin(), S.Roots.end(),
                    [](const obs::HeapSnapshot::Root &R) {
                      return R.Frame == 1;
                    }))
      ++Restored;
  };
  ASSERT_TRUE(M.run()) << M.Error;
  EXPECT_EQ(Collections, 3u);
  EXPECT_EQ(Rejected, 2 * Collections) << Err;
  EXPECT_EQ(Restored, Collections);
}

//===----------------------------------------------------------------------===//
// NoSite: attribution gaps must degrade, not drop or crash
//===----------------------------------------------------------------------===//

const char *NoSiteSource = R"MG(MODULE SnapNS;
TYPE Pair = REF PairRec;
     PairRec = RECORD v: INTEGER; left, right: Pair END;
     IArr = REF ARRAY OF INTEGER;
VAR g: Pair; h: IArr;
BEGIN
  g := NEW(Pair);
  g^.v := 1;
  GcCollect();
  GcCollect();
  h := NEW(IArr, 4);
  h^[0] := 2;
  GcCollect()
END SnapNS.
)MG";

TEST(SnapNoSite, TracerFreeCaptureIsFullyAttributed) {
  // Attribution is header-borne, so a capture with no tracer attached at
  // all still sees exact sites and ages: 'g' survives all three
  // collections (age 3), 'h' only the last (age 1).
  SnapRun R = runAndSnapshot(NoSiteSource, 2, /*Gen=*/false, 1u << 20,
                             8u << 10, /*Stress=*/false,
                             /*WithTracer=*/false);
  ASSERT_TRUE(R.Ok) << R.Error;
  ASSERT_TRUE(R.Captured) << R.SnapErr;
  EXPECT_TRUE(R.CrosscheckOk) << R.SnapErr;
  ASSERT_EQ(R.Snap.Nodes.size(), 2u);
  const obs::HeapSnapshot::Node *G = nullptr, *H = nullptr;
  for (const auto &N : R.Snap.Nodes)
    (N.ShallowBytes == 48 ? H : G) = &N;
  ASSERT_TRUE(G && H);
  EXPECT_NE(G->Site, obs::NoSite);
  EXPECT_NE(H->Site, obs::NoSite);
  EXPECT_NE(G->Site, H->Site);
  EXPECT_EQ(G->Age, 3u);
  EXPECT_EQ(H->Age, 1u);
}

TEST(SnapNoSite, ObjectsPredatingSiteLinking) {
  // Strip the compiled program's site linking — every allocation
  // instruction reverts to the NoAllocSite sentinel and the site table
  // goes away, as for code built before the driver links attributions.
  // Every object must still appear in the snapshot, as NoSite with a
  // correct age, and the cross-check must hold.
  driver::CompilerOptions CO;
  CO.OptLevel = 2;
  auto C = driver::compile(NoSiteSource, CO);
  ASSERT_TRUE(C.Prog != nullptr) << C.Diags.str();
  for (vm::MInstr &I : C.Prog->Code)
    I.Site = vm::NoAllocSite;
  C.Prog->SiteTab.Sites.clear();
  C.Prog->SiteTab.Attrs.clear();

  vm::VM M(*C.Prog, {});
  gc::installPreciseCollector(M);

  obs::TracerConfig TC;
  TC.Sites = &C.Prog->SiteTab;
  TC.ProgramName = "test";
  obs::Tracer Tracer(std::move(TC));
  Tracer.enable(nullptr);
  M.Tracer = &Tracer;

  ASSERT_TRUE(M.run()) << M.Error;
  EXPECT_EQ(Tracer.unattributedCount(), 2u);

  obs::HeapSnapshot S;
  std::string Err;
  ASSERT_TRUE(gc::captureHeapSnapshot(M, S, /*WalkStacks=*/true, Err))
      << Err;
  EXPECT_TRUE(gc::crosscheckSnapshot(M, S, /*WalkStacks=*/true, Err))
      << Err;
  ASSERT_EQ(S.Nodes.size(), 2u);
  const obs::HeapSnapshot::Node *G = nullptr, *H = nullptr;
  for (const auto &N : S.Nodes)
    (N.ShallowBytes == 48 ? H : G) = &N;
  ASSERT_TRUE(G && H);
  EXPECT_EQ(G->Site, obs::NoSite);
  EXPECT_EQ(H->Site, obs::NoSite);
  EXPECT_EQ(G->Age, 3u);
  EXPECT_EQ(H->Age, 1u);
}

//===----------------------------------------------------------------------===//
// Diffing: induced leak
//===----------------------------------------------------------------------===//

std::string leakSource(int Iters) {
  std::string S = R"MG(MODULE Leak;
TYPE Cell = REF CellRec; CellRec = RECORD v: INTEGER; next: Cell END;
     Big = REF BigRec; BigRec = RECORD a, b, c: INTEGER; next: Big END;
VAR keep: Big; sink: INTEGER;
PROCEDURE Grab(): Big;
BEGIN
  RETURN NEW(Big)
END Grab;
PROCEDURE Loop(n: INTEGER);
VAR i: INTEGER; t: Cell; k: Big;
BEGIN
  FOR i := 1 TO n DO
    t := NEW(Cell);
    t^.v := i;
    sink := sink + t^.v;
    IF i MOD 10 = 0 THEN
      k := Grab();
      k^.next := keep;
      keep := k
    END
  END
END Loop;
BEGIN
  Loop(@N@)
END Leak.
)MG";
  size_t P = S.find("@N@");
  S.replace(P, 3, std::to_string(Iters));
  return S;
}

TEST(SnapDiff, PinpointsLeakingSite) {
  SnapRun Old = runAndSnapshot(leakSource(100), 2, false, 256u << 10);
  SnapRun New = runAndSnapshot(leakSource(1000), 2, false, 256u << 10);
  ASSERT_TRUE(Old.Captured && New.Captured)
      << Old.SnapErr << New.SnapErr;
  // Every 10th iteration leaks one Big through Grab: 10 vs 100 retained.
  EXPECT_EQ(Old.Snap.Nodes.size(), 10u);
  EXPECT_EQ(New.Snap.Nodes.size(), 100u);
  std::string D = obs::diffSnapshots(Old.Snap, New.Snap, 5);
  // The top growth row must name the allocation inside Grab.
  size_t Header = D.find("site\n");
  ASSERT_NE(Header, std::string::npos) << D;
  size_t FirstRow = Header + 5;
  size_t RowEnd = D.find('\n', FirstRow);
  std::string Row = D.substr(FirstRow, RowEnd - FirstRow);
  EXPECT_NE(Row.find("Grab:"), std::string::npos) << D;
  EXPECT_NE(Row.find("+90"), std::string::npos) << D;
}

TEST(SnapDiff, NoGrowthWhenIdentical) {
  SnapRun A = runAndSnapshot(leakSource(100), 2, false, 256u << 10);
  SnapRun B = runAndSnapshot(leakSource(100), 2, false, 256u << 10);
  ASSERT_TRUE(A.Captured && B.Captured);
  std::string D = obs::diffSnapshots(A.Snap, B.Snap, 5);
  EXPECT_NE(D.find("(+0)"), std::string::npos) << D;
}

//===----------------------------------------------------------------------===//
// Codec: round-trip and strictness over the frozen corpus
//===----------------------------------------------------------------------===//

TEST(SnapCodec, RoundTripOverCorpus) {
  for (const CorpusProgram &P : corpus()) {
    SCOPED_TRACE(P.Name);
    SnapRun R = runAndSnapshot(P.Source, 2, /*Gen=*/false, 256u << 10);
    ASSERT_TRUE(R.Ok) << R.Error;
    ASSERT_TRUE(R.Captured) << R.SnapErr;
    std::vector<uint8_t> Blob;
    obs::encodeSnapshot(R.Snap, Blob);
    obs::HeapSnapshot D;
    std::string Err;
    ASSERT_TRUE(obs::decodeSnapshot(Blob, D, Err)) << Err;
    EXPECT_TRUE(D == R.Snap) << "decode(encode(S)) != S";
  }
}

TEST(SnapCodec, StrictOnMutation) {
  SnapRun R = runAndSnapshot(corpus().front().Source, 2, false, 256u << 10);
  ASSERT_TRUE(R.Captured) << R.SnapErr;
  std::vector<uint8_t> Blob;
  obs::encodeSnapshot(R.Snap, Blob);
  ASSERT_GT(Blob.size(), 8u);

  obs::HeapSnapshot D;
  std::string Err;
  // Every truncation must be rejected, never crash.
  for (size_t Len = 0; Len < Blob.size(); ++Len) {
    std::vector<uint8_t> T(Blob.begin(), Blob.begin() + Len);
    EXPECT_FALSE(obs::decodeSnapshot(T, D, Err)) << "len " << Len;
  }
  // Trailing garbage is rejected.
  {
    std::vector<uint8_t> T = Blob;
    T.push_back(0);
    EXPECT_FALSE(obs::decodeSnapshot(T, D, Err));
  }
  // Bad magic is rejected.
  {
    std::vector<uint8_t> T = Blob;
    T[0] ^= 0xff;
    EXPECT_FALSE(obs::decodeSnapshot(T, D, Err));
  }
  // Single-byte corruption anywhere either fails cleanly or yields a
  // snapshot that re-encodes consistently — never a crash or a torn
  // structure.
  for (size_t I = 0; I < Blob.size(); ++I) {
    std::vector<uint8_t> T = Blob;
    T[I] ^= 0x40;
    obs::HeapSnapshot M;
    if (obs::decodeSnapshot(T, M, Err)) {
      std::vector<uint8_t> Re;
      obs::encodeSnapshot(M, Re);
      obs::HeapSnapshot M2;
      EXPECT_TRUE(obs::decodeSnapshot(Re, M2, Err)) << "byte " << I;
      EXPECT_TRUE(M2 == M) << "byte " << I;
    }
  }
}

/// A snapshot in which every member holds a distinct value other than its
/// default: nursery nodes evacuated through collections, both flag bits,
/// one root of each kind (the stack kinds in a function), and edges on
/// several nodes.
obs::HeapSnapshot everyFieldSnapshot() {
  using Snap = obs::HeapSnapshot;
  Snap S;
  S.Program = "Every";
  S.ToolVersion = "tool-1";
  S.BuildFlags = "flags-2";
  S.Seed = 0x123456789abcull;
  S.GenGc = true;
  S.StacksWalked = true;
  S.Collections = 0x200000003ull;
  S.FuncNames = {"Main", "Walk"};
  S.TypeNames = {"T0", "T1", "T2"};
  S.Sites = {{1, 17, 9, 2}, {0, 23, 5, 1}};
  // OffsetWords, Desc, Site, Age, ShallowBytes, FirstEdge, NumEdges, Gen.
  S.Nodes = {{41, 1, 0, 3, 24, 0, 2, 1},
             {0x300000000ull, 2, obs::NoSite, 1, 32, 2, 1, 0},
             {77, 2, 1, 4, 40, 3, 0, 1}};
  S.Edges = {{1, 2}, {3, 1}, {2, 0}};
  S.Roots = {{Snap::RootKind::Global, 0, 0, obs::NoFunc, 12, 0},
             {Snap::RootKind::FpSlot, 1, 2, 1, -3, 1},
             {Snap::RootKind::ApSlot, 2, 3, 0, 4, 2},
             {Snap::RootKind::Reg, 3, 4, 1, 5, 0},
             {Snap::RootKind::Derived, 4, 5, 0, 6, 1}};
  return S;
}

TEST(SnapCodec, EveryFieldRoundTrips) {
  for (bool GenGc : {false, true})
    for (bool StacksWalked : {false, true}) {
      SCOPED_TRACE(std::to_string(GenGc) + std::to_string(StacksWalked));
      obs::HeapSnapshot S = everyFieldSnapshot();
      S.GenGc = GenGc;
      S.StacksWalked = StacksWalked;
      std::vector<uint8_t> Blob;
      obs::encodeSnapshot(S, Blob);
      obs::HeapSnapshot D;
      std::string Err;
      ASSERT_TRUE(obs::decodeSnapshot(Blob, D, Err)) << Err;
      EXPECT_TRUE(D == S) << "decode(encode(S)) != S";
    }
}

TEST(SnapCodec, EveryCheckRejectsItsInput) {
  using Snap = obs::HeapSnapshot;
  struct Case {
    const char *Msg;
    void (*Break)(Snap &);
  };
  const Case Cases[] = {
      {"root kind out of range",
       [](Snap &S) { S.Roots[1].Kind = static_cast<Snap::RootKind>(5); }},
      {"node generation out of range", [](Snap &S) { S.Nodes[2].Gen = 2; }},
      {"node type descriptor out of range",
       [](Snap &S) { S.Nodes[0].Desc = 3; }},
      {"node site out of range", [](Snap &S) { S.Nodes[2].Site = 2; }},
      {"edge target out of range", [](Snap &S) { S.Edges[1].Target = 3; }},
      {"root node out of range", [](Snap &S) { S.Roots[3].Node = 3; }},
      {"root function out of range", [](Snap &S) { S.Roots[2].Func = 2; }},
  };
  for (const Case &C : Cases) {
    Snap S = everyFieldSnapshot();
    C.Break(S);
    std::vector<uint8_t> Blob;
    obs::encodeSnapshot(S, Blob);
    Snap D;
    std::string Err;
    EXPECT_FALSE(obs::decodeSnapshot(Blob, D, Err)) << C.Msg;
    EXPECT_EQ(Err, std::string("snapshot decode: ") + C.Msg);
  }
}

//===----------------------------------------------------------------------===//
// Cross-check over the §6 benchmarks and the corpus, all four configs
//===----------------------------------------------------------------------===//

TEST(SnapCrosscheck, BenchmarksAllConfigs) {
  for (const auto &P : programs::All)
    for (int Opt : {0, 2})
      for (bool Gen : {false, true}) {
        SCOPED_TRACE(std::string(P.Name) + " O" + std::to_string(Opt) +
                     (Gen ? " gen" : " two"));
        SnapRun R = runAndSnapshot(P.Source, Opt, Gen, 4u << 20, 32u << 10);
        ASSERT_TRUE(R.Ok) << R.Error;
        EXPECT_EQ(R.Out, P.Expected);
        ASSERT_TRUE(R.Captured) << R.SnapErr;
        EXPECT_TRUE(R.CrosscheckOk) << R.SnapErr;
        EXPECT_EQ(rootRetained(R.Snap), R.Snap.totalBytes());
      }
}

// FieldList passes `VAR pos: INTEGER` locals, so some of its derived
// values have no heap base at all.  Captured after every collection in a
// 64 KiB heap, two-space and generational, each snapshot must be written
// and pass the cross-check: capture anchors a derived value on its first
// base that is a heap object, and records none when no base is one.
TEST(SnapCrosscheck, FieldListAfterEveryCollection) {
  for (bool Gen : {false, true}) {
    SCOPED_TRACE(Gen ? "gen" : "two-space");
    driver::CompilerOptions CO;
    CO.OptLevel = 2;
    CO.WriteBarriers = Gen;
    auto C = driver::compile(programs::FieldListSource, CO);
    ASSERT_TRUE(C.Prog) << C.Diags.str();
    vm::VMOptions VO;
    VO.HeapBytes = 64u << 10;
    VO.GenGc = Gen;
    VO.CrossCheck = true;
    vm::VM M(*C.Prog, VO);
    gc::installPreciseCollector(M);
    unsigned Captures = 0, Passed = 0;
    std::string FirstErr;
    M.PostGcHook = [&](vm::VM &V) {
      obs::HeapSnapshot S;
      std::string Err;
      ++Captures;
      if (gc::captureHeapSnapshot(V, S, /*WalkStacks=*/true, Err) &&
          gc::crosscheckSnapshot(V, S, /*WalkStacks=*/true, Err))
        ++Passed;
      else if (FirstErr.empty())
        FirstErr = Err;
    };
    ASSERT_TRUE(M.run()) << M.Error;
    EXPECT_EQ(M.Out, programs::FieldListExpected);
    EXPECT_EQ(Captures, Gen ? 26u : 3u);
    EXPECT_EQ(Passed, Captures) << FirstErr;
  }
}

TEST(SnapCrosscheck, CorpusAllConfigs) {
  for (const CorpusProgram &P : corpus())
    for (int Opt : {0, 2})
      for (bool Gen : {false, true}) {
        SCOPED_TRACE(P.Name + " O" + std::to_string(Opt) +
                     (Gen ? " gen" : " two"));
        SnapRun R = runAndSnapshot(P.Source, Opt, Gen, 512u << 10);
        ASSERT_TRUE(R.Ok) << R.Error;
        ASSERT_TRUE(R.Captured) << R.SnapErr;
        EXPECT_TRUE(R.CrosscheckOk) << R.SnapErr;
        EXPECT_EQ(rootRetained(R.Snap), R.Snap.totalBytes());
      }
}

} // namespace
