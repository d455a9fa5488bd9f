//===- gc/Snapshot.cpp ----------------------------------------------------===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//

#include "gc/Snapshot.h"

#include "gc/Collector.h"
#include "gcmaps/MapIndex.h"
#include "support/Provenance.h"
#include "vm/FrameWalk.h"

#include <unordered_map>
#include <unordered_set>

using namespace mgc;
using namespace mgc::gc;
using namespace mgc::vm;

namespace {

/// One enumerated root: the record's provenance plus the tidy pointer it
/// holds (for derived values: the anchor base object's pointer).
struct RootVal {
  obs::HeapSnapshot::Root Rec;
  Word Value = 0;
};

obs::HeapSnapshot::RootKind kindOf(const vm::Location &L) {
  switch (L.K) {
  case vm::Location::Kind::ApSlot:
    return obs::HeapSnapshot::RootKind::ApSlot;
  case vm::Location::Kind::Reg:
    return obs::HeapSnapshot::RootKind::Reg;
  default:
    return obs::HeapSnapshot::RootKind::FpSlot;
  }
}

/// Enumerates every root with provenance: each live thread's frames
/// (innermost first) when \p WalkStacks, then the global pointer words.
/// The stacks are walked as the collector walks them, but through the
/// reference decoder (capture is rare; the collector's cache stays
/// untouched).
bool collectRoots(VM &M, bool WalkStacks, std::vector<RootVal> &Roots,
                  std::string &Err) {
  Roots.clear();
  if (WalkStacks) {
    gcmaps::PointDecoder Reference(/*UseIndex=*/false, /*CrossCheck=*/false);
    size_t Thread = 0;
    std::string Refused; // Why the visitor stopped the walk, if it did.
    bool Walked = walkSuspendedThreads(M, Reference, [&](size_t TI,
                                                         const WalkFrame &Fr) {
      const CompiledFunction &F = M.Prog.Funcs[Fr.Func];
      if (!Fr.Point) {
        Refused = "snapshot: thread " + std::to_string(TI) +
                  " is suspended at pc " + std::to_string(Fr.TablePC) +
                  ", which is not a gc-point of " + F.Name;
        return false;
      }
      auto Root = [&](obs::HeapSnapshot::RootKind Kind, int32_t Index,
                      Word Value) {
        RootVal R;
        R.Rec.Kind = Kind;
        R.Rec.Thread = static_cast<uint32_t>(TI);
        R.Rec.Frame = Fr.Depth;
        R.Rec.Func = Fr.Func;
        R.Rec.Index = Index;
        R.Value = Value;
        Roots.push_back(R);
      };
      for (const vm::Location &L : Fr.Point->LiveSlots)
        Root(kindOf(L), L.Index, *Fr.home(L));
      for (unsigned Rg = 0; Rg != NumRegs; ++Rg)
        if (Fr.Point->RegMask & (1u << Rg))
          Root(obs::HeapSnapshot::RootKind::Reg, static_cast<int32_t>(Rg),
               *Fr.RegHome[Rg]);
      for (const gcmaps::DerivationRecord &Rec : Fr.Point->Derivs) {
        const std::vector<gcmaps::BaseRef> *Bases = Fr.bases(Rec);
        if (!Bases) {
          Refused =
              "snapshot: path variable selects no known derivation in " +
              F.Name;
          return false;
        }
        // A derived value introduces no reachability of its own: the tables
        // keep its bases live (§3), so the record is pure provenance.  The
        // anchor is the first base that points at a heap object; a value
        // derived only from non-heap bases (a VAR parameter bound to a
        // local) gets no record.
        for (const gcmaps::BaseRef &B : *Bases) {
          Word V = *Fr.home(B.Loc);
          if (!M.TheHeap.plausibleObject(V))
            continue;
          Root(obs::HeapSnapshot::RootKind::Derived, Rec.Target.Index, V);
          break;
        }
      }
      return true;
    }, &Thread);
    if (!Walked) {
      Err = !Refused.empty()
                ? Refused
                : "snapshot: thread " + std::to_string(Thread) +
                      "'s frame chain leaves its stack (corrupt control word)";
      return false;
    }
  }
  for (unsigned W : M.Prog.GlobalPtrWords) {
    RootVal R;
    R.Rec.Kind = obs::HeapSnapshot::RootKind::Global;
    R.Rec.Func = obs::NoFunc;
    R.Rec.Index = static_cast<int32_t>(W);
    R.Value = M.Globals[W];
    Roots.push_back(R);
  }
  return true;
}

} // namespace

bool gc::captureHeapSnapshot(VM &M, obs::HeapSnapshot &Out, bool WalkStacks,
                             std::string &Err) {
  Heap &H = M.TheHeap;
  Out.clear();
  Out.Program = M.Prog.Name;
  Out.ToolVersion = support::ToolVersion;
  Out.BuildFlags = support::buildFlags();
  Out.GenGc = H.generational();
  Out.StacksWalked = WalkStacks;
  Out.Collections = M.Stats.Collections;
  Out.FuncNames.reserve(M.Prog.Funcs.size());
  for (const CompiledFunction &F : M.Prog.Funcs)
    Out.FuncNames.push_back(F.Name);
  Out.TypeNames.reserve(M.Prog.TypeDescs.size());
  for (const ir::TypeDesc &D : M.Prog.TypeDescs)
    Out.TypeNames.push_back(D.Name);
  Out.Sites = M.Prog.SiteTab.Sites;

  std::vector<RootVal> Roots;
  if (!collectRoots(M, WalkStacks, Roots, Err))
    return false;

  // --- Pass 1: breadth-first discovery.  Node ids are discovery order, so
  // a deterministic program yields a bit-identical snapshot every run.
  std::unordered_map<Word, uint32_t> NodeId;
  NodeId.reserve(1024);
  std::vector<Word> Addrs; // Node id -> address; doubles as the BFS queue.
  auto Discover = [&](Word V) {
    auto [It, New] = NodeId.emplace(V, static_cast<uint32_t>(Addrs.size()));
    if (New)
      Addrs.push_back(V);
    return It->second;
  };

  for (RootVal &R : Roots) {
    if (R.Value == 0)
      continue;
    if (!H.plausibleObject(R.Value)) {
      Err = "snapshot: root does not point at a heap object (stale table "
            "or liveness bug)";
      return false;
    }
    R.Rec.Node = Discover(R.Value);
    Out.Roots.push_back(R.Rec);
  }
  for (size_t Head = 0; Head != Addrs.size(); ++Head) {
    bool Ok = true;
    H.forEachPointerField(Addrs[Head], [&](Word V) {
      if (!H.plausibleObject(V))
        Ok = false;
      else
        Discover(V);
    });
    if (!Ok) {
      Err = "snapshot: heap field does not point at a heap object";
      return false;
    }
  }

  // --- Pass 2: emit nodes in id order with contiguous (CSR) edge runs;
  // every target already has an id.
  Out.Nodes.reserve(Addrs.size());
  for (Word A : Addrs) {
    obs::HeapSnapshot::Node N;
    N.Gen = H.inNursery(A) ? 1 : 0;
    N.OffsetWords =
        (A - (N.Gen ? H.nurseryBase() : H.fromSpaceBase())) / sizeof(Word);
    N.Desc = static_cast<uint32_t>(
        Heap::headerDesc(*reinterpret_cast<const Word *>(A)));
    N.ShallowBytes =
        static_cast<uint32_t>(H.objectWords(A) * sizeof(Word));
    // Site and collection-count age are header-borne (vm/Heap.h), so
    // attribution is exact and tracer-independent; the header sentinel
    // (instructions predating site linking, or ids past the 23-bit field)
    // maps to the snapshot's NoSite.
    Word Hd = *reinterpret_cast<const Word *>(A);
    uint32_t S = Heap::headerSite(Hd);
    N.Site = S == Heap::NoSiteHdr ? obs::NoSite : S;
    N.Age = Heap::headerAge(Hd);
    N.FirstEdge = static_cast<uint32_t>(Out.Edges.size());
    // Edge slots are payload word indices (header = word 0).
    H.forEachPointerField(A, [&](Word &V) {
      Out.Edges.push_back(
          {static_cast<uint32_t>(&V - reinterpret_cast<Word *>(A)),
           NodeId[V]});
    });
    N.NumEdges = static_cast<uint32_t>(Out.Edges.size()) - N.FirstEdge;
    Out.Nodes.push_back(N);
  }
  return true;
}

bool gc::crosscheckSnapshot(VM &M, const obs::HeapSnapshot &S,
                            bool WalkStacks, std::string &Err) {
  Heap &H = M.TheHeap;

  // --- Independent precise recount: a plain mark traversal (no snapshot
  // structures, depth-first, separate visited set) must see exactly the
  // snapshot's node count and byte total.
  std::vector<RootVal> Roots;
  if (!collectRoots(M, WalkStacks, Roots, Err))
    return false;
  std::unordered_set<Word> Marked;
  Marked.reserve(S.Nodes.size() * 2 + 16);
  std::vector<Word> Work;
  auto Push = [&](Word V) {
    if (V != 0 && Marked.insert(V).second)
      Work.push_back(V);
  };
  for (const RootVal &R : Roots)
    Push(R.Value);
  uint64_t Bytes = 0;
  while (!Work.empty()) {
    Word Obj = Work.back();
    Work.pop_back();
    Bytes += H.objectWords(Obj) * sizeof(Word);
    H.forEachPointerField(Obj, Push);
  }
  if (Marked.size() != S.Nodes.size() || Bytes != S.totalBytes()) {
    Err = "snapshot cross-check: snapshot has " +
          std::to_string(S.Nodes.size()) + " nodes / " +
          std::to_string(S.totalBytes()) +
          " bytes, precise re-trace found " +
          std::to_string(Marked.size()) + " / " + std::to_string(Bytes);
    return false;
  }

  // --- Conservative superset: precise ⊆ conservative (the paper's
  // ordering); any snapshot node outside the conservative mark set means
  // one of the two traversals is wrong.
  std::unordered_set<Word> Cons;
  conservativeTrace(M, &Cons);
  for (size_t I = 0; I != S.Nodes.size(); ++I) {
    const obs::HeapSnapshot::Node &N = S.Nodes[I];
    Word A = (N.Gen ? H.nurseryBase() : H.fromSpaceBase()) +
             N.OffsetWords * sizeof(Word);
    if (!Cons.count(A)) {
      Err = "snapshot cross-check: node #" + std::to_string(I) +
            " is outside the conservative-trace superset";
      return false;
    }
  }
  return true;
}
