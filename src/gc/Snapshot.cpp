//===- gc/Snapshot.cpp ----------------------------------------------------===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//

#include "gc/Snapshot.h"

#include "gc/Collector.h"
#include "gcmaps/GcTables.h"
#include "gcmaps/MapIndex.h"
#include "obs/Trace.h"
#include "support/Provenance.h"

#include <unordered_map>
#include <unordered_set>

using namespace mgc;
using namespace mgc::gc;
using namespace mgc::vm;

namespace {

constexpr uint32_t SentinelPC = 0xFFFFFFFFu;

/// One enumerated root: the record's provenance plus the tidy pointer it
/// holds (for derived values: the anchor base object's pointer).
struct RootVal {
  obs::HeapSnapshot::Root Rec;
  Word Value = 0;
};

Word *resolveLoc(const vm::Location &L, uint32_t FP, uint32_t AP,
                 ThreadContext &T, Word **RegHome) {
  switch (L.K) {
  case vm::Location::Kind::FpSlot:
    return &T.Stack[FP + static_cast<unsigned>(L.Index)];
  case vm::Location::Kind::ApSlot:
    return &T.Stack[AP + static_cast<unsigned>(L.Index)];
  case vm::Location::Kind::Reg:
    return RegHome[L.Index];
  case vm::Location::Kind::None:
    break;
  }
  return nullptr;
}

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

/// The provenance-keeping mirror of the collector's walkThread: same
/// return-address chain, same register reconstruction, same ambiguous
/// derivation selection — but through the reference decoder (capture is
/// rare; the decoded-point cache stays untouched) and recording where
/// every root lives.
bool walkThreadRoots(VM &M, size_t TI, std::vector<RootVal> &Roots,
                     std::string &Err) {
  ThreadContext &T = *M.Threads[TI];
  Word *RegHome[NumRegs];
  for (unsigned R = 0; R != NumRegs; ++R)
    RegHome[R] = &T.R[R];

  uint32_t PC = M.SuspendPCs[TI];
  uint32_t FP = T.FP;
  uint32_t AP = T.AP;
  uint32_t Frame = 0;

  while (true) {
    unsigned FuncIdx = M.Prog.funcOfPC(PC - 1);
    const CompiledFunction &F = M.Prog.Funcs[FuncIdx];
    const gcmaps::EncodedFuncMaps &Maps = M.Prog.Maps[FuncIdx];

    int Ordinal = gcmaps::findGcPoint(Maps, PC);
    if (Ordinal < 0) {
      Err = "snapshot: thread " + std::to_string(TI) +
            " is suspended at pc " + std::to_string(PC) +
            ", which is not a gc-point of " + F.Name;
      return false;
    }
    gcmaps::GcPointInfo Info =
        gcmaps::decodeGcPoint(Maps, static_cast<unsigned>(Ordinal));

    auto Provenance = [&](obs::HeapSnapshot::RootKind Kind, int32_t Index) {
      obs::HeapSnapshot::Root R;
      R.Kind = Kind;
      R.Thread = static_cast<uint32_t>(TI);
      R.Frame = Frame;
      R.Func = FuncIdx;
      R.Index = Index;
      return R;
    };

    for (const vm::Location &L : Info.LiveSlots) {
      RootVal R;
      R.Rec = Provenance(kindOf(L), L.Index);
      R.Value = *resolveLoc(L, FP, AP, T, RegHome);
      Roots.push_back(R);
    }
    for (unsigned Rg = 0; Rg != NumRegs; ++Rg)
      if (Info.RegMask & (1u << Rg)) {
        RootVal R;
        R.Rec = Provenance(obs::HeapSnapshot::RootKind::Reg,
                           static_cast<int32_t>(Rg));
        R.Value = *RegHome[Rg];
        Roots.push_back(R);
      }

    for (const gcmaps::DerivationRecord &Rec : Info.Derivs) {
      const std::vector<gcmaps::BaseRef> *Bases = &Rec.Bases;
      if (Rec.Ambiguous) {
        Word PathValue = *resolveLoc(Rec.PathVar, FP, AP, T, RegHome);
        const gcmaps::DerivationAlt *Chosen = gcmaps::findDerivationAlt(
            Rec, static_cast<int32_t>(PathValue));
        if (!Chosen) {
          Err = "snapshot: path variable selects no known derivation in " +
                F.Name;
          return false;
        }
        Bases = &Chosen->Bases;
      }
      // A derived value introduces no reachability of its own: the tables
      // keep its bases live (§3), so the record is pure provenance.  The
      // anchor is the first base holding a tidy pointer.
      for (const gcmaps::BaseRef &B : *Bases) {
        Word V = *resolveLoc(B.Loc, FP, AP, T, RegHome);
        if (V == 0)
          continue;
        RootVal R;
        R.Rec = Provenance(obs::HeapSnapshot::RootKind::Derived,
                           Rec.Target.Index);
        R.Value = V;
        Roots.push_back(R);
        break;
      }
    }

    for (size_t K = 0; K != F.SavedRegs.size(); ++K)
      RegHome[F.SavedRegs[K]] = &T.Stack[FP + K];

    uint32_t RetPC = static_cast<uint32_t>(T.Stack[FP - 1]);
    if (RetPC == SentinelPC)
      break;
    uint32_t CallerFP = static_cast<uint32_t>(T.Stack[FP - 2]);
    uint32_t CallerAP = static_cast<uint32_t>(T.Stack[FP - 3]);
    PC = RetPC;
    FP = CallerFP;
    AP = CallerAP;
    ++Frame;
  }
  return true;
}

/// Enumerates every root with provenance: each live thread's frames
/// (innermost first) when \p WalkStacks, then the global pointer words.
bool collectRoots(VM &M, bool WalkStacks, std::vector<RootVal> &Roots,
                  std::string &Err) {
  Roots.clear();
  if (WalkStacks) {
    for (size_t TI = 0; TI != M.Threads.size(); ++TI) {
      ThreadContext &T = *M.Threads[TI];
      if (!T.Live || TI >= M.SuspendPCs.size())
        continue;
      uint32_t TablePC = M.SuspendPCs[TI];
      if (TablePC == SentinelPC || TablePC == 0)
        continue;
      if (!walkThreadRoots(M, TI, Roots, Err))
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
  Out.Sites.reserve(M.Prog.SiteTab.Sites.size());
  for (const gcmaps::AllocSite &St : M.Prog.SiteTab.Sites)
    Out.Sites.push_back({St.Func, St.Line, St.Col, St.Desc});

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
