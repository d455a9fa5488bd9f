//===- obs/HeapSnapshot.cpp -----------------------------------------------===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//

#include "obs/HeapSnapshot.h"

#include "support/ByteCodec.h"

#include <algorithm>
#include <cstdio>
#include <map>

using namespace mgc;
using namespace mgc::obs;

//===----------------------------------------------------------------------===//
// Codec
//===----------------------------------------------------------------------===//

static const ByteFileKind SnapFile = {{'M', 'G', 'H', 'S'}, SnapshotVersion,
                                      "snapshot", "heap snapshot"};

void obs::encodeSnapshot(const HeapSnapshot &S, std::vector<uint8_t> &Out) {
  encodeFile(SnapFile, S, Out);
}

bool obs::decodeSnapshot(const std::vector<uint8_t> &Blob, HeapSnapshot &S,
                         std::string &Err) {
  return decodeFile(SnapFile, Blob, S, Err);
}

bool obs::writeSnapshotFile(const std::string &Path, const HeapSnapshot &S,
                            std::string &Err) {
  std::vector<uint8_t> Blob;
  encodeSnapshot(S, Blob);
  return writeByteFile(Path, Blob, Err);
}

bool obs::readSnapshotFile(const std::string &Path, HeapSnapshot &S,
                           std::string &Err) {
  std::vector<uint8_t> Blob;
  return readByteFile(Path, Blob, Err) && decodeSnapshot(Blob, S, Err);
}

//===----------------------------------------------------------------------===//
// Dominators and retained sizes
//===----------------------------------------------------------------------===//

std::vector<int32_t> obs::computeIdoms(const HeapSnapshot &S) {
  size_t N = S.Nodes.size();
  std::vector<int32_t> Idom(N, IdomUnreachable);
  if (N == 0)
    return Idom;

  std::vector<char> IsEntry(N, 0);
  for (const HeapSnapshot::Root &R : S.Roots)
    IsEntry[R.Node] = 1;

  // Post-order over the reachable subgraph by iterative DFS from every
  // entry node (the super-root's successors), then reversed: RPO number 0
  // is the super-root, reachable nodes get 1..K.
  std::vector<uint32_t> Post;
  Post.reserve(N);
  std::vector<char> State(N, 0); // 0 new, 1 open, 2 done
  struct DfsFrame {
    uint32_t Node;
    uint32_t EdgeI;
  };
  std::vector<DfsFrame> Stack;
  for (uint32_t E = 0; E != N; ++E) {
    if (!IsEntry[E] || State[E])
      continue;
    State[E] = 1;
    Stack.push_back({E, 0});
    while (!Stack.empty()) {
      DfsFrame &F = Stack.back();
      const HeapSnapshot::Node &Nd = S.Nodes[F.Node];
      if (F.EdgeI < Nd.NumEdges) {
        uint32_t T = S.Edges[Nd.FirstEdge + F.EdgeI++].Target;
        if (!State[T]) {
          State[T] = 1;
          Stack.push_back({T, 0});
        }
      } else {
        Post.push_back(F.Node);
        State[F.Node] = 2;
        Stack.pop_back();
      }
    }
  }

  size_t K = Post.size();
  std::vector<uint32_t> RpoNum(N, 0); // 0 = unreachable.
  std::vector<uint32_t> ByRpo(K + 1, 0);
  for (size_t I = 0; I != K; ++I) {
    uint32_t Node = Post[K - 1 - I];
    RpoNum[Node] = static_cast<uint32_t>(I + 1);
    ByRpo[I + 1] = Node;
  }

  // Predecessor lists in RPO space; entry nodes gain the super-root (0).
  std::vector<std::vector<uint32_t>> Preds(K + 1);
  for (uint32_t Id = 0; Id != N; ++Id) {
    uint32_t Rn = RpoNum[Id];
    if (Rn == 0)
      continue;
    if (IsEntry[Id])
      Preds[Rn].push_back(0);
    const HeapSnapshot::Node &Nd = S.Nodes[Id];
    for (uint32_t E = 0; E != Nd.NumEdges; ++E)
      Preds[RpoNum[S.Edges[Nd.FirstEdge + E].Target]].push_back(Rn);
  }

  // Cooper-Harvey-Kennedy iteration ("A Simple, Fast Dominance
  // Algorithm"): converges in a couple of passes on reducible graphs and
  // is robust on the cycles heaps routinely contain.
  constexpr uint32_t Undef = 0xFFFFFFFFu;
  std::vector<uint32_t> Doms(K + 1, Undef);
  Doms[0] = 0;
  auto Intersect = [&Doms](uint32_t A, uint32_t B) {
    while (A != B) {
      while (A > B)
        A = Doms[A];
      while (B > A)
        B = Doms[B];
    }
    return A;
  };
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (uint32_t Rn = 1; Rn <= K; ++Rn) {
      uint32_t NewIdom = Undef;
      for (uint32_t P : Preds[Rn]) {
        if (Doms[P] == Undef)
          continue;
        NewIdom = NewIdom == Undef ? P : Intersect(P, NewIdom);
      }
      if (NewIdom != Undef && Doms[Rn] != NewIdom) {
        Doms[Rn] = NewIdom;
        Changed = true;
      }
    }
  }

  for (uint32_t Rn = 1; Rn <= K; ++Rn)
    Idom[ByRpo[Rn]] = Doms[Rn] == 0
                          ? IdomRoot
                          : static_cast<int32_t>(ByRpo[Doms[Rn]]);
  return Idom;
}

std::vector<uint64_t> obs::retainedSizes(const HeapSnapshot &S,
                                         const std::vector<int32_t> &Idom) {
  size_t N = S.Nodes.size();
  std::vector<uint64_t> Ret(N, 0);
  std::vector<uint32_t> PendingKids(N, 0);
  for (size_t I = 0; I != N; ++I) {
    if (Idom[I] == IdomUnreachable)
      continue;
    Ret[I] = S.Nodes[I].ShallowBytes;
    if (Idom[I] >= 0)
      ++PendingKids[static_cast<size_t>(Idom[I])];
  }
  // Accumulate leaves-up over the dominator tree (Kahn-style, no
  // recursion): a node joins its dominator once all its own dominatees
  // have joined it.
  std::vector<uint32_t> Ready;
  for (size_t I = 0; I != N; ++I)
    if (Idom[I] != IdomUnreachable && PendingKids[I] == 0)
      Ready.push_back(static_cast<uint32_t>(I));
  while (!Ready.empty()) {
    uint32_t I = Ready.back();
    Ready.pop_back();
    int32_t D = Idom[I];
    if (D < 0)
      continue;
    Ret[static_cast<size_t>(D)] += Ret[I];
    if (--PendingKids[static_cast<size_t>(D)] == 0)
      Ready.push_back(static_cast<uint32_t>(D));
  }
  return Ret;
}

//===----------------------------------------------------------------------===//
// Rendering
//===----------------------------------------------------------------------===//

namespace {

std::string typeName(const HeapSnapshot &S, uint32_t Desc) {
  if (Desc < S.TypeNames.size() && !S.TypeNames[Desc].empty())
    return S.TypeNames[Desc];
  return "desc" + std::to_string(Desc);
}

std::string nodeLabel(const HeapSnapshot &S, uint32_t Id) {
  const HeapSnapshot::Node &N = S.Nodes[Id];
  std::string L = "#" + std::to_string(Id) + " " + typeName(S, N.Desc) + " " +
                  std::to_string(N.ShallowBytes) + "B age=" +
                  std::to_string(N.Age);
  L += N.Gen ? " gen=nursery" : " gen=old";
  return L;
}

std::string funcName(const HeapSnapshot &S, uint32_t Func) {
  if (Func == NoFunc)
    return "(none)";
  if (Func < S.FuncNames.size())
    return S.FuncNames[Func];
  return "func" + std::to_string(Func);
}

std::string rootLabel(const HeapSnapshot &S, const HeapSnapshot::Root &R) {
  char Buf[160];
  switch (R.Kind) {
  case HeapSnapshot::RootKind::Global:
    std::snprintf(Buf, sizeof(Buf), "global word %d", R.Index);
    break;
  case HeapSnapshot::RootKind::FpSlot:
    std::snprintf(Buf, sizeof(Buf), "%s frame %u fp[%d] (thread %u)",
                  funcName(S, R.Func).c_str(), R.Frame, R.Index, R.Thread);
    break;
  case HeapSnapshot::RootKind::ApSlot:
    std::snprintf(Buf, sizeof(Buf), "%s frame %u ap[%d] (thread %u)",
                  funcName(S, R.Func).c_str(), R.Frame, R.Index, R.Thread);
    break;
  case HeapSnapshot::RootKind::Reg:
    std::snprintf(Buf, sizeof(Buf), "%s frame %u r%d (thread %u)",
                  funcName(S, R.Func).c_str(), R.Frame, R.Index, R.Thread);
    break;
  case HeapSnapshot::RootKind::Derived:
    std::snprintf(Buf, sizeof(Buf), "%s frame %u derived value (thread %u)",
                  funcName(S, R.Func).c_str(), R.Frame, R.Thread);
    break;
  }
  return Buf;
}

struct GroupAgg {
  uint64_t Objects = 0;
  uint64_t Shallow = 0;
  uint64_t Retained = 0;
};

/// Marks nodes dominated (transitively) by another node of the same group:
/// their retained bytes are already inside that ancestor's, so a group
/// total must not add them again.  One DFS over the dominator forest with
/// a per-group active counter.
std::vector<char> coveredBySameGroup(const HeapSnapshot &S,
                                     const std::vector<int32_t> &Idom,
                                     const std::vector<uint32_t> &GroupOf,
                                     size_t NumGroups) {
  size_t N = S.Nodes.size();
  std::vector<char> Covered(N, 0);
  std::vector<std::vector<uint32_t>> Kids(N);
  std::vector<uint32_t> Tops;
  for (uint32_t I = 0; I != N; ++I) {
    if (Idom[I] == IdomRoot)
      Tops.push_back(I);
    else if (Idom[I] >= 0)
      Kids[static_cast<size_t>(Idom[I])].push_back(I);
  }
  std::vector<uint32_t> Active(NumGroups, 0);
  struct Frame {
    uint32_t Node;
    uint32_t KidI;
  };
  std::vector<Frame> Stack;
  for (uint32_t T : Tops) {
    ++Active[GroupOf[T]];
    Stack.push_back({T, 0});
    while (!Stack.empty()) {
      Frame &F = Stack.back();
      if (F.KidI < Kids[F.Node].size()) {
        uint32_t C = Kids[F.Node][F.KidI++];
        Covered[C] = Active[GroupOf[C]] > 0;
        ++Active[GroupOf[C]];
        Stack.push_back({C, 0});
      } else {
        --Active[GroupOf[F.Node]];
        Stack.pop_back();
      }
    }
  }
  return Covered;
}

/// Renders one "top groups" table sorted by the chosen column.
void renderGroupTable(std::string &O, const char *Title,
                      const std::vector<GroupAgg> &Aggs,
                      const std::vector<std::string> &Labels, bool ByRetained,
                      size_t TopN) {
  std::vector<uint32_t> Order;
  for (uint32_t G = 0; G != Aggs.size(); ++G)
    if (Aggs[G].Objects != 0)
      Order.push_back(G);
  std::stable_sort(Order.begin(), Order.end(), [&](uint32_t A, uint32_t B) {
    uint64_t Ka = ByRetained ? Aggs[A].Retained : Aggs[A].Shallow;
    uint64_t Kb = ByRetained ? Aggs[B].Retained : Aggs[B].Shallow;
    if (Ka != Kb)
      return Ka > Kb;
    return A < B;
  });
  if (Order.size() > TopN)
    Order.resize(TopN);
  O += Title;
  O += "\n    retained     shallow  objects\n";
  char Buf[64];
  for (uint32_t G : Order) {
    std::snprintf(Buf, sizeof(Buf), "  %10llu  %10llu  %7llu  ",
                  static_cast<unsigned long long>(Aggs[G].Retained),
                  static_cast<unsigned long long>(Aggs[G].Shallow),
                  static_cast<unsigned long long>(Aggs[G].Objects));
    O += Buf;
    O += Labels[G];
    O += "\n";
  }
}

} // namespace

std::string obs::siteLabel(const HeapSnapshot &S, uint32_t Site) {
  if (Site >= S.Sites.size())
    return "(no site)";
  const gcmaps::AllocSite &St = S.Sites[Site];
  std::string L = funcName(S, St.Func) + ":" + std::to_string(St.Line) + ":" +
                  std::to_string(St.Col) + " (" + typeName(S, St.Desc) + ")";
  return L;
}

std::string obs::renderSnapshot(const HeapSnapshot &S, size_t TopN) {
  std::string O;
  char Buf[256];
  uint64_t Total = S.totalBytes();
  std::snprintf(Buf, sizeof(Buf),
                "snapshot: program '%s', %s collector, after %llu "
                "collection(s)\n"
                "  %zu nodes, %zu edges, %zu roots, %llu live bytes\n",
                S.Program.c_str(), S.GenGc ? "generational" : "two-space",
                static_cast<unsigned long long>(S.Collections),
                S.Nodes.size(), S.Edges.size(), S.Roots.size(),
                static_cast<unsigned long long>(Total));
  O += Buf;
  if (!S.StacksWalked)
    O += "  (post-mortem capture: stacks not walked, roots are globals "
         "only)\n";

  size_t NGlobal = 0, NSlot = 0, NReg = 0, NDerived = 0;
  for (const HeapSnapshot::Root &R : S.Roots)
    switch (R.Kind) {
    case HeapSnapshot::RootKind::Global:
      ++NGlobal;
      break;
    case HeapSnapshot::RootKind::FpSlot:
    case HeapSnapshot::RootKind::ApSlot:
      ++NSlot;
      break;
    case HeapSnapshot::RootKind::Reg:
      ++NReg;
      break;
    case HeapSnapshot::RootKind::Derived:
      ++NDerived;
      break;
    }
  std::snprintf(Buf, sizeof(Buf),
                "  roots: %zu globals, %zu stack slots, %zu registers, "
                "%zu derived\n",
                NGlobal, NSlot, NReg, NDerived);
  O += Buf;
  if (S.Nodes.empty())
    return O;

  std::vector<int32_t> Idom = computeIdoms(S);
  std::vector<uint64_t> Ret = retainedSizes(S, Idom);
  uint64_t RootRetained = 0;
  for (size_t I = 0; I != S.Nodes.size(); ++I)
    if (Idom[I] == IdomRoot)
      RootRetained += Ret[I];
  std::snprintf(Buf, sizeof(Buf),
                "  root-retained total: %llu bytes (%s live bytes)\n",
                static_cast<unsigned long long>(RootRetained),
                RootRetained == Total ? "equals" : "DOES NOT EQUAL");
  O += Buf;

  // --- Grouping by site.  NoSite objects pool in the trailing group.
  size_t SiteGroups = S.Sites.size() + 1;
  std::vector<uint32_t> SiteOf(S.Nodes.size());
  for (size_t I = 0; I != S.Nodes.size(); ++I)
    SiteOf[I] = S.Nodes[I].Site < S.Sites.size()
                    ? S.Nodes[I].Site
                    : static_cast<uint32_t>(S.Sites.size());
  std::vector<char> SiteCovered =
      coveredBySameGroup(S, Idom, SiteOf, SiteGroups);
  std::vector<GroupAgg> BySite(SiteGroups);
  for (size_t I = 0; I != S.Nodes.size(); ++I) {
    GroupAgg &A = BySite[SiteOf[I]];
    ++A.Objects;
    A.Shallow += S.Nodes[I].ShallowBytes;
    if (!SiteCovered[I] && Idom[I] != IdomUnreachable)
      A.Retained += Ret[I];
  }
  std::vector<std::string> SiteLabels(SiteGroups);
  for (uint32_t G = 0; G != SiteGroups; ++G)
    SiteLabels[G] = siteLabel(S, G < S.Sites.size() ? G : NoSite);

  // --- Grouping by type descriptor.
  size_t TypeGroups = S.TypeNames.size();
  std::vector<uint32_t> TypeOf(S.Nodes.size());
  for (size_t I = 0; I != S.Nodes.size(); ++I)
    TypeOf[I] = S.Nodes[I].Desc;
  std::vector<char> TypeCovered =
      coveredBySameGroup(S, Idom, TypeOf, TypeGroups);
  std::vector<GroupAgg> ByType(TypeGroups);
  for (size_t I = 0; I != S.Nodes.size(); ++I) {
    GroupAgg &A = ByType[TypeOf[I]];
    ++A.Objects;
    A.Shallow += S.Nodes[I].ShallowBytes;
    if (!TypeCovered[I] && Idom[I] != IdomUnreachable)
      A.Retained += Ret[I];
  }
  std::vector<std::string> TypeLabels(TypeGroups);
  for (uint32_t G = 0; G != TypeGroups; ++G)
    TypeLabels[G] = typeName(S, G);

  O += "\n";
  renderGroupTable(O, "top sites by retained bytes:", BySite, SiteLabels,
                   /*ByRetained=*/true, TopN);
  O += "\n";
  renderGroupTable(O, "top sites by shallow bytes:", BySite, SiteLabels,
                   /*ByRetained=*/false, TopN);
  O += "\n";
  renderGroupTable(O, "top types by retained bytes:", ByType, TypeLabels,
                   /*ByRetained=*/true, TopN);
  O += "\n";
  renderGroupTable(O, "top types by shallow bytes:", ByType, TypeLabels,
                   /*ByRetained=*/false, TopN);

  // --- Age histogram (collection-count ages from the attribution table).
  std::map<uint32_t, GroupAgg> Ages;
  for (const HeapSnapshot::Node &N : S.Nodes) {
    GroupAgg &A = Ages[N.Age];
    ++A.Objects;
    A.Shallow += N.ShallowBytes;
  }
  O += "\nage histogram (collections survived):\n";
  for (const auto &[Age, A] : Ages) {
    std::snprintf(Buf, sizeof(Buf), "  age %3u: %7llu objects, %10llu bytes\n",
                  Age, static_cast<unsigned long long>(A.Objects),
                  static_cast<unsigned long long>(A.Shallow));
    O += Buf;
  }
  return O;
}

//===----------------------------------------------------------------------===//
// Backward reference graph
//===----------------------------------------------------------------------===//

Backgraph obs::buildBackgraph(const HeapSnapshot &S) {
  Backgraph B;
  size_t N = S.Nodes.size();
  B.TotalInEdges = S.Edges.size();
  B.DroppedIn.assign(N, 0);
  B.Height.assign(N, NoHeight);
  B.First.assign(N + 1, 0);

  // Two passes over the forward CSR in identical (source-ascending) order:
  // count capped in-degrees, then fill — so the sampled in-edges are the
  // first BackgraphMaxInPerNode referencers in node order, deterministic
  // for a deterministic snapshot.
  std::vector<uint32_t> Count(N, 0);
  for (uint32_t Src = 0; Src != N; ++Src) {
    const HeapSnapshot::Node &Nd = S.Nodes[Src];
    for (uint32_t E = 0; E != Nd.NumEdges; ++E) {
      uint32_t T = S.Edges[Nd.FirstEdge + E].Target;
      if (Count[T] < BackgraphMaxInPerNode)
        ++Count[T];
      else
        ++B.DroppedIn[T];
    }
  }
  for (size_t I = 0; I != N; ++I)
    B.First[I + 1] = B.First[I] + Count[I];
  B.In.resize(B.First[N]);
  std::vector<uint32_t> Fill(N, 0);
  for (uint32_t Src = 0; Src != N; ++Src) {
    const HeapSnapshot::Node &Nd = S.Nodes[Src];
    for (uint32_t E = 0; E != Nd.NumEdges; ++E) {
      const HeapSnapshot::Edge &Ed = S.Edges[Nd.FirstEdge + E];
      if (Fill[Ed.Target] < Count[Ed.Target])
        B.In[B.First[Ed.Target] + Fill[Ed.Target]++] = {Src, Ed.Slot};
    }
  }

  // Heights: multi-source BFS from every rooted node over forward edges.
  std::vector<uint32_t> Queue;
  for (const HeapSnapshot::Root &R : S.Roots)
    if (B.Height[R.Node] == NoHeight) {
      B.Height[R.Node] = 0;
      Queue.push_back(R.Node);
    }
  for (size_t Head = 0; Head != Queue.size(); ++Head) {
    uint32_t I = Queue[Head];
    const HeapSnapshot::Node &Nd = S.Nodes[I];
    for (uint32_t E = 0; E != Nd.NumEdges; ++E) {
      uint32_t T = S.Edges[Nd.FirstEdge + E].Target;
      if (B.Height[T] == NoHeight) {
        B.Height[T] = B.Height[I] + 1;
        Queue.push_back(T);
      }
    }
  }
  return B;
}

std::string obs::renderRetainingPaths(const HeapSnapshot &S, uint32_t Node,
                                      size_t MaxPaths) {
  if (Node >= S.Nodes.size())
    return "path: node #" + std::to_string(Node) + " out of range (" +
           std::to_string(S.Nodes.size()) + " nodes)\n";
  Backgraph B = buildBackgraph(S);
  if (B.Height[Node] == NoHeight)
    return "path: node #" + std::to_string(Node) +
           " is not reachable from any root\n";

  std::vector<int32_t> Idom = computeIdoms(S);
  std::vector<uint64_t> Ret = retainedSizes(S, Idom);
  std::vector<char> IsRooted(S.Nodes.size(), 0);
  for (const HeapSnapshot::Root &R : S.Roots)
    IsRooted[R.Node] = 1;

  // Explore each node's in-edges heaviest-retainer first, so under the
  // exploration budget the paths that matter are found before truncation.
  for (size_t I = 0; I != S.Nodes.size(); ++I)
    std::stable_sort(B.In.begin() + B.First[I], B.In.begin() + B.First[I + 1],
                     [&Ret](const Backgraph::InEdge &A,
                            const Backgraph::InEdge &C) {
                       if (Ret[A.Source] != Ret[C.Source])
                         return Ret[A.Source] > Ret[C.Source];
                       if (A.Source != C.Source)
                         return A.Source < C.Source;
                       return A.Slot < C.Slot;
                     });

  // Backward DFS from the target with per-path cycle exclusion: every time
  // the walk stands on a rooted node it has found one complete retaining
  // path (target .. root, backward).
  struct Found {
    std::vector<uint32_t> Nodes; ///< target first, rooted head last.
    std::vector<uint32_t> Slots; ///< Slots[i]: edge Nodes[i+1] -> Nodes[i].
  };
  struct Frame {
    uint32_t Node;
    uint32_t NextIn;
  };
  std::vector<Found> Paths;
  std::vector<Frame> Stack{{Node, 0}};
  std::vector<uint32_t> PathSlots;
  std::vector<char> OnPath(S.Nodes.size(), 0);
  OnPath[Node] = 1;
  if (IsRooted[Node])
    Paths.push_back({{Node}, {}});
  size_t Budget = 1u << 16;
  bool Truncated = false;
  while (!Stack.empty()) {
    if (Paths.size() >= MaxPaths || Budget == 0) {
      Truncated = true;
      break;
    }
    uint32_t Cur = Stack.back().Node;
    uint32_t Lo = B.First[Cur];
    uint32_t Deg = B.First[Cur + 1] - Lo;
    uint32_t J = Stack.back().NextIn;
    uint32_t Pick = Deg;
    while (J < Deg) {
      if (Budget)
        --Budget;
      if (!OnPath[B.In[Lo + J].Source]) {
        Pick = J;
        break;
      }
      ++J;
    }
    if (Pick == Deg) {
      OnPath[Cur] = 0;
      Stack.pop_back();
      if (!Stack.empty())
        PathSlots.pop_back();
      continue;
    }
    Stack.back().NextIn = Pick + 1;
    const Backgraph::InEdge &IE = B.In[Lo + Pick];
    Stack.push_back({IE.Source, 0});
    OnPath[IE.Source] = 1;
    PathSlots.push_back(IE.Slot);
    if (IsRooted[IE.Source]) {
      Found P;
      for (const Frame &G : Stack)
        P.Nodes.push_back(G.Node);
      P.Slots = PathSlots;
      Paths.push_back(std::move(P));
    }
  }

  // Rank by the dominator weight of the rooted head, heaviest first; the
  // first path printed is the reference to cut.
  std::stable_sort(Paths.begin(), Paths.end(),
                   [&Ret](const Found &A, const Found &C) {
                     uint64_t Ra = Ret[A.Nodes.back()],
                              Rc = Ret[C.Nodes.back()];
                     if (Ra != Rc)
                       return Ra > Rc;
                     if (A.Nodes.size() != C.Nodes.size())
                       return A.Nodes.size() < C.Nodes.size();
                     return A.Nodes < C.Nodes;
                   });

  std::string O = "retaining paths to " + nodeLabel(S, Node) + ": " +
                  std::to_string(Paths.size()) + " path(s)";
  if (Truncated)
    O += " (enumeration truncated)";
  if (uint32_t Dropped = B.DroppedIn[Node])
    O += " (" + std::to_string(Dropped) + " in-edge(s) beyond the per-node "
                                          "sample cap not explored)";
  O += ", ranked by root retained bytes:\n\n";
  for (const Found &P : Paths) {
    uint32_t Head = P.Nodes.back();
    O += "path to " + nodeLabel(S, Node) + " (" +
         std::to_string(P.Nodes.size() - 1) + " hop(s)); root retains " +
         std::to_string(Ret[Head]) + " bytes:\n";
    for (const HeapSnapshot::Root &R : S.Roots)
      if (R.Node == Head) {
        O += "  root: " + rootLabel(S, R) + "\n";
        break;
      }
    O += "  " + nodeLabel(S, Head) + "\n";
    for (size_t I = P.Nodes.size() - 1; I-- > 0;)
      O += "    -[word " + std::to_string(P.Slots[I]) + "]-> " +
           nodeLabel(S, P.Nodes[I]) + "\n";
    O += "\n";
  }
  return O;
}

std::string obs::renderPathTo(const HeapSnapshot &S, uint32_t Node) {
  return renderRetainingPaths(S, Node, /*MaxPaths=*/16);
}

namespace {

/// Per-site-label growth between two snapshots.  Aggregating by *label*
/// (not id) lets snapshots from different processes of the same program
/// line up even if site ids were assigned differently.
struct Delta {
  int64_t Objects = 0;
  int64_t Bytes = 0;
  uint64_t NewObjects = 0;
  uint64_t NewBytes = 0;
};

std::map<std::string, Delta> siteDeltas(const HeapSnapshot &Old,
                                        const HeapSnapshot &New) {
  std::map<std::string, Delta> Per;
  for (const HeapSnapshot::Node &N : Old.Nodes) {
    Delta &D = Per[siteLabel(Old, N.Site)];
    --D.Objects;
    D.Bytes -= N.ShallowBytes;
  }
  for (const HeapSnapshot::Node &N : New.Nodes) {
    Delta &D = Per[siteLabel(New, N.Site)];
    ++D.Objects;
    D.Bytes += N.ShallowBytes;
    ++D.NewObjects;
    D.NewBytes += N.ShallowBytes;
  }
  return Per;
}

} // namespace

std::string obs::diffSnapshots(const HeapSnapshot &Old, const HeapSnapshot &New,
                               size_t TopN) {
  std::map<std::string, Delta> Per = siteDeltas(Old, New);

  std::vector<const std::pair<const std::string, Delta> *> Order;
  for (const auto &KV : Per)
    Order.push_back(&KV);
  std::stable_sort(Order.begin(), Order.end(), [](const auto *A, const auto *B) {
    if (A->second.Bytes != B->second.Bytes)
      return A->second.Bytes > B->second.Bytes;
    return A->first < B->first;
  });

  char Buf[256];
  std::string O;
  std::snprintf(Buf, sizeof(Buf),
                "heap diff: %llu -> %llu live bytes (%+lld), %zu -> %zu "
                "objects (%+lld)\n"
                "per-site growth (new - old), by byte delta:\n"
                "     d-bytes   d-objects   now-bytes  site\n",
                static_cast<unsigned long long>(Old.totalBytes()),
                static_cast<unsigned long long>(New.totalBytes()),
                static_cast<long long>(static_cast<int64_t>(New.totalBytes()) -
                                       static_cast<int64_t>(Old.totalBytes())),
                Old.Nodes.size(), New.Nodes.size(),
                static_cast<long long>(
                    static_cast<int64_t>(New.Nodes.size()) -
                    static_cast<int64_t>(Old.Nodes.size())));
  O += Buf;
  size_t Shown = 0;
  for (const auto *KV : Order) {
    if (Shown++ == TopN)
      break;
    std::snprintf(Buf, sizeof(Buf), "  %+10lld  %+10lld  %10llu  ",
                  static_cast<long long>(KV->second.Bytes),
                  static_cast<long long>(KV->second.Objects),
                  static_cast<unsigned long long>(KV->second.NewBytes));
    O += Buf;
    O += KV->first;
    O += "\n";
  }
  return O;
}

//===----------------------------------------------------------------------===//
// Watch mode
//===----------------------------------------------------------------------===//

namespace {

/// Per-site retaining shape within one snapshot: how close the site's
/// objects sit to the roots, how many are directly rooted, and how many
/// references retain them.  Drift of these numbers across a snapshot
/// stream is the watch report's retaining-path churn.
struct SiteShape {
  bool Present = false;
  uint32_t MinHeight = NoHeight;
  uint64_t Rooted = 0;  ///< Nodes with height 0.
  uint64_t InEdges = 0; ///< Sampled + dropped in-edges over the site.
};

std::map<std::string, SiteShape> siteShapes(const HeapSnapshot &S,
                                            const Backgraph &B) {
  std::map<std::string, SiteShape> Per;
  for (size_t I = 0; I != S.Nodes.size(); ++I) {
    SiteShape &Sh = Per[siteLabel(S, S.Nodes[I].Site)];
    Sh.Present = true;
    if (B.Height[I] < Sh.MinHeight)
      Sh.MinHeight = B.Height[I];
    if (B.Height[I] == 0)
      ++Sh.Rooted;
    Sh.InEdges += (B.First[I + 1] - B.First[I]) + B.DroppedIn[I];
  }
  return Per;
}

} // namespace

std::string obs::watchSnapshots(const std::vector<HeapSnapshot> &Stream,
                                size_t TopN, bool &CrosscheckOk) {
  CrosscheckOk = true;
  if (Stream.size() < 2) {
    CrosscheckOk = false;
    return "watch: need at least 2 snapshots\n";
  }
  char Buf[256];
  std::string O;
  const HeapSnapshot &FirstS = Stream.front(), &LastS = Stream.back();
  std::snprintf(Buf, sizeof(Buf),
                "watch: program '%s', %zu snapshots, collections %llu -> "
                "%llu\n\n",
                FirstS.Program.c_str(), Stream.size(),
                static_cast<unsigned long long>(FirstS.Collections),
                static_cast<unsigned long long>(LastS.Collections));
  O += Buf;

  // --- Per-snapshot totals + crosscheck.  Root-retained == live bytes is
  // the same conservation the capture-time independent re-trace validates;
  // the backgraph must conserve the forward edge count.
  O += "snapshot  collections     nodes       bytes   in-edges  check\n";
  std::vector<Backgraph> Graphs;
  Graphs.reserve(Stream.size());
  for (size_t I = 0; I != Stream.size(); ++I) {
    const HeapSnapshot &S = Stream[I];
    std::vector<int32_t> Idom = computeIdoms(S);
    std::vector<uint64_t> Ret = retainedSizes(S, Idom);
    uint64_t RootRetained = 0;
    for (size_t J = 0; J != S.Nodes.size(); ++J)
      if (Idom[J] == IdomRoot)
        RootRetained += Ret[J];
    Graphs.push_back(buildBackgraph(S));
    const Backgraph &B = Graphs.back();
    uint64_t DroppedSum = 0;
    for (uint32_t D : B.DroppedIn)
      DroppedSum += D;
    bool Ok = RootRetained == S.totalBytes() &&
              B.In.size() + DroppedSum == S.Edges.size() &&
              B.TotalInEdges == S.Edges.size();
    if (!Ok)
      CrosscheckOk = false;
    std::snprintf(Buf, sizeof(Buf),
                  "  %6zu  %10llu  %8zu  %10llu  %9zu  %s\n", I + 1,
                  static_cast<unsigned long long>(S.Collections),
                  S.Nodes.size(),
                  static_cast<unsigned long long>(S.totalBytes()),
                  S.Edges.size(), Ok ? "ok" : "MISMATCH");
    O += Buf;
  }

  // --- Incremental growth between consecutive snapshots.
  O += "\nincremental growth (consecutive snapshots):\n";
  for (size_t I = 1; I != Stream.size(); ++I) {
    const HeapSnapshot &A = Stream[I - 1], &C = Stream[I];
    std::map<std::string, Delta> Per = siteDeltas(A, C);
    const std::pair<const std::string, Delta> *Top = nullptr;
    for (const auto &KV : Per)
      if (!Top || KV.second.Bytes > Top->second.Bytes)
        Top = &KV;
    std::snprintf(Buf, sizeof(Buf), "  [%zu -> %zu] %+lld bytes, %+lld "
                                    "objects",
                  I, I + 1,
                  static_cast<long long>(
                      static_cast<int64_t>(C.totalBytes()) -
                      static_cast<int64_t>(A.totalBytes())),
                  static_cast<long long>(
                      static_cast<int64_t>(C.Nodes.size()) -
                      static_cast<int64_t>(A.Nodes.size())));
    O += Buf;
    if (Top && Top->second.Bytes > 0) {
      std::snprintf(Buf, sizeof(Buf), "; top growth %+lld B at %s",
                    static_cast<long long>(Top->second.Bytes),
                    Top->first.c_str());
      O += Buf;
    }
    O += "\n";
  }

  // --- Cumulative per-site growth, first -> last.
  O += "\ncumulative ";
  O += diffSnapshots(FirstS, LastS, TopN);

  // --- Retaining-path churn: how each growing site's shortest root
  // distance, directly-rooted count, and in-edge volume drifted.
  std::map<std::string, SiteShape> ShFirst = siteShapes(FirstS, Graphs.front());
  std::map<std::string, SiteShape> ShLast = siteShapes(LastS, Graphs.back());
  std::map<std::string, Delta> Cum = siteDeltas(FirstS, LastS);
  std::vector<const std::pair<const std::string, Delta> *> Order;
  for (const auto &KV : Cum)
    if (ShLast.count(KV.first))
      Order.push_back(&KV);
  std::stable_sort(Order.begin(), Order.end(),
                   [](const auto *A, const auto *B) {
                     if (A->second.Bytes != B->second.Bytes)
                       return A->second.Bytes > B->second.Bytes;
                     return A->first < B->first;
                   });
  if (Order.size() > TopN)
    Order.resize(TopN);
  O += "\nretaining-path churn (first -> last), by cumulative byte "
       "growth:\n"
       "   minheight     rooted   in-edges  site\n";
  for (const auto *KV : Order) {
    const SiteShape &L = ShLast[KV->first];
    auto FIt = ShFirst.find(KV->first);
    if (FIt == ShFirst.end() || !FIt->second.Present) {
      std::snprintf(Buf, sizeof(Buf), "  %10u  %9llu  %9llu  %s (new)\n",
                    L.MinHeight,
                    static_cast<unsigned long long>(L.Rooted),
                    static_cast<unsigned long long>(L.InEdges),
                    KV->first.c_str());
    } else {
      const SiteShape &F = FIt->second;
      std::snprintf(
          Buf, sizeof(Buf), "  %7u%+-3lld  %6llu%+-3lld  %6llu%+-3lld  %s\n",
          L.MinHeight,
          static_cast<long long>(static_cast<int64_t>(L.MinHeight) -
                                 static_cast<int64_t>(F.MinHeight)),
          static_cast<unsigned long long>(L.Rooted),
          static_cast<long long>(static_cast<int64_t>(L.Rooted) -
                                 static_cast<int64_t>(F.Rooted)),
          static_cast<unsigned long long>(L.InEdges),
          static_cast<long long>(static_cast<int64_t>(L.InEdges) -
                                 static_cast<int64_t>(F.InEdges)),
          KV->first.c_str());
    }
    O += Buf;
  }
  return O;
}
