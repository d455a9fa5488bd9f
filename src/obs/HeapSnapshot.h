//===- obs/HeapSnapshot.h - Precise heap-graph snapshots --------*- C++ -*-===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The heap-snapshot data model and its analyses.  A snapshot is a precise,
/// versioned dump of the object graph at a gc-point: the compiler-emitted
/// tables let the capture code (gc/Snapshot.h) enumerate *exactly* the live
/// roots — stack slots, registers, derived values, globals, each with its
/// frame and function — which a conservative system can only approximate.
/// Nodes carry the type descriptor, shallow size, generation, and the
/// allocation site + collection-count age from the persistent attribution
/// side table (obs/Trace.h); edges carry the pointer's slot index.
///
/// Addresses are normalized to (generation, word offset from the space
/// base) and node ids are breadth-first discovery order over the sorted
/// root list, so two runs of a deterministic program produce bit-identical
/// snapshots.  The on-disk format reuses the gc-tables varint codec
/// (support/ByteCodec.h — Figure 3 of the paper) through one list of the
/// fields (HeapSnapshot::keys); decoding is strict: truncation, trailing
/// bytes, or out-of-range indices are errors, never best-effort results.
///
/// Analyses (consumed by tools/mgc-heapsnap): immediate dominators over the
/// object graph from a virtual super-root (iterative Cooper-Harvey-Kennedy
/// over a reverse-postorder numbering — simple and more than fast enough at
/// our heap scales), retained sizes as dominator-subtree sums (the children
/// of the super-root partition the graph, so root-retained sizes sum to the
/// total live bytes — an invariant the tools check), top-N grouping by site
/// and by type, shortest root paths, and per-site growth deltas between two
/// snapshots.
///
//===----------------------------------------------------------------------===//

#ifndef MGC_OBS_HEAPSNAPSHOT_H
#define MGC_OBS_HEAPSNAPSHOT_H

#include "obs/Trace.h"

#include <cstdint>
#include <string>
#include <vector>

namespace mgc {
namespace obs {

/// Bumped whenever the encoded format changes; decoders reject other
/// versions outright.  Version 2 added the provenance header (tool
/// version, build flags, seed).
constexpr uint32_t SnapshotVersion = 2;

/// Root.Func value for roots with no containing function (globals; stack
/// roots of threads whose frames were not walked).
constexpr uint32_t NoFunc = 0xFFFFFFFFu;

struct HeapSnapshot {
  //===--- Metadata --------------------------------------------------------===

  std::string Program;
  /// Provenance: which build wrote this file (support/Provenance.h), and
  /// the run's seed (0 when the program takes none).  Capture stamps the
  /// current build; decode restores what the file carries, so analyzers
  /// can refuse to silently compare snapshots from different builds.
  std::string ToolVersion;
  std::string BuildFlags;
  uint64_t Seed = 0;
  bool GenGc = false;
  /// False for post-mortem captures (VM error paths): thread stacks are
  /// not at gc-points, so only globals were enumerated as roots and the
  /// node set underapproximates stack-reachable state.
  bool StacksWalked = true;
  /// VMStats::Collections at capture time.
  uint64_t Collections = 0;
  std::vector<std::string> FuncNames;
  std::vector<std::string> TypeNames; ///< Indexed by Node::Desc.

  /// Indexed by Node::Site (NoSite excepted).
  std::vector<gcmaps::AllocSite> Sites;

  //===--- The graph -------------------------------------------------------===

  struct Node {
    uint64_t OffsetWords = 0;   ///< Word offset from the space base.
    uint32_t Desc = 0;          ///< Type descriptor index.
    uint32_t Site = NoSite;     ///< Allocation site, or NoSite.
    uint32_t Age = 0;           ///< Collections evacuated through.
    uint32_t ShallowBytes = 0;  ///< Object bytes, header included.
    uint32_t FirstEdge = 0;     ///< Index of the node's first edge.
    uint32_t NumEdges = 0;      ///< Outgoing (non-NIL) pointer fields.
    uint8_t Gen = 0;            ///< 0 = old/two-space, 1 = nursery.
    bool operator==(const Node &) const = default;
    /// The edges follow, through HeapSnapshot::keys.
    template <typename IO, typename T> static void keys(IO &F, T &V) {
      F.num(V.Gen, V.OffsetWords, V.Desc, V.Site, V.Age, V.ShallowBytes);
    }
  };

  /// One non-NIL pointer field.  Slot is the payload word index within the
  /// source object (the header is word 0, so fixed fields start at 1 and
  /// open-array elements at 2).
  struct Edge {
    uint32_t Slot = 0;
    uint32_t Target = 0; ///< Node id.
    bool operator==(const Edge &) const = default;
    template <typename IO, typename T> static void keys(IO &F, T &V) {
      F.num(V.Slot, V.Target);
    }
  };

  enum class RootKind : uint8_t {
    Global = 0,  ///< Index = global area word.
    FpSlot = 1,  ///< Index = word offset from the frame's FP.
    ApSlot = 2,  ///< Index = word offset from the frame's AP.
    Reg = 3,     ///< Index = register number.
    Derived = 4, ///< A live derived value; Node is its anchor base object.
  };

  struct Root {
    RootKind Kind = RootKind::Global;
    uint32_t Thread = 0;
    uint32_t Frame = 0;      ///< Frame depth, 0 = innermost (stack kinds).
    uint32_t Func = NoFunc;  ///< Containing function (stack kinds).
    int32_t Index = 0;
    uint32_t Node = 0;       ///< The rooted node.
    bool operator==(const Root &) const = default;
    template <typename IO, typename T> static void keys(IO &F, T &V) {
      F.num(V.Kind);
      F.check(V.Kind <= RootKind::Derived, "root kind out of range");
      F.num(V.Thread, V.Frame, V.Func, V.Index, V.Node);
    }
  };

  std::vector<Node> Nodes; ///< Id = index; BFS discovery order from Roots.
  std::vector<Edge> Edges; ///< Grouped by source node (CSR layout).
  std::vector<Root> Roots;

  uint64_t totalBytes() const {
    uint64_t B = 0;
    for (const Node &N : Nodes)
      B += N.ShallowBytes;
    return B;
  }

  void clear() { *this = HeapSnapshot(); }
  bool operator==(const HeapSnapshot &) const = default;

  /// The file's fields after its opening (support/ByteCodec.h).  Each
  /// node's edges follow it inline; the reader gathers them into Edges.
  template <typename IO, typename T> static void keys(IO &F, T &V) {
    F.str(V.Program, V.ToolVersion, V.BuildFlags);
    F.num(V.Seed);
    F.bits(V.GenGc, V.StacksWalked);
    F.num(V.Collections);
    F.vec("function-name", V.FuncNames);
    F.vec("type-name", V.TypeNames);
    F.vec("site", V.Sites);
    F.vec("node", V.Nodes, [&](auto &N) {
      F.vec("edge", V.Edges, N.FirstEdge, N.NumEdges);
      F.truncated("node table");
      F.check(N.Gen <= 1, "node generation out of range");
      F.check(N.Desc < V.TypeNames.size(),
              "node type descriptor out of range");
      F.check(N.Site == NoSite || N.Site < V.Sites.size(),
              "node site out of range");
    });
    for (const Edge &E : V.Edges)
      F.check(E.Target < V.Nodes.size(), "edge target out of range");
    F.vec("root", V.Roots, [&](auto &R) {
      F.truncated("root table");
      F.check(R.Node < V.Nodes.size(), "root node out of range");
      F.check(R.Func == NoFunc || R.Func < V.FuncNames.size(),
              "root function out of range");
    });
  }
};

//===----------------------------------------------------------------------===//
// Codec
//===----------------------------------------------------------------------===//

/// Appends the encoded snapshot to \p Out (magic + version + the fields of
/// HeapSnapshot::keys).
void encodeSnapshot(const HeapSnapshot &S, std::vector<uint8_t> &Out);

/// Strict decode: returns false and sets \p Err on any malformation
/// (bad magic/version, truncation, trailing bytes, index out of range).
bool decodeSnapshot(const std::vector<uint8_t> &Blob, HeapSnapshot &S,
                    std::string &Err);

bool writeSnapshotFile(const std::string &Path, const HeapSnapshot &S,
                       std::string &Err);
bool readSnapshotFile(const std::string &Path, HeapSnapshot &S,
                      std::string &Err);

//===----------------------------------------------------------------------===//
// Analysis
//===----------------------------------------------------------------------===//

/// Immediate dominator of node i under a virtual super-root with an edge
/// to every rooted node: a node id, or IdomRoot when the super-root is the
/// immediate dominator (the node's retention is split across roots), or
/// IdomUnreachable for nodes not reachable from any root (impossible in
/// captured snapshots; possible in hand-built graphs).
constexpr int32_t IdomRoot = -1;
constexpr int32_t IdomUnreachable = -2;
std::vector<int32_t> computeIdoms(const HeapSnapshot &S);

/// Retained size per node: the dominator-subtree shallow-byte sum — the
/// bytes that would be freed if the node's last reference dropped.
/// Unreachable nodes retain 0.
std::vector<uint64_t> retainedSizes(const HeapSnapshot &S,
                                    const std::vector<int32_t> &Idom);

//===----------------------------------------------------------------------===//
// Backward reference graph (leak triage)
//===----------------------------------------------------------------------===//

/// Per-node cap on materialized in-edges, in the spirit of bdwgc's
/// backgraph in-edge sampling: hub objects with huge fan-in would
/// otherwise dominate both memory and path enumeration.  Overflow is
/// counted per node, never dropped silently.
constexpr uint32_t BackgraphMaxInPerNode = 32;

/// Height of a node with no root path (impossible in captured snapshots;
/// possible in hand-built graphs).
constexpr uint32_t NoHeight = 0xFFFFFFFFu;

/// The backward view of a snapshot's CSR edges: for each node, its
/// (sampled) in-edges with the referencing slot, plus its height — the
/// shortest hop distance from any rooted node, tracked across collections
/// by diffing consecutive snapshots (watchSnapshots).
struct Backgraph {
  struct InEdge {
    uint32_t Source = 0; ///< Referencing node id.
    uint32_t Slot = 0;   ///< Payload word index within the source.
  };
  /// CSR prefix: node i's in-edges are In[First[i] .. First[i+1]).
  std::vector<uint32_t> First;
  std::vector<InEdge> In;
  /// Shortest hop distance from a rooted node (0 = directly rooted).
  std::vector<uint32_t> Height;
  /// In-edges beyond BackgraphMaxInPerNode, per node.
  std::vector<uint32_t> DroppedIn;
  /// Sampled + dropped; always equals the snapshot's edge count (the
  /// watch-mode crosscheck relies on this conservation).
  uint64_t TotalInEdges = 0;
};

/// Inverts the snapshot's forward CSR edges; deterministic (in-edges are
/// emitted in ascending source-node order) and linear in nodes + edges.
Backgraph buildBackgraph(const HeapSnapshot &S);

/// All retaining paths to \p Node, up to \p MaxPaths, ranked by the
/// dominator weight (retained bytes) of each path's rooted head — the
/// heaviest retainer prints first, so the first path is the one to cut.
/// Enumerated backward over the sampled backgraph with a bounded budget;
/// truncation is reported in the output.  Returns an error line for bad
/// ids.
std::string renderRetainingPaths(const HeapSnapshot &S, uint32_t Node,
                                 size_t MaxPaths);

/// Watch-mode report over a consecutive snapshot stream (the files a
/// `mgc --snapshot-every N` run writes): per-snapshot totals with an
/// internal crosscheck (root-retained bytes must equal live bytes — the
/// same invariant the capture-time re-trace validates — and the backgraph
/// must conserve the edge count), incremental per-site diffs between
/// consecutive snapshots, cumulative first-to-last growth, and
/// retaining-path churn (per-site height / rooted-count / in-edge
/// drift).  \p CrosscheckOk is cleared when any snapshot fails its
/// crosscheck.
std::string watchSnapshots(const std::vector<HeapSnapshot> &Stream,
                           size_t TopN, bool &CrosscheckOk);

/// "func:line:col (TypeName)" for a site id, "(no site)" for NoSite.
std::string siteLabel(const HeapSnapshot &S, uint32_t Site);

/// The full human-readable analysis: totals, root breakdown, top-N by
/// shallow/retained bytes grouped by site and by type, and the age
/// histogram.  Group retained sizes count only group members with no
/// dominating member of the same group, so a group's total never double
/// counts a dominated subtree.
std::string renderSnapshot(const HeapSnapshot &S, size_t TopN);

/// Retaining paths to \p Node: every distinct root path the backgraph
/// enumeration finds (up to a fixed cap), ranked by the retained bytes of
/// each path's rooted head; each path prints the root record's
/// provenance, then each hop with its slot index.  Returns an error line
/// for bad ids.  Equivalent to renderRetainingPaths with the default cap.
std::string renderPathTo(const HeapSnapshot &S, uint32_t Node);

/// Per-site growth from \p Old to \p New: object and shallow-byte deltas,
/// sorted by byte growth, top \p TopN.  Sites are matched by
/// (function name, line, col, type name) so snapshots from different
/// processes of the same program line up.
std::string diffSnapshots(const HeapSnapshot &Old, const HeapSnapshot &New,
                          size_t TopN);

} // namespace obs
} // namespace mgc

#endif // MGC_OBS_HEAPSNAPSHOT_H
