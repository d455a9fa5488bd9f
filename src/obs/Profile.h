//===- obs/Profile.h - GC-map-driven sampling profiler ----------*- C++ -*-===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deterministic sampling profiler built on the paper's central artifact:
/// the compiler-emitted gc-point tables.  The same tables that let the
/// collector walk the stack precisely let the profiler capture exact call
/// stacks *outside* of collections, with no frame pointers, no symbol
/// guessing, and no signal machinery.
///
/// Design:
///
///  - **Sampling at gc-point granularity.**  The sample clock is the
///    retired-instruction counter (VMStats::Instrs), which both dispatch
///    tiers maintain bit-identically.  When the countdown expires, the
///    sample fires at the next *executed* gc-point (NewObj/NewArr/Call/
///    GcPoll/GcCollect) on the executing thread — exactly the places where
///    a collection could fire, so a sampled stack is always table-walkable.
///    Because the ordinal of every gc-point execution is identical across
///    `--dispatch threaded/switch` and indexed/reference decode, profiles
///    are byte-identical across all of them.
///
///  - **Interned stacks.**  Each thread carries its current stack as an id
///    into a prefix tree of (parent, return-pc) nodes, maintained by O(1)
///    hooks at Call/Ret (the pop restores the parent id from a per-thread
///    shadow stack, so a capped tree still pops correctly).  A sample or
///    allocation interns (node, leaf-pc) into a stack id; aggregation is
///    one vector slot per stack id.  Ids are assigned in first-encounter
///    order over a deterministic execution, keeping the dump canonical.
///
///  - **Verification against the tables.**  Every mutator sample walks
///    the stack with the collector's walker (vm/FrameWalk.h), checks it
///    against the incremental chain and counts each frame's live roots,
///    decoding the way the sampled VM's options say (with a cache of the
///    profiler's own).  A chain mismatch, or a frame chain that leaves the
///    stack, is a counted WalkError — the §6 suite asserts zero.
///
///  - **Two profiles.**  Mutator time: samples weighted by the instruction
///    delta since the previous sample (weights sum to ≤ total instrs).
///    Allocation: *every* NewObj/NewArr attributed to its PR-4 site id and
///    full stack.  Both key by interned stack id; ReqDone() markers close
///    per-request rows for the server-workload harness.
///
/// The dump uses the Figure-3 varint codec through one list of the fields
/// (Profile::keys), read back as strictly as a heap snapshot
/// (support/ByteCodec.h); tools/mgc-prof renders top-N self/cumulative
/// tables, folded flamegraph lines, and diffs.
///
//===----------------------------------------------------------------------===//

#ifndef MGC_OBS_PROFILE_H
#define MGC_OBS_PROFILE_H

#include "gcmaps/MapIndex.h"
#include "vm/VM.h"

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace mgc {
namespace obs {

/// Profile file format version ('MGPF' files).
constexpr uint32_t ProfileVersion = 1;

/// Innermost frames kept per interned stack.
constexpr uint32_t ProfMaxFrames = 64;
/// Caps on the interned prefix tree / stack table: beyond them, deeper
/// chains stop extending and new stacks aggregate into stack id 0 (the
/// overflow bucket).  Deterministic: the caps trip at the same event in
/// every tier.
constexpr uint32_t ProfMaxNodes = 1u << 20;
constexpr uint32_t ProfMaxStacks = 1u << 20;
/// Per-request rows retained (rows beyond it are dropped and counted).
constexpr uint32_t ProfMaxRequests = 1u << 16;

struct ProfilerConfig {
  /// Mutator sampling interval in retired instructions.  The default is
  /// the ≤5%-overhead operating point gated by bench/obs_overhead.
  uint64_t IntervalInstrs = 4096;
  /// Armed at attach.  When false the profiler records nothing and the
  /// hooks cost two predicted branches (the bench "disabled" cell).
  bool Enabled = true;
  /// Stamped into the profile file's provenance header.
  uint64_t Seed = 0;
};

/// A decoded (or built) profile: pure data + codec.  Stack id 0 is the
/// overflow bucket and has no frames; real stacks start at id 1.
struct Profile {
  // Provenance header (support/Provenance.h).  NOT part of the body:
  // profiles must stay byte-identical across command lines that differ
  // only in dispatch tier / decode mode.
  std::string ToolVersion;
  std::string BuildFlags;
  uint64_t Seed = 0;

  // Body: everything below is covered by encodeProfileBody (Profile::body).
  std::string Program;
  bool RunOk = true;
  std::string RunError;
  uint64_t IntervalInstrs = 0;
  uint64_t TotalInstrs = 0;
  uint64_t Samples = 0;
  uint64_t SampleWeight = 0;
  uint64_t Allocs = 0;
  uint64_t AllocBytes = 0;
  // Per-sample table-walk aggregates (decoder-independent).
  uint64_t FramesSampled = 0;
  uint64_t LiveSlotsSampled = 0;
  uint64_t LiveRegsSampled = 0;
  uint64_t DerivedSampled = 0;
  uint64_t FramesUnmapped = 0;
  uint64_t WalkErrors = 0;
  uint64_t NodesDropped = 0;
  uint64_t StacksDropped = 0;
  uint64_t RequestsDropped = 0;

  std::vector<std::string> FuncNames;

  std::vector<gcmaps::AllocSite> Sites;

  /// Frame arena; stacks index [FirstFrame, FirstFrame+NumFrames), frames
  /// innermost-first.  RetPC is the gc-map table pc (gc-point + 1); Func
  /// indexes FuncNames.
  struct Frame {
    uint32_t RetPC = 0;
    uint32_t Func = 0;
    template <typename IO, typename T> static void keys(IO &F, T &V) {
      F.num(V.RetPC, V.Func);
    }
  };
  std::vector<Frame> Frames;

  struct Stack {
    uint32_t FirstFrame = 0;
    uint32_t NumFrames = 0;
    template <typename IO, typename T> static void keys(IO &F, T &V) {
      F.num(V.FirstFrame, V.NumFrames);
    }
  };
  std::vector<Stack> Stacks;

  struct MutRow {
    uint32_t StackId = 0;
    uint64_t Samples = 0;
    uint64_t Weight = 0; ///< Instruction deltas (virtual time).
    template <typename IO, typename T> static void keys(IO &F, T &V) {
      F.num(V.StackId, V.Samples, V.Weight);
    }
  };
  std::vector<MutRow> Mutator; ///< Ascending StackId.

  struct AllocRow {
    uint32_t StackId = 0;
    uint32_t Site = 0; ///< vm::NoAllocSite when unattributed.
    uint64_t Count = 0;
    uint64_t Bytes = 0;
    template <typename IO, typename T> static void keys(IO &F, T &V) {
      F.num(V.StackId, V.Site, V.Count, V.Bytes);
    }
  };
  std::vector<AllocRow> Alloc; ///< Ascending StackId.

  struct Request {
    uint64_t Seq = 0;
    uint64_t Samples = 0;
    uint64_t Weight = 0;
    uint64_t Allocs = 0;
    uint64_t AllocBytes = 0;
    template <typename IO, typename T> static void keys(IO &F, T &V) {
      F.num(V.Seq, V.Samples, V.Weight, V.Allocs, V.AllocBytes);
    }
  };
  std::vector<Request> Requests; ///< Completion order.

  /// The file's fields after its opening (support/ByteCodec.h): the
  /// provenance header, then the body.
  template <typename IO, typename T> static void keys(IO &F, T &V) {
    F.str(V.ToolVersion, V.BuildFlags);
    F.num(V.Seed);
    body(F, V);
  }
  template <typename IO, typename T> static void body(IO &F, T &V) {
    F.str(V.Program);
    F.num(V.RunOk);
    F.str(V.RunError);
    F.num(V.IntervalInstrs, V.TotalInstrs, V.Samples, V.SampleWeight, V.Allocs,
          V.AllocBytes, V.FramesSampled, V.LiveSlotsSampled, V.LiveRegsSampled,
          V.DerivedSampled, V.FramesUnmapped, V.WalkErrors, V.NodesDropped,
          V.StacksDropped, V.RequestsDropped);
    F.truncated("counters");
    F.vec("function-name", V.FuncNames);
    F.vec("site", V.Sites, [&](auto &S) {
      F.check(S.Func < V.FuncNames.size(), "site function out of range");
    });
    F.vec("frame", V.Frames, [&](auto &Fr) {
      F.check(Fr.Func < V.FuncNames.size(), "frame function out of range");
    });
    F.vec("stack", V.Stacks, [&](auto &S) {
      F.check(uint64_t(S.FirstFrame) + S.NumFrames <= V.Frames.size(),
              "stack frame range out of range");
    });
    F.truncated("stack table");
    F.vec("mutator row", V.Mutator, [&](auto &R) {
      F.check(R.StackId < V.Stacks.size(), "mutator stack id out of range");
    });
    F.vec("allocation row", V.Alloc, [&](auto &R) {
      F.check(R.StackId < V.Stacks.size(),
              "allocation stack id out of range");
      F.check(R.Site == vm::NoAllocSite || R.Site < V.Sites.size(),
              "allocation site out of range");
    });
    F.vec("request", V.Requests);
  }
};

//===----------------------------------------------------------------------===//
// Codec (Figure-3 varints; strict decoder)
//===----------------------------------------------------------------------===//

/// Encodes only the body (Profile::body) — the byte-identity contract
/// across tiers / decode modes is over exactly these bytes.
void encodeProfileBody(const Profile &P, std::vector<uint8_t> &Out);

/// Magic + version + provenance header + body (Profile::keys).
void encodeProfile(const Profile &P, std::vector<uint8_t> &Out);

/// Strict decode: wrong magic/version, truncation, out-of-range indices,
/// and trailing bytes are all errors.
bool decodeProfile(const std::vector<uint8_t> &Blob, Profile &P,
                   std::string &Err);

bool writeProfileFile(const std::string &Path, const Profile &P,
                      std::string &Err);
bool readProfileFile(const std::string &Path, Profile &P, std::string &Err);

//===----------------------------------------------------------------------===//
// Rendering (tools/mgc-prof, tests)
//===----------------------------------------------------------------------===//

/// Human-readable report: run header, top-N mutator functions by self and
/// cumulative weight, top allocation stacks/sites, request summary.
std::string renderProfile(const Profile &P, size_t TopN);

/// Folded flamegraph lines ("root;f;g weight"), one per stack, for the
/// standard flamegraph toolchain.  \p Alloc selects the allocation profile
/// (weight = bytes) over the mutator profile (weight = instructions).
std::string renderFolded(const Profile &P, bool Alloc);

/// One stack's folded (root-first, semicolon-joined) function path;
/// "[overflow]" for the frameless overflow bucket.
std::string foldedStack(const Profile &P, uint32_t StackId);

/// Mutator-weight diff between two profiles, keyed by folded stack.
std::string renderDiff(const Profile &A, const Profile &B, size_t TopN);

/// Compact digest for the differential fuzz oracle's twin comparison:
/// counts plus an FNV-1a hash of the body bytes.
std::string profileSummary(const Profile &P);

//===----------------------------------------------------------------------===//
// The profiler
//===----------------------------------------------------------------------===//

class Profiler {
public:
  Profiler(const vm::Program &P, ProfilerConfig C);

  const ProfilerConfig &config() const { return Cfg; }

  //===--- VM hooks (hot; called under a Profiler-attached branch) --------===

  /// Every Call retired (gc-point or not), before the frame push: extend
  /// the thread's interned chain; sample first when one is due and this
  /// call is a gc-point.  \p RetPC is the return address (call pc + 1);
  /// callers must have Stats.Instrs and T.PC synced.
  void onCall(vm::VM &M, vm::ThreadContext &T, bool IsGcPoint,
              uint32_t RetPC) {
    if (!Cfg.Enabled)
      return;
    if (IsGcPoint && M.Stats.Instrs >= NextSampleAt)
      takeSample(M, T, RetPC);
    if (T.ProfShadow.size() <= T.ProfDepth)
      T.ProfShadow.resize(T.ProfDepth ? T.ProfDepth * 2 : 16);
    T.ProfShadow[T.ProfDepth++] = T.ProfNode;
    T.ProfNode = pushNode(T.ProfNode, RetPC);
  }

  /// Every Ret retired: restore the caller's chain id.
  void onRet(vm::ThreadContext &T) {
    if (!Cfg.Enabled)
      return;
    T.ProfNode = T.ProfDepth ? T.ProfShadow[--T.ProfDepth] : 0;
  }

  /// A non-allocating gc-point (GcPoll, GcCollect): sample when due.
  void onPoint(vm::VM &M, vm::ThreadContext &T, uint32_t RetPC) {
    if (!Cfg.Enabled)
      return;
    if (M.Stats.Instrs >= NextSampleAt)
      takeSample(M, T, RetPC);
  }

  /// Every NewObj/NewArr, from VM::allocate with counters synced, before
  /// any collection the allocation may trigger.
  void onAlloc(vm::VM &M, vm::ThreadContext &T, uint32_t RetPC,
               uint32_t Site, uint64_t Bytes) {
    if (!Cfg.Enabled)
      return;
    if (M.Stats.Instrs >= NextSampleAt)
      takeSample(M, T, RetPC);
    uint32_t Id = internStack(T.ProfNode, RetPC);
    AllocAgg &A = AllocRows[Id];
    if (A.Count == 0)
      A.Site = Site;
    ++A.Count;
    A.Bytes += Bytes;
    ++TotalAllocs;
    TotalAllocBytes += Bytes;
    ++CurReqAllocs;
    CurReqAllocBytes += Bytes;
  }

  /// A ReqDone() marker retired (VM::finishRequest): close the current
  /// per-request row.
  void onRequestDone(uint64_t Seq);

  //===--- Results ---------------------------------------------------------===

  /// Captures the run outcome (idempotent).  Call after the VM run ends —
  /// including on error paths, where the profile must still be flushed
  /// ("run FAILED; statistics below are partial").
  void finish(bool Ok, const std::string &Error, uint64_t TotalInstrs);

  /// Expands the interned state into a self-contained Profile (stamps the
  /// provenance header).
  Profile buildProfile() const;

  uint64_t sampleCount() const { return TotalSamples; }
  uint64_t decodeHits() const { return Decoder ? Decoder->hits() : 0; }
  uint64_t decodeMisses() const { return Decoder ? Decoder->misses() : 0; }

private:
  struct Node {
    uint32_t Parent = 0;
    uint32_t RetPC = 0;
  };
  struct CacheLine {
    uint64_t Key = ~0ull;
    uint32_t Id = 0;
  };
  struct MutAgg {
    uint64_t Samples = 0;
    uint64_t Weight = 0;
  };
  struct AllocAgg {
    uint64_t Count = 0;
    uint64_t Bytes = 0;
    uint32_t Site = 0;
  };
  struct StackRec {
    uint32_t Node = 0;
    uint32_t LeafPC = 0;
  };
  struct ReqAgg {
    uint64_t Seq = 0;
    uint64_t Samples = 0;
    uint64_t Weight = 0;
    uint64_t Allocs = 0;
    uint64_t AllocBytes = 0;
  };

  static uint64_t key(uint32_t A, uint32_t B) {
    return (static_cast<uint64_t>(A) << 32) | B;
  }
  static size_t slot(uint64_t K, size_t Mask) {
    K ^= K >> 33;
    K *= 0xff51afd7ed558ccdull;
    K ^= K >> 33;
    return static_cast<size_t>(K) & Mask;
  }

  /// Interns the child of \p Parent via \p RetPC.  At the node cap the
  /// chain stops extending (returns \p Parent, counts the drop) — pops
  /// stay correct through the shadow stack.
  uint32_t pushNode(uint32_t Parent, uint32_t RetPC) {
    uint64_t K = key(Parent, RetPC);
    CacheLine &L = NodeCache[slot(K, NodeCacheMask)];
    if (L.Key == K)
      return L.Id;
    return pushNodeSlow(Parent, RetPC, K);
  }

  /// Interns (node, leaf) into a stack id (0 = overflow bucket) and grows
  /// the aggregation rows to cover it.
  uint32_t internStack(uint32_t NodeId, uint32_t LeafPC) {
    uint64_t K = key(NodeId, LeafPC);
    CacheLine &L = StackCache[slot(K, StackCacheMask)];
    if (L.Key == K)
      return L.Id;
    return internStackSlow(NodeId, LeafPC, K);
  }

  uint32_t pushNodeSlow(uint32_t Parent, uint32_t RetPC, uint64_t K);
  uint32_t internStackSlow(uint32_t NodeId, uint32_t LeafPC, uint64_t K);

  /// One mutator sample: weight bookkeeping, stack intern, and the
  /// table-driven verification walk (frame chain + gc-map decode).
  void takeSample(vm::VM &M, vm::ThreadContext &T, uint32_t LeafPC);

  /// Decoded-point cache lines of the profiler's own decoder.
  static constexpr unsigned DecodeCacheLines = 128;

  const vm::Program &Prog;
  ProfilerConfig Cfg;

  uint64_t NextSampleAt = 0;
  uint64_t LastSampleInstrs = 0;

  std::vector<Node> Nodes;   ///< Id 0 = root (empty stack).
  std::vector<StackRec> Stacks; ///< Id 0 = overflow bucket.
  std::vector<CacheLine> NodeCache, StackCache;
  size_t NodeCacheMask = 0, StackCacheMask = 0;
  std::unordered_map<uint64_t, uint32_t> NodeMap, StackMap;

  std::vector<MutAgg> MutRows;     ///< Indexed by stack id.
  std::vector<AllocAgg> AllocRows; ///< Indexed by stack id.
  std::vector<ReqAgg> Requests;

  uint64_t TotalSamples = 0;
  uint64_t TotalWeight = 0;
  uint64_t TotalAllocs = 0;
  uint64_t TotalAllocBytes = 0;
  uint64_t FramesSampled = 0;
  uint64_t LiveSlotsSampled = 0;
  uint64_t LiveRegsSampled = 0;
  uint64_t DerivedSampled = 0;
  uint64_t FramesUnmapped = 0;
  uint64_t WalkErrors = 0;
  uint64_t NodesDropped = 0;
  uint64_t StacksDropped = 0;
  uint64_t RequestsDropped = 0;

  uint64_t CurReqSamples = 0;
  uint64_t CurReqWeight = 0;
  uint64_t CurReqAllocs = 0;
  uint64_t CurReqAllocBytes = 0;

  // Run outcome (finish()).
  bool Finished = false;
  bool RunOk = true;
  std::string RunError;
  uint64_t TotalInstrs = 0;

  /// Decodes sampled frames the way the sampled VM's options say (made at
  /// the first sample); its cache and counters are the profiler's own.
  std::optional<gcmaps::PointDecoder> Decoder;
};

} // namespace obs
} // namespace mgc

#endif // MGC_OBS_PROFILE_H
