//===- obs/Profile.cpp ----------------------------------------------------===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//

#include "obs/Profile.h"

#include "support/ByteCodec.h"
#include "support/Provenance.h"
#include "vm/FrameWalk.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <map>

using namespace mgc;
using namespace mgc::obs;

//===----------------------------------------------------------------------===//
// Profiler: interning
//===----------------------------------------------------------------------===//

Profiler::Profiler(const vm::Program &P, ProfilerConfig C)
    : Prog(P), Cfg(C) {
  if (Cfg.IntervalInstrs == 0)
    Cfg.IntervalInstrs = 1;
  NextSampleAt = Cfg.IntervalInstrs;
  Nodes.push_back(Node());     // Id 0: root (empty chain).
  Stacks.push_back(StackRec()); // Id 0: overflow bucket.
  MutRows.resize(1);
  AllocRows.resize(1);
  NodeCache.resize(1u << 14);
  StackCache.resize(1u << 13);
  NodeCacheMask = NodeCache.size() - 1;
  StackCacheMask = StackCache.size() - 1;
}

uint32_t Profiler::pushNodeSlow(uint32_t Parent, uint32_t RetPC, uint64_t K) {
  auto It = NodeMap.find(K);
  if (It != NodeMap.end()) {
    NodeCache[slot(K, NodeCacheMask)] = {K, It->second};
    return It->second;
  }
  if (Nodes.size() >= ProfMaxNodes) {
    // Chain stops extending; pops stay correct through the shadow stack.
    ++NodesDropped;
    return Parent;
  }
  uint32_t Id = static_cast<uint32_t>(Nodes.size());
  Nodes.push_back({Parent, RetPC});
  NodeMap.emplace(K, Id);
  NodeCache[slot(K, NodeCacheMask)] = {K, Id};
  return Id;
}

uint32_t Profiler::internStackSlow(uint32_t NodeId, uint32_t LeafPC,
                                   uint64_t K) {
  auto It = StackMap.find(K);
  if (It != StackMap.end()) {
    StackCache[slot(K, StackCacheMask)] = {K, It->second};
    return It->second;
  }
  if (Stacks.size() >= ProfMaxStacks) {
    ++StacksDropped;
    return 0;
  }
  uint32_t Id = static_cast<uint32_t>(Stacks.size());
  Stacks.push_back({NodeId, LeafPC});
  MutRows.resize(Stacks.size());
  AllocRows.resize(Stacks.size());
  StackMap.emplace(K, Id);
  StackCache[slot(K, StackCacheMask)] = {K, Id};
  return Id;
}

//===----------------------------------------------------------------------===//
// Profiler: sampling
//===----------------------------------------------------------------------===//

void Profiler::takeSample(vm::VM &M, vm::ThreadContext &T, uint32_t LeafPC) {
  uint64_t Now = M.Stats.Instrs;
  uint64_t Weight = Now - LastSampleInstrs;
  LastSampleInstrs = Now;
  NextSampleAt = Now + Cfg.IntervalInstrs;

  uint32_t Id = internStack(T.ProfNode, LeafPC);
  MutAgg &Row = MutRows[Id];
  ++Row.Samples;
  Row.Weight += Weight;
  ++TotalSamples;
  TotalWeight += Weight;
  ++CurReqSamples;
  CurReqWeight += Weight;

  // The collector's walk (vm/FrameWalk.h) from the leaf table pc, decoding
  // every frame's gc-point the way the sampled VM's collector does, with a
  // cache of the profiler's own.  Each caller's ret pc is checked against
  // the incremental chain, innermost first: a capped tree legitimately
  // under-records depth; any other discrepancy is a bug in the hooks (or
  // the tables) and is counted.
  if (!Decoder)
    Decoder.emplace(M.Opts.UseMapIndex, M.Opts.CrossCheck, DecodeCacheLines);
  uint32_t NodeId = T.ProfNode;
  bool Mismatch = false, Shallower = false;
  bool Walked = vm::walkThread(
      Prog, T, LeafPC, *Decoder, [&](const vm::WalkFrame &Fr) {
        if (Fr.Depth && !Mismatch) {
          if (NodeId == 0)
            Shallower = true;
          else if (Nodes[NodeId].RetPC != Fr.TablePC)
            Mismatch = true;
          else
            NodeId = Nodes[NodeId].Parent;
        }
        if (!Fr.Point) {
          // Possible by design: a poll inside a function whose calls are
          // all NoGcCallee gets no table entry of its own in outer frames.
          ++FramesUnmapped;
          return true;
        }
        ++FramesSampled;
        LiveSlotsSampled += Fr.Point->LiveSlots.size();
        LiveRegsSampled +=
            std::popcount(static_cast<unsigned>(Fr.Point->RegMask));
        DerivedSampled += Fr.Point->Derivs.size();
        return true;
      });
  // A chain deeper than the real stack is always a bug; a shallower one
  // only without a cap in effect.
  if (!Walked || Mismatch || NodeId != 0 ||
      (Shallower && NodesDropped == 0))
    ++WalkErrors;
}

void Profiler::onRequestDone(uint64_t Seq) {
  if (!Cfg.Enabled)
    return;
  if (Requests.size() >= ProfMaxRequests) {
    ++RequestsDropped;
  } else {
    Requests.push_back(
        {Seq, CurReqSamples, CurReqWeight, CurReqAllocs, CurReqAllocBytes});
  }
  CurReqSamples = CurReqWeight = CurReqAllocs = CurReqAllocBytes = 0;
}

void Profiler::finish(bool Ok, const std::string &Error, uint64_t Instrs) {
  if (Finished)
    return;
  Finished = true;
  RunOk = Ok;
  RunError = Error;
  TotalInstrs = Instrs;
}

//===----------------------------------------------------------------------===//
// Profiler: profile construction
//===----------------------------------------------------------------------===//

Profile Profiler::buildProfile() const {
  Profile P;
  P.ToolVersion = support::ToolVersion;
  P.BuildFlags = support::buildFlags();
  P.Seed = Cfg.Seed;

  P.Program = Prog.Name;
  P.RunOk = RunOk;
  P.RunError = RunError;
  P.IntervalInstrs = Cfg.IntervalInstrs;
  P.TotalInstrs = TotalInstrs;
  P.Samples = TotalSamples;
  P.SampleWeight = TotalWeight;
  P.Allocs = TotalAllocs;
  P.AllocBytes = TotalAllocBytes;
  P.FramesSampled = FramesSampled;
  P.LiveSlotsSampled = LiveSlotsSampled;
  P.LiveRegsSampled = LiveRegsSampled;
  P.DerivedSampled = DerivedSampled;
  P.FramesUnmapped = FramesUnmapped;
  P.WalkErrors = WalkErrors;
  P.NodesDropped = NodesDropped;
  P.StacksDropped = StacksDropped;
  P.RequestsDropped = RequestsDropped;

  P.FuncNames.reserve(Prog.Funcs.size());
  for (const vm::CompiledFunction &F : Prog.Funcs)
    P.FuncNames.push_back(F.Name);
  P.Sites = Prog.SiteTab.Sites;

  // Expand every interned stack (each was interned by a sample or an
  // allocation, so none is unused).  Frames innermost-first, truncated to
  // the innermost ProfMaxFrames — the truncation point is a deterministic
  // function of the interned chain, preserving cross-tier identity.
  P.Stacks.reserve(Stacks.size());
  P.Stacks.push_back(Profile::Stack()); // Id 0: overflow, no frames.
  for (size_t Id = 1; Id < Stacks.size(); ++Id) {
    Profile::Stack St;
    St.FirstFrame = static_cast<uint32_t>(P.Frames.size());
    uint32_t LeafPC = Stacks[Id].LeafPC;
    P.Frames.push_back(
        {LeafPC, static_cast<uint32_t>(Prog.funcOfPC(LeafPC - 1))});
    uint32_t N = 1;
    for (uint32_t NodeId = Stacks[Id].Node; NodeId != 0 && N < ProfMaxFrames;
         NodeId = Nodes[NodeId].Parent, ++N) {
      uint32_t PC = Nodes[NodeId].RetPC;
      P.Frames.push_back({PC, static_cast<uint32_t>(Prog.funcOfPC(PC - 1))});
    }
    St.NumFrames = N;
    P.Stacks.push_back(St);
  }

  for (size_t Id = 0; Id < MutRows.size(); ++Id)
    if (MutRows[Id].Samples)
      P.Mutator.push_back({static_cast<uint32_t>(Id), MutRows[Id].Samples,
                           MutRows[Id].Weight});
  for (size_t Id = 0; Id < AllocRows.size(); ++Id)
    if (AllocRows[Id].Count)
      P.Alloc.push_back({static_cast<uint32_t>(Id), AllocRows[Id].Site,
                         AllocRows[Id].Count, AllocRows[Id].Bytes});

  P.Requests.reserve(Requests.size());
  for (const ReqAgg &R : Requests)
    P.Requests.push_back({R.Seq, R.Samples, R.Weight, R.Allocs, R.AllocBytes});
  return P;
}

//===----------------------------------------------------------------------===//
// Codec
//===----------------------------------------------------------------------===//

static const ByteFileKind ProfFile = {{'M', 'G', 'P', 'F'}, ProfileVersion,
                                      "profile", "profile"};

void obs::encodeProfileBody(const Profile &P, std::vector<uint8_t> &Out) {
  ByteWriter W{Out};
  Profile::body(W, P);
}

void obs::encodeProfile(const Profile &P, std::vector<uint8_t> &Out) {
  encodeFile(ProfFile, P, Out);
}

bool obs::decodeProfile(const std::vector<uint8_t> &Blob, Profile &P,
                        std::string &Err) {
  return decodeFile(ProfFile, Blob, P, Err);
}

bool obs::writeProfileFile(const std::string &Path, const Profile &P,
                           std::string &Err) {
  std::vector<uint8_t> Blob;
  encodeProfile(P, Blob);
  return writeByteFile(Path, Blob, Err);
}

bool obs::readProfileFile(const std::string &Path, Profile &P,
                          std::string &Err) {
  std::vector<uint8_t> Blob;
  return readByteFile(Path, Blob, Err) && decodeProfile(Blob, P, Err);
}

//===----------------------------------------------------------------------===//
// Rendering
//===----------------------------------------------------------------------===//

namespace {

std::string funcName(const Profile &P, uint32_t Func) {
  if (Func < P.FuncNames.size() && !P.FuncNames[Func].empty())
    return P.FuncNames[Func];
  return "func#" + std::to_string(Func);
}

std::string siteLabel(const Profile &P, uint32_t Site) {
  if (Site == vm::NoAllocSite)
    return "(no site)";
  if (Site >= P.Sites.size())
    return "site#" + std::to_string(Site);
  const gcmaps::AllocSite &S = P.Sites[Site];
  std::string L = funcName(P, S.Func);
  L += ':';
  L += std::to_string(S.Line);
  L += ':';
  L += std::to_string(S.Col);
  return L;
}

std::string pct(uint64_t Part, uint64_t Whole) {
  if (Whole == 0)
    return "0.0%";
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.1f%%",
                100.0 * static_cast<double>(Part) / static_cast<double>(Whole));
  return Buf;
}

struct FuncAgg {
  uint64_t SelfW = 0;
  uint64_t CumW = 0;
  uint64_t Samples = 0;
};

/// Per-function self/cumulative mutator aggregation.  Cumulative counts a
/// function once per stack however many frames it occupies (recursion).
std::map<std::string, FuncAgg> aggregateMutator(const Profile &P) {
  std::map<std::string, FuncAgg> Agg;
  std::vector<std::string> Seen;
  for (const Profile::MutRow &Row : P.Mutator) {
    const Profile::Stack &S = P.Stacks[Row.StackId];
    if (S.NumFrames == 0) {
      FuncAgg &A = Agg["[overflow]"];
      A.SelfW += Row.Weight;
      A.CumW += Row.Weight;
      A.Samples += Row.Samples;
      continue;
    }
    std::string Leaf = funcName(P, P.Frames[S.FirstFrame].Func);
    FuncAgg &A = Agg[Leaf];
    A.SelfW += Row.Weight;
    A.Samples += Row.Samples;
    Seen.clear();
    for (uint32_t I = 0; I != S.NumFrames; ++I) {
      std::string F = funcName(P, P.Frames[S.FirstFrame + I].Func);
      if (std::find(Seen.begin(), Seen.end(), F) != Seen.end())
        continue;
      Seen.push_back(F);
      Agg[F].CumW += Row.Weight;
    }
  }
  return Agg;
}

std::string foldedKey(const Profile &P, uint32_t StackId) {
  return obs::foldedStack(P, StackId);
}

void renderRule(std::string &Out, const std::string &Title) {
  Out += "== ";
  Out += Title;
  Out += " ";
  if (Title.size() < 60)
    Out.append(60 - Title.size(), '=');
  Out += '\n';
}

} // namespace

std::string obs::foldedStack(const Profile &P, uint32_t StackId) {
  if (StackId >= P.Stacks.size())
    return "[invalid]";
  const Profile::Stack &S = P.Stacks[StackId];
  if (S.NumFrames == 0)
    return "[overflow]";
  std::string Key;
  for (uint32_t I = S.NumFrames; I != 0; --I) {
    if (!Key.empty())
      Key += ';';
    Key += funcName(P, P.Frames[S.FirstFrame + I - 1].Func);
  }
  return Key;
}

std::string obs::renderProfile(const Profile &P, size_t TopN) {
  std::string Out;
  renderRule(Out, "profile: " + P.Program);
  if (!P.RunOk) {
    Out += "run FAILED";
    if (!P.RunError.empty()) {
      Out += ": ";
      Out += P.RunError;
    }
    Out += " (profile is partial)\n";
  }
  Out += "tool " + P.ToolVersion + "; seed " + std::to_string(P.Seed) + "\n";
  Out += "interval " + std::to_string(P.IntervalInstrs) + " instrs; total " +
         std::to_string(P.TotalInstrs) + " instrs; " +
         std::to_string(P.Samples) + " samples covering " +
         std::to_string(P.SampleWeight) + " instrs (" +
         pct(P.SampleWeight, P.TotalInstrs) + ")\n";
  Out += std::to_string(P.Allocs) + " allocations, " +
         std::to_string(P.AllocBytes) + " bytes, " +
         std::to_string(P.Alloc.size()) + " alloc stacks; " +
         std::to_string(P.Mutator.size()) + " mutator stacks\n";
  Out += "walk: " + std::to_string(P.FramesSampled) + " frames decoded, " +
         std::to_string(P.LiveSlotsSampled) + " live slots, " +
         std::to_string(P.LiveRegsSampled) + " live regs, " +
         std::to_string(P.DerivedSampled) + " derived, " +
         std::to_string(P.FramesUnmapped) + " unmapped, " +
         std::to_string(P.WalkErrors) + " errors\n";
  if (P.NodesDropped || P.StacksDropped || P.RequestsDropped)
    Out += "dropped: " + std::to_string(P.NodesDropped) + " nodes, " +
           std::to_string(P.StacksDropped) + " stacks, " +
           std::to_string(P.RequestsDropped) + " requests\n";

  // Mutator: top functions by self weight, with cumulative alongside.
  auto Agg = aggregateMutator(P);
  std::vector<std::pair<std::string, FuncAgg>> Rows(Agg.begin(), Agg.end());
  std::stable_sort(Rows.begin(), Rows.end(), [](const auto &A, const auto &B) {
    if (A.second.SelfW != B.second.SelfW)
      return A.second.SelfW > B.second.SelfW;
    return A.first < B.first;
  });
  Out += '\n';
  renderRule(Out, "mutator time (by function)");
  Out += "      self   self%        cum    cum%  samples  function\n";
  size_t Shown = 0;
  for (const auto &[Name, A] : Rows) {
    if (Shown++ == TopN)
      break;
    char Buf[128];
    std::snprintf(Buf, sizeof(Buf), "%10llu  %6s  %9llu  %6s  %7llu  ",
                  static_cast<unsigned long long>(A.SelfW),
                  pct(A.SelfW, P.SampleWeight).c_str(),
                  static_cast<unsigned long long>(A.CumW),
                  pct(A.CumW, P.SampleWeight).c_str(),
                  static_cast<unsigned long long>(A.Samples));
    Out += Buf;
    Out += Name;
    Out += '\n';
  }
  if (Rows.empty())
    Out += "(no samples)\n";

  // Allocation: by site.
  std::map<std::string, std::pair<uint64_t, uint64_t>> BySite;
  for (const Profile::AllocRow &Row : P.Alloc) {
    auto &E = BySite[siteLabel(P, Row.Site)];
    E.first += Row.Count;
    E.second += Row.Bytes;
  }
  std::vector<std::pair<std::string, std::pair<uint64_t, uint64_t>>> SiteRows(
      BySite.begin(), BySite.end());
  std::stable_sort(SiteRows.begin(), SiteRows.end(),
                   [](const auto &A, const auto &B) {
                     if (A.second.second != B.second.second)
                       return A.second.second > B.second.second;
                     return A.first < B.first;
                   });
  Out += '\n';
  renderRule(Out, "allocation (by site)");
  Out += "     bytes  bytes%    count  site\n";
  Shown = 0;
  for (const auto &[Label, CB] : SiteRows) {
    if (Shown++ == TopN)
      break;
    char Buf[96];
    std::snprintf(Buf, sizeof(Buf), "%10llu  %6s  %7llu  ",
                  static_cast<unsigned long long>(CB.second),
                  pct(CB.second, P.AllocBytes).c_str(),
                  static_cast<unsigned long long>(CB.first));
    Out += Buf;
    Out += Label;
    Out += '\n';
  }
  if (SiteRows.empty())
    Out += "(no allocations)\n";

  // Allocation: top stacks by bytes.
  std::vector<const Profile::AllocRow *> AllocSorted;
  AllocSorted.reserve(P.Alloc.size());
  for (const Profile::AllocRow &Row : P.Alloc)
    AllocSorted.push_back(&Row);
  std::stable_sort(AllocSorted.begin(), AllocSorted.end(),
                   [](const Profile::AllocRow *A, const Profile::AllocRow *B) {
                     if (A->Bytes != B->Bytes)
                       return A->Bytes > B->Bytes;
                     return A->StackId < B->StackId;
                   });
  Out += '\n';
  renderRule(Out, "allocation (top stacks)");
  Shown = 0;
  for (const Profile::AllocRow *Row : AllocSorted) {
    if (Shown++ == TopN)
      break;
    Out += std::to_string(Row->Bytes) + " bytes / " +
           std::to_string(Row->Count) + " objs at " +
           siteLabel(P, Row->Site) + "\n    " + foldedKey(P, Row->StackId) +
           '\n';
  }
  if (AllocSorted.empty())
    Out += "(no allocations)\n";

  // Requests.
  if (!P.Requests.empty()) {
    Out += '\n';
    renderRule(Out, "requests");
    Out += std::to_string(P.Requests.size()) + " requests";
    if (P.RequestsDropped)
      Out += " (+" + std::to_string(P.RequestsDropped) + " dropped)";
    Out += "; top by sampled weight:\n";
    std::vector<const Profile::Request *> ReqSorted;
    ReqSorted.reserve(P.Requests.size());
    for (const Profile::Request &Q : P.Requests)
      ReqSorted.push_back(&Q);
    std::stable_sort(ReqSorted.begin(), ReqSorted.end(),
                     [](const Profile::Request *A, const Profile::Request *B) {
                       if (A->Weight != B->Weight)
                         return A->Weight > B->Weight;
                       return A->Seq < B->Seq;
                     });
    Shown = 0;
    for (const Profile::Request *Q : ReqSorted) {
      if (Shown++ == TopN)
        break;
      Out += "req #" + std::to_string(Q->Seq) + ": " +
             std::to_string(Q->Samples) + " samples / " +
             std::to_string(Q->Weight) + " instrs, " +
             std::to_string(Q->Allocs) + " allocs / " +
             std::to_string(Q->AllocBytes) + " bytes\n";
    }
  }
  return Out;
}

std::string obs::renderFolded(const Profile &P, bool Alloc) {
  std::string Out;
  if (Alloc) {
    for (const Profile::AllocRow &Row : P.Alloc) {
      Out += foldedKey(P, Row.StackId);
      Out += ' ';
      Out += std::to_string(Row.Bytes);
      Out += '\n';
    }
  } else {
    for (const Profile::MutRow &Row : P.Mutator) {
      Out += foldedKey(P, Row.StackId);
      Out += ' ';
      Out += std::to_string(Row.Weight);
      Out += '\n';
    }
  }
  return Out;
}

std::string obs::renderDiff(const Profile &A, const Profile &B, size_t TopN) {
  // Keyed by folded path so two profiles of different runs (different
  // interned ids) still line up.
  std::map<std::string, std::pair<int64_t, int64_t>> Delta; // {a, b}
  for (const Profile::MutRow &Row : A.Mutator)
    Delta[foldedKey(A, Row.StackId)].first +=
        static_cast<int64_t>(Row.Weight);
  for (const Profile::MutRow &Row : B.Mutator)
    Delta[foldedKey(B, Row.StackId)].second +=
        static_cast<int64_t>(Row.Weight);

  std::vector<std::pair<std::string, int64_t>> Rows;
  for (const auto &[Key, AB] : Delta)
    if (AB.second != AB.first)
      Rows.push_back({Key, AB.second - AB.first});
  std::stable_sort(Rows.begin(), Rows.end(),
                   [](const auto &X, const auto &Y) {
                     int64_t AX = X.second < 0 ? -X.second : X.second;
                     int64_t AY = Y.second < 0 ? -Y.second : Y.second;
                     if (AX != AY)
                       return AX > AY;
                     return X.first < Y.first;
                   });

  std::string Out;
  renderRule(Out, "profile diff (mutator weight, B - A)");
  Out += "A: " + A.Program + ", " + std::to_string(A.SampleWeight) +
         " instrs sampled\n";
  Out += "B: " + B.Program + ", " + std::to_string(B.SampleWeight) +
         " instrs sampled\n";
  size_t Shown = 0;
  for (const auto &[Key, D] : Rows) {
    if (Shown++ == TopN)
      break;
    Out += (D >= 0 ? "+" : "") + std::to_string(D) + "  " + Key + '\n';
  }
  if (Rows.empty())
    Out += "(no mutator-weight differences)\n";
  return Out;
}

std::string obs::profileSummary(const Profile &P) {
  std::vector<uint8_t> Body;
  encodeProfileBody(P, Body);
  uint64_t H = 14695981039346656037ull;
  for (uint8_t B : Body) {
    H ^= B;
    H *= 1099511628211ull;
  }
  char Hex[17];
  std::snprintf(Hex, sizeof(Hex), "%016llx",
                static_cast<unsigned long long>(H));
  std::string S = std::to_string(P.Samples);
  S += ':';
  S += std::to_string(P.SampleWeight);
  S += ':';
  S += std::to_string(P.Stacks.size());
  S += ':';
  S += std::to_string(P.Allocs);
  S += ':';
  S += std::to_string(P.AllocBytes);
  S += ':';
  S += std::to_string(P.WalkErrors);
  S += ':';
  S += Hex;
  return S;
}
