//===- fuzz/Oracle.cpp - Differential execution oracle --------------------===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//

#include "fuzz/Oracle.h"

#include "gc/Collector.h"
#include "gc/Snapshot.h"
#include "obs/HeapSnapshot.h"
#include "obs/Profile.h"
#include "obs/Trace.h"
#include "support/ByteCodec.h"

#include <cstdio>
#include <sstream>
#include <string>

#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace mgc;
using namespace mgc::fuzz;

//===----------------------------------------------------------------------===//
// Matrix
//===----------------------------------------------------------------------===//

std::vector<RunSpec> fuzz::buildMatrix(bool HasSpin) {
  std::vector<RunSpec> M;
  auto Base = [&](const char *Name) {
    RunSpec S;
    S.Name = Name;
    S.VO.CrossCheck = true;
    S.VO.InstrBudget = 50'000'000;
    if (HasSpin) {
      S.CO.ThreadedPolls = true;
      S.SpawnSpin = true;
    }
    return S;
  };

  // Reference: unoptimized, roomy heap, no stress — collections are rare,
  // so even a program compiled with broken tables usually completes here.
  // Also carries the conservative-trace superset check.  The reference
  // deliberately runs the *switch* dispatch tier while every other cell
  // keeps the threaded default, so each output/snapshot comparison below
  // is also a cross-tier check.
  {
    RunSpec S = Base("ref-O0-two");
    S.CO.OptLevel = 0;
    S.VO.HeapBytes = 8u << 20;
    S.VO.Dispatch = vm::DispatchTier::Switch;
    S.ConservativeCheck = true;
    S.IsRef = true;
    S.CliFlags = "--noopt --heap 8388608 --gc-crosscheck --dispatch=switch";
    M.push_back(S);
  }
  // Stressed cells: collect before every allocation.  Same-opt two-space /
  // gen-gc / reference-decoder cells must agree exactly on the table-driven
  // counts (the GenGC.StressedRootCountsMatchDefaultMode invariant), so
  // they share a stats group.
  {
    RunSpec S = Base("O0-two-stress");
    S.CO.OptLevel = 0;
    S.VO.HeapBytes = 1u << 20;
    S.VO.GcStress = true;
    S.StatsGroup = 0;
    S.CliFlags = "--noopt --heap 1048576 --stress --gc-crosscheck";
    M.push_back(S);
  }
  {
    RunSpec S = Base("O0-gen-stress");
    S.CO.OptLevel = 0;
    S.CO.WriteBarriers = true;
    S.VO.GenGc = true;
    S.VO.HeapBytes = 1u << 20;
    S.VO.GcStress = true;
    S.StatsGroup = 0;
    S.CliFlags = "--noopt --heap 1048576 --stress --gen-gc --gc-crosscheck";
    M.push_back(S);
    // Dispatch twin: identical configuration under the switch tier.  The
    // tiers must agree bit-identically — output, Instrs, every stat.
    S.Name = "O0-gen-stress-switch";
    S.VO.Dispatch = vm::DispatchTier::Switch;
    S.TwinOf = "O0-gen-stress";
    S.CliFlags += " --dispatch=switch";
    M.push_back(S);
  }
  {
    RunSpec S = Base("O2-two-stress");
    S.VO.HeapBytes = 1u << 20;
    S.VO.GcStress = true;
    S.StatsGroup = 1;
    S.CliFlags = "--heap 1048576 --stress --gc-crosscheck";
    M.push_back(S);
    // Dispatch twin (see O0-gen-stress-switch).
    S.Name = "O2-two-stress-switch";
    S.VO.Dispatch = vm::DispatchTier::Switch;
    S.TwinOf = "O2-two-stress";
    S.CliFlags += " --dispatch=switch";
    M.push_back(S);
  }
  {
    RunSpec S = Base("O2-gen-stress");
    S.CO.WriteBarriers = true;
    S.VO.GenGc = true;
    S.VO.HeapBytes = 1u << 20;
    S.VO.GcStress = true;
    S.StatsGroup = 1;
    S.CliFlags = "--heap 1048576 --stress --gen-gc --gc-crosscheck";
    M.push_back(S);
  }
  {
    RunSpec S = Base("O2-two-stress-noindex");
    S.VO.HeapBytes = 1u << 20;
    S.VO.GcStress = true;
    S.VO.UseMapIndex = false;
    S.StatsGroup = 1;
    S.CliFlags = "--heap 1048576 --stress --no-map-index --gc-crosscheck";
    M.push_back(S);
  }
  // Path splitting duplicates loops (Fig. 2), so code differs and only
  // output/status are comparable.
  {
    RunSpec S = Base("O2-split-stress");
    S.CO.Mode = driver::Disambiguation::PathSplitting;
    S.VO.HeapBytes = 1u << 20;
    S.VO.GcStress = true;
    S.CliFlags = "--heap 1048576 --stress --split --gc-crosscheck";
    M.push_back(S);
  }
  // Heap-sizing policy under pressure: occupancy-triggered growth plus
  // nursery auto-sizing change *when* collections happen, never what is
  // reachable — output, the exit snapshot, and the mid-run steady-state
  // snapshot must still match every other cell.
  {
    RunSpec S = Base("O2-gen-growth");
    S.CO.WriteBarriers = true;
    S.VO.GenGc = true;
    S.VO.HeapBytes = 96u << 10;
    S.VO.HeapGrowthPct = 60;
    S.VO.HeapMaxBytes = 1u << 20;
    S.VO.NurseryAuto = true;
    S.CliFlags = "--heap 98304 --gen-gc --heap-growth 60 --heap-max 1048576"
                 " --nursery-auto --gc-crosscheck";
    M.push_back(S);
  }
  // Small-heap pressure: natural (non-stress) collection schedules.
  {
    RunSpec S = Base("O2-two-small");
    S.VO.HeapBytes = 128u << 10;
    S.CliFlags = "--heap 131072 --gc-crosscheck";
    M.push_back(S);
  }
  {
    RunSpec S = Base("O0-two-small");
    S.CO.OptLevel = 0;
    S.VO.HeapBytes = 128u << 10;
    S.CliFlags = "--noopt --heap 131072 --gc-crosscheck";
    M.push_back(S);
  }

  if (HasSpin)
    for (RunSpec &S : M)
      S.CliFlags += " --threads --spawn Spin";
  return M;
}

//===----------------------------------------------------------------------===//
// Sandboxed execution
//===----------------------------------------------------------------------===//

namespace {

/// Runs the program in this process (called in the forked child).
RunOutcome executeInProcess(const vm::Program &Prog, const RunSpec &Spec) {
  RunOutcome O;
  vm::VM M(Prog, Spec.VO);
  gc::installPreciseCollector(M);
  // Online leak detector, attached in every cell with a short window and a
  // tiny byte floor so the fuzzer's injected leaks (Coverage::LeakBias) are
  // well within reach.  The flag set is a deterministic function of the
  // collection schedule, so dispatch twins must reproduce it bit-for-bit.
  obs::TracerConfig TC;
  TC.Sites = &Prog.SiteTab;
  TC.Leak.Enabled = true;
  TC.Leak.Window = 4;
  TC.Leak.MinBytes = 64;
  obs::Tracer Tracer(std::move(TC));
  Tracer.enable(nullptr);
  M.Tracer = &Tracer;
  // Sampling profiler, attached in every cell with a short interval so even
  // small generated programs take samples.  Sample ordinals are a pure
  // function of the instruction stream, so dispatch twins must agree on the
  // whole encoded profile (compared via the ProfSummary digest).
  obs::ProfilerConfig PC;
  PC.IntervalInstrs = 256;
  obs::Profiler Prof(Prog, PC);
  M.Profiler = &Prof;
  if (Spec.SpawnSpin) {
    int SpinIdx = -1;
    for (unsigned I = 0; I != Prog.Funcs.size(); ++I)
      if (Prog.Funcs[I].Name == "Spin")
        SpinIdx = static_cast<int>(I);
    if (SpinIdx < 0) {
      O.St = RunOutcome::RuntimeError;
      O.Error = "spawn: no procedure Spin";
      return O;
    }
    M.spawnThread(static_cast<unsigned>(SpinIdx));
  }
  // Steady-state probe: at the third ReqDone() marker take a globals-only
  // snapshot (stacks are not at gc-points there, so WalkStacks must stay
  // false).  The marker fires at a fixed request ordinal, so node/byte
  // totals and the output length are collection-schedule independent and
  // comparable across the whole matrix.  MidRequests tracks the total
  // markers retired — itself an invariant of the program.
  M.RequestHook = [&O](vm::VM &V, const vm::VM::ReqSample &Smp) {
    O.MidRequests = Smp.Seq;
    if (Smp.Seq != 3)
      return;
    obs::HeapSnapshot Snap;
    std::string Err;
    if (!gc::captureHeapSnapshot(V, Snap, /*WalkStacks=*/false, Err)) {
      O.MidViolation = true;
      O.MidError = Err;
      return;
    }
    O.MidNodes = Snap.Nodes.size();
    O.MidBytes = Snap.totalBytes();
    O.MidOutLen = V.Out.size();
  };
  bool Ok = M.run();
  O.St = Ok ? RunOutcome::Ok : RunOutcome::RuntimeError;
  O.Out = M.Out;
  O.Error = M.Error;
  O.Collections = M.Stats.Collections;
  O.MinorCollections = M.Stats.MinorCollections;
  O.RootsTraced = M.Stats.RootsTraced;
  O.DerivedAdjusted = M.Stats.DerivedAdjusted;
  O.FramesTraced = M.Stats.FramesTraced;
  O.WriteBarriersRun = M.Stats.WriteBarriersRun;
  O.BytesCopied = M.Stats.BytesCopied;
  O.ObjectsCopied = M.Stats.ObjectsCopied;
  O.Instrs = M.Stats.Instrs;
  for (const obs::Tracer::LeakFlag &F : Tracer.leakFlags()) {
    O.LeakSummary += std::to_string(F.Site) + ":" +
                     std::to_string(F.SlopeBytes) + ":" +
                     std::to_string(F.LiveBytes) + ":" +
                     std::to_string(F.FirstFlagged) + ";";
  }
  Prof.finish(Ok, M.Error, M.Stats.Instrs);
  O.ProfSummary = obs::profileSummary(Prof.buildProfile());
  if (Ok) {
    // At-exit snapshot: every thread is dead, so the root set is exactly
    // the globals and the reachable graph is independent of the collection
    // schedule — comparable across every matrix cell.  The snapshot is
    // validated in-process against a precise recount and the conservative
    // superset before its totals are trusted.
    obs::HeapSnapshot Snap;
    std::string Err;
    if (!gc::captureHeapSnapshot(M, Snap, /*WalkStacks=*/true, Err) ||
        !gc::crosscheckSnapshot(M, Snap, /*WalkStacks=*/true, Err)) {
      O.SnapViolation = true;
      O.SnapError = Err;
    } else {
      O.SnapNodes = Snap.Nodes.size();
      O.SnapBytes = Snap.totalBytes();
    }
  }
  if (Ok && Spec.ConservativeCheck) {
    // The ambiguous-roots baseline must reach at least every object the
    // precise collector finds live: scan first (nothing moves), then
    // force a precise collection and count the survivors.
    gc::ConservativeStats CS = gc::conservativeTrace(M);
    uint64_t Before = M.Stats.ObjectsCopied;
    M.collectNow();
    O.PreciseLive = M.Stats.ObjectsCopied - Before;
    O.ConservativeReached = CS.ObjectsReached;
    O.ConservativeViolation = CS.ObjectsReached < O.PreciseLive;
  }
  return O;
}

} // namespace

RunOutcome fuzz::runSandboxed(const vm::Program &Prog, const RunSpec &Spec) {
  RunOutcome O;
  int Fd[2];
  if (pipe(Fd) != 0) {
    O.St = RunOutcome::Crashed;
    O.Error = "pipe failed";
    return O;
  }
  pid_t Pid = fork();
  if (Pid < 0) {
    close(Fd[0]);
    close(Fd[1]);
    O.St = RunOutcome::Crashed;
    O.Error = "fork failed";
    return O;
  }
  if (Pid == 0) {
    close(Fd[0]);
    // A genuinely broken table aborts on a collector assertion: keep the
    // parent's stderr clean (the repro command replays the message) and
    // skip core dumps — crashes are an *expected* oracle signal here.
    int Null = open("/dev/null", O_WRONLY);
    if (Null >= 0) {
      dup2(Null, 2);
      close(Null);
    }
    struct rlimit NoCore = {0, 0};
    setrlimit(RLIMIT_CORE, &NoCore);
    // Backstop for hangs the instruction budget somehow misses (the
    // budget itself is the deterministic limit; this is belt-and-braces).
    alarm(120);
    std::vector<uint8_t> P;
    encodeFields(executeInProcess(Prog, Spec), P);
    size_t Off = 0;
    while (Off < P.size()) {
      ssize_t W = write(Fd[1], P.data() + Off, P.size() - Off);
      if (W <= 0)
        break;
      Off += static_cast<size_t>(W);
    }
    _exit(0);
  }
  close(Fd[1]);
  std::vector<uint8_t> Buf;
  uint8_t Tmp[4096];
  ssize_t N;
  while ((N = read(Fd[0], Tmp, sizeof Tmp)) > 0)
    Buf.insert(Buf.end(), Tmp, Tmp + N);
  close(Fd[0]);
  int WStatus = 0;
  waitpid(Pid, &WStatus, 0);
  // A payload cut short (the child died mid-write) or overlong is a crash.
  std::string Err;
  if (decodeFields(Buf, O, Err))
    return O;
  O = RunOutcome();
  O.St = RunOutcome::Crashed;
  if (WIFSIGNALED(WStatus))
    O.Signal = WTERMSIG(WStatus);
  return O;
}

//===----------------------------------------------------------------------===//
// Differential check
//===----------------------------------------------------------------------===//

namespace {

std::string escape(const std::string &S) {
  std::string R;
  for (char C : S) {
    if (C == '\n')
      R += "\\n";
    else if (C == '"')
      R += "\\\"";
    else
      R += C;
  }
  return R;
}

std::string statsBrief(const RunOutcome &O) {
  std::ostringstream S;
  S << "{c=" << O.Collections << " r=" << O.RootsTraced
    << " d=" << O.DerivedAdjusted << " f=" << O.FramesTraced << "}";
  return S.str();
}

} // namespace

OracleResult fuzz::checkSource(const std::string &Source, bool HasSpin,
                               uint64_t RefBudget) {
  OracleResult Res;
  std::vector<RunSpec> Specs = buildMatrix(HasSpin);
  const bool FailFast = RefBudget != 0;
  if (FailFast)
    Specs[0].VO.InstrBudget = RefBudget; // The reference cell comes first.

  // Deduplicate compiler configurations: cells share a compile only when
  // every option matches.
  std::vector<driver::CompilerOptions> COs;
  std::vector<size_t> SpecCO(Specs.size());
  for (size_t I = 0; I != Specs.size(); ++I) {
    size_t Found = COs.size();
    for (size_t J = 0; J != COs.size(); ++J)
      if (COs[J] == Specs[I].CO)
        Found = J;
    if (Found == COs.size())
      COs.push_back(Specs[I].CO);
    SpecCO[I] = Found;
  }

  // The normal path batch-compiles everything up front; the reducer's
  // fail-fast path compiles lazily so an early divergence skips the rest.
  std::vector<driver::CompileResult> Compiled(COs.size());
  std::vector<bool> Have(COs.size(), false);
  if (!FailFast) {
    Compiled = driver::compileBatch(Source, COs);
    Have.assign(COs.size(), true);
  }
  auto Get = [&](size_t J) -> driver::CompileResult & {
    if (!Have[J]) {
      Compiled[J] = std::move(
          driver::compileBatch(Source, {COs[J]}).front());
      Have[J] = true;
    }
    return Compiled[J];
  };

  std::ostringstream R;
  auto Fail = [&](size_t I) {
    if (Res.FailingConfigs.empty() ||
        Res.FailingConfigs.back() != Specs[I].Name)
      Res.FailingConfigs.push_back(Specs[I].Name);
    Res.Diverged = true;
  };

  std::vector<RunOutcome> Outs(Specs.size());
  for (size_t I = 0; I != Specs.size(); ++I) {
    driver::CompileResult &C = Get(SpecCO[I]);
    if (!C.Prog) {
      // Compile failure: in the reference configuration a bad program
      // (generator/reducer defect); anywhere else a config-dependent
      // compiler bug.
      if (Specs[I].IsRef) {
        Res.RefFailed = true;
        Res.Report = "  [" + Specs[I].Name + "] compile error: " +
                     escape(C.Diags.str()) + "\n";
        return Res;
      }
      R << "  [" << Specs[I].Name << "] compile error: "
        << escape(C.Diags.str()) << "\n";
      Fail(I);
      if (FailFast)
        break;
      continue;
    }
    RunOutcome &O = Outs[I];
    O = runSandboxed(*C.Prog, Specs[I]);
    if (Specs[I].IsRef) {
      if (O.St != RunOutcome::Ok) {
        Res.RefFailed = true;
        std::ostringstream RR;
        RR << "  [" << Specs[I].Name << "] reference run failed: ";
        if (O.St == RunOutcome::Crashed)
          RR << "signal " << O.Signal;
        else
          RR << escape(O.Error);
        RR << "\n";
        Res.Report = RR.str();
        return Res;
      }
      Res.RefInstrs = O.Instrs;
      if (O.ConservativeViolation) {
        R << "  [" << Specs[I].Name << "] conservative trace reached "
          << O.ConservativeReached << " objects < precise live "
          << O.PreciseLive << "\n";
        Fail(I);
        if (FailFast)
          break;
      }
      if (O.SnapViolation) {
        R << "  [" << Specs[I].Name << "] snapshot cross-check failed: "
          << escape(O.SnapError) << "\n";
        Fail(I);
        if (FailFast)
          break;
      }
      if (O.MidViolation) {
        R << "  [" << Specs[I].Name << "] mid-run snapshot failed: "
          << escape(O.MidError) << "\n";
        Fail(I);
        if (FailFast)
          break;
      }
      continue;
    }
    const RunOutcome &Ref = Outs[0];
    if (O.St == RunOutcome::Crashed) {
      R << "  [" << Specs[I].Name << "] crashed: signal " << O.Signal
        << "\n";
      Fail(I);
    } else if (O.St != RunOutcome::Ok) {
      R << "  [" << Specs[I].Name
        << "] runtime error (reference succeeded): " << escape(O.Error)
        << "\n";
      Fail(I);
    } else if (O.Out != Ref.Out) {
      R << "  [" << Specs[I].Name << "] output mismatch: ref \""
        << escape(Ref.Out) << "\" vs \"" << escape(O.Out) << "\"\n";
      Fail(I);
    } else if (O.SnapViolation) {
      R << "  [" << Specs[I].Name << "] snapshot cross-check failed: "
        << escape(O.SnapError) << "\n";
      Fail(I);
    } else if (!Ref.SnapViolation &&
               (O.SnapNodes != Ref.SnapNodes ||
                O.SnapBytes != Ref.SnapBytes)) {
      R << "  [" << Specs[I].Name << "] exit snapshot mismatch: ref "
        << Ref.SnapNodes << " nodes / " << Ref.SnapBytes << " bytes vs "
        << O.SnapNodes << " nodes / " << O.SnapBytes << " bytes\n";
      Fail(I);
    } else if (O.MidViolation) {
      R << "  [" << Specs[I].Name << "] mid-run snapshot failed: "
        << escape(O.MidError) << "\n";
      Fail(I);
    } else if (!Ref.MidViolation &&
               (O.MidRequests != Ref.MidRequests ||
                O.MidNodes != Ref.MidNodes || O.MidBytes != Ref.MidBytes ||
                O.MidOutLen != Ref.MidOutLen)) {
      R << "  [" << Specs[I].Name << "] steady-state mismatch: ref {req="
        << Ref.MidRequests << " nodes=" << Ref.MidNodes << " bytes="
        << Ref.MidBytes << " out=" << Ref.MidOutLen << "} vs {req="
        << O.MidRequests << " nodes=" << O.MidNodes << " bytes="
        << O.MidBytes << " out=" << O.MidOutLen << "}\n";
      Fail(I);
    }
    if (Res.Diverged && FailFast)
      break;
  }
  if (Res.Diverged && FailFast) {
    Res.Report = R.str();
    return Res;
  }

  // Stats groups: equivalent stressed configurations must agree exactly.
  for (int G = 0;; ++G) {
    size_t First = Specs.size();
    bool Any = false;
    for (size_t I = 0; I != Specs.size(); ++I) {
      if (Specs[I].StatsGroup != G)
        continue;
      Any = true;
      if (Outs[I].St != RunOutcome::Ok)
        continue; // already reported above
      if (First == Specs.size()) {
        First = I;
        continue;
      }
      const RunOutcome &A = Outs[First], &B = Outs[I];
      if (A.Collections != B.Collections || A.RootsTraced != B.RootsTraced ||
          A.DerivedAdjusted != B.DerivedAdjusted ||
          A.FramesTraced != B.FramesTraced) {
        R << "  [stats group " << G << "] " << Specs[First].Name << " "
          << statsBrief(A) << " != " << Specs[I].Name << " " << statsBrief(B)
          << "\n";
        Fail(I);
      }
    }
    if (!Any)
      break;
  }

  // Dispatch twins: the two execution tiers must be bit-identical on
  // everything the VM can observe — output, instruction count, and every
  // table-driven statistic — not merely schedule-equivalent.
  for (size_t I = 0; I != Specs.size(); ++I) {
    if (Specs[I].TwinOf.empty())
      continue;
    size_t P = Specs.size();
    for (size_t J = 0; J != Specs.size(); ++J)
      if (Specs[J].Name == Specs[I].TwinOf)
        P = J;
    if (P == Specs.size())
      continue;
    const RunOutcome &A = Outs[P], &B = Outs[I];
    if (A.St != RunOutcome::Ok || B.St != RunOutcome::Ok)
      continue; // already reported above
    if (A.Out != B.Out || A.Instrs != B.Instrs ||
        A.Collections != B.Collections ||
        A.MinorCollections != B.MinorCollections ||
        A.RootsTraced != B.RootsTraced ||
        A.DerivedAdjusted != B.DerivedAdjusted ||
        A.FramesTraced != B.FramesTraced ||
        A.WriteBarriersRun != B.WriteBarriersRun ||
        A.BytesCopied != B.BytesCopied ||
        A.ObjectsCopied != B.ObjectsCopied ||
        A.SnapNodes != B.SnapNodes || A.SnapBytes != B.SnapBytes ||
        A.MidRequests != B.MidRequests || A.MidNodes != B.MidNodes ||
        A.MidBytes != B.MidBytes || A.MidOutLen != B.MidOutLen ||
        A.LeakSummary != B.LeakSummary || A.ProfSummary != B.ProfSummary) {
      R << "  [dispatch twin] " << Specs[P].Name << " {i=" << A.Instrs
        << " " << statsBrief(A) << " leak=\"" << A.LeakSummary
        << "\" prof=\"" << A.ProfSummary << "\"} != " << Specs[I].Name
        << " {i=" << B.Instrs << " " << statsBrief(B) << " leak=\""
        << B.LeakSummary << "\" prof=\"" << B.ProfSummary << "\"}\n";
      Fail(I);
    }
  }

  Res.Report = R.str();
  return Res;
}
