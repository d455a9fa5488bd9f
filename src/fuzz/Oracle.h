//===- fuzz/Oracle.h - Differential execution oracle ------------*- C++ -*-===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compiles one generated program at -O0 and -O2 and runs it under the
/// whole mode matrix — two-space, --gen-gc, path splitting, the reference
/// (walk-from-start) decoder, small-heap pressure, both dispatch tiers —
/// with --gc-crosscheck and gc stress on, plus a conservative-trace
/// superset check on the reference run.  Any divergence in program output,
/// exit status, or the stressed root/derived/frame counts between
/// equivalent configurations is a bug in the compiler, the tables, a
/// collector, or an execution tier.
///
/// Programs containing a server loop (ReqDone markers) additionally get a
/// steady-state cell check: a globals-only heap snapshot captured at a
/// fixed request ordinal must agree — node count, byte total, output
/// length — across every cell, including the heap-growth/nursery-auto
/// policy cell whose collection schedule differs from all the others.
///
/// The dispatch dimension is sampled two ways: the reference cell runs
/// the switch tier while every other cell defaults to threaded (so each
/// output/snapshot comparison already crosses the tiers), and two "twin"
/// cells re-run a stressed configuration under the other tier, where the
/// oracle requires *bit-identical* outcomes — output, instruction count,
/// and every table-driven statistic.
///
/// Every execution happens in a forked child process: a wrong table can
/// leave a stale root that the VM then dereferences as a raw host address,
/// so a genuinely broken configuration may segfault — the oracle reports
/// that as a divergence instead of dying with it.
///
//===----------------------------------------------------------------------===//

#ifndef MGC_FUZZ_ORACLE_H
#define MGC_FUZZ_ORACLE_H

#include "driver/Compiler.h"
#include "vm/VM.h"

#include <cstdint>
#include <string>
#include <vector>

namespace mgc {
namespace fuzz {

/// One cell of the mode matrix.
struct RunSpec {
  std::string Name;
  driver::CompilerOptions CO;
  vm::VMOptions VO;
  bool SpawnSpin = false;        ///< Spawn the program's Spin() thread.
  bool ConservativeCheck = false; ///< Reference run only: superset check.
  /// Specs sharing a non-negative group id must agree exactly on
  /// {Collections, RootsTraced, DerivedAdjusted, FramesTraced} (the
  /// GenGC.StressedRootCountsMatchDefaultMode invariant).
  int StatsGroup = -1;
  bool IsRef = false;
  /// Name of a cell this one must match *bit-identically* (output, Instrs,
  /// and all table-driven stats): set on dispatch-tier twins, which differ
  /// from their partner only in the execution engine.
  std::string TwinOf;
  std::string CliFlags; ///< mgc flags reproducing this cell.
};

/// The matrix for one program.  \p HasSpin adds --threads + a spawned
/// spin thread to every cell.
std::vector<RunSpec> buildMatrix(bool HasSpin);

/// Result of one sandboxed execution.  The forked child sends it to the
/// parent through its field list (keys, support/ByteCodec.h).
struct RunOutcome {
  enum Status : uint8_t { Ok, RuntimeError, CompileError, Crashed };
  Status St = Crashed;
  int Signal = 0;      ///< Crashed: the fatal signal.
  std::string Out;     ///< Program output.
  std::string Error;   ///< Runtime/compile diagnostic.
  uint64_t Collections = 0, MinorCollections = 0, RootsTraced = 0,
           DerivedAdjusted = 0, FramesTraced = 0, WriteBarriersRun = 0,
           BytesCopied = 0, ObjectsCopied = 0, Instrs = 0;
  // Conservative superset check (reference run only).
  bool ConservativeViolation = false;
  uint64_t ConservativeReached = 0, PreciseLive = 0;
  // At-exit heap snapshot (every Ok run): the snapshot is captured and
  // validated in-process (precise recount + conservative superset, see
  // gc/Snapshot.h), and its node/byte totals must agree across every cell
  // of the matrix — exit-reachable state is collection-schedule
  // independent.
  bool SnapViolation = false;
  uint64_t SnapNodes = 0, SnapBytes = 0;
  std::string SnapError;
  // Mid-run steady-state snapshot, captured at the third ReqDone() marker
  // when the program contains a server loop.  The marker fires with
  // instruction counters synced and the heap in a normal mutator state, so
  // a globals-only snapshot there sees the same reachable graph in every
  // cell — the session cache at a fixed request ordinal is a pure function
  // of the program, not of the collection schedule.  Programs without
  // ReqDone leave all of this zero (trivially equal across cells).
  bool MidViolation = false;
  uint64_t MidRequests = 0, MidNodes = 0, MidBytes = 0, MidOutLen = 0;
  std::string MidError;
  // Online leak-detector flags, serialized as "site:slope:live:first;"
  // per flag in the tracer's (slope desc, site asc) order.  Every cell
  // runs the detector; dispatch twins must agree on the string
  // bit-identically (cells with different collection schedules
  // legitimately differ in sample timing, so only twins compare it).
  std::string LeakSummary;
  /// Sampling-profiler digest (obs::profileSummary): sample/weight/stack/
  /// alloc counts plus an FNV hash of the encoded profile body.  The
  /// profiler fires at deterministic instruction ordinals, so dispatch
  /// twins must reproduce the digest bit-identically; cells with different
  /// heaps or optimization levels legitimately differ.
  std::string ProfSummary;

  bool operator==(const RunOutcome &) const = default;
  template <typename IO, typename T> static void keys(IO &F, T &V) {
    F.num(V.St);
    F.check(V.St <= Crashed, "status out of range");
    F.num(V.Signal);
    F.str(V.Out, V.Error);
    F.num(V.Collections, V.MinorCollections, V.RootsTraced, V.DerivedAdjusted,
          V.FramesTraced, V.WriteBarriersRun, V.BytesCopied, V.ObjectsCopied,
          V.Instrs);
    F.num(V.ConservativeViolation, V.ConservativeReached, V.PreciseLive);
    F.num(V.SnapViolation, V.SnapNodes, V.SnapBytes);
    F.str(V.SnapError);
    F.num(V.MidViolation, V.MidRequests, V.MidNodes, V.MidBytes, V.MidOutLen);
    F.str(V.MidError, V.LeakSummary, V.ProfSummary);
  }
};

/// Runs \p Prog under \p Spec in a forked child and collects the outcome.
RunOutcome runSandboxed(const vm::Program &Prog, const RunSpec &Spec);

struct OracleResult {
  bool Diverged = false;
  /// The reference configuration itself failed: the *generator* (or a
  /// reducer candidate) produced a bad program; not a compiler bug.
  bool RefFailed = false;
  std::string Report; ///< Deterministic description (empty when clean).
  std::vector<std::string> FailingConfigs;
  /// Instructions the reference run retired; 0 when it failed.
  uint64_t RefInstrs = 0;
};

/// Compiles (via driver::compileBatch) and runs \p Source through the
/// matrix, comparing every cell against the reference run.  A nonzero
/// \p RefBudget marks the reducer's inner loop: the reference run stops
/// after that many instructions, configurations compile lazily, and the
/// check returns at the first divergence (the report covers only what
/// ran).
OracleResult checkSource(const std::string &Source, bool HasSpin,
                         uint64_t RefBudget = 0);

} // namespace fuzz
} // namespace mgc

#endif // MGC_FUZZ_ORACLE_H
