//===- workload/Server.h - Server-workload request harness ------*- C++ -*-===//
//
// Part of the mgc project (PLDI 1992 gc-tables reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic server-workload harness: generates MG "server" programs
/// (a request loop over per-request allocation graphs feeding a session
/// cache with old-to-young churn, each iteration ending in a ReqDone()
/// marker), runs them to steady state, and derives per-request latency
/// percentiles with GC pause attribution.
///
/// Determinism contract: request *service* cost is measured in virtual
/// time — instructions retired between consecutive ReqDone markers — so
/// the same seed yields bit-identical service samples on any host, any
/// dispatch tier, and either decode path.  Queueing latency is an
/// open-loop overlay in the same virtual clock: arrivals come from a
/// seeded schedule (uniform or bursty gaps, in instructions), requests
/// are served FIFO, and latency_i = completion_i - arrival_i.  Wall-time
/// figures (requests/sec, nanosecond latency, mutator utilization) are
/// derived afterwards from the run's measured ns/instruction and the
/// tracer's per-collection nanos; they are reported, never gated.
///
//===----------------------------------------------------------------------===//

#ifndef MGC_WORKLOAD_SERVER_H
#define MGC_WORKLOAD_SERVER_H

#include "obs/Profile.h"
#include "vm/VM.h"

#include <cstdint>
#include <string>
#include <vector>

namespace mgc {
namespace workload {

//===----------------------------------------------------------------------===//
// Server program generation
//===----------------------------------------------------------------------===//

/// Shape of a generated MG server program.  Every field is folded into
/// the emitted source, so equal configs produce byte-identical programs.
struct ServerProgramConfig {
  uint64_t Seed = 1;      ///< Drives the per-seed workload constants.
  unsigned Requests = 400; ///< Request-loop iterations (ReqDone markers).
  bool Spin = false;       ///< Emit a Spin() proc for mutator threads.
};

/// Renders the MG source of a server program: BuildReq/SumReq over a
/// linked-cell request graph, a session-cache array holding survivors
/// across requests (old-to-young churn under the generational collector),
/// and a main request loop calling ReqDone() per iteration.  With
/// \p Config.Spin, a poll-carrying Spin() procedure is included for
/// spawning allocation-free mutator threads (compile with ThreadedPolls).
std::string generateServerProgram(const ServerProgramConfig &Config);

//===----------------------------------------------------------------------===//
// Arrival schedules
//===----------------------------------------------------------------------===//

enum class ArrivalKind {
  Uniform, ///< Seeded jitter around a fixed mean gap.
  Bursty,  ///< Alternating back-to-back bursts and long idle gaps.
};

struct ScheduleConfig {
  ArrivalKind Kind = ArrivalKind::Uniform;
  uint64_t Seed = 1;
  uint64_t MeanGapInstrs = 2000; ///< Mean inter-arrival gap, instructions.
  unsigned BurstLen = 8;         ///< Requests per burst (Bursty only).
};

/// Produces \p N arrival times (virtual instructions since run start),
/// monotone nondecreasing, fully determined by \p Config.
std::vector<uint64_t> arrivalSchedule(const ScheduleConfig &Config, size_t N);

//===----------------------------------------------------------------------===//
// Running a server program
//===----------------------------------------------------------------------===//

struct ServerRunConfig {
  vm::VMOptions VO;             ///< Heap/dispatch/policy/decode knobs.
  ScheduleConfig Sched;         ///< Arrival overlay.
  unsigned SpinThreads = 0;     ///< Extra threads running Spin().
  /// Attach the sampling profiler (obs/Profile.h) for the run: per-request
  /// sample/alloc attribution lands in ServerRunResult::Prof alongside the
  /// latency percentiles, tying hot stacks to request cost.
  bool Profile = false;
  uint64_t ProfileInterval = 4096; ///< Instructions between samples.
};

/// Everything one server run produces.  The per-request vectors are
/// positionally parallel (index = request sequence - 1).
struct ServerRunResult {
  bool Ok = false;
  std::string Error;
  std::string Out;
  vm::VMStats Stats;

  // Deterministic virtual-time samples.
  std::vector<uint64_t> ServiceInstrs; ///< Instrs between ReqDone markers.
  std::vector<uint64_t> GcNanos;       ///< GC nanos attributed per request.
  std::vector<uint64_t> Collections;   ///< Collections within the request.
  std::vector<uint64_t> LatencyInstrs; ///< Queueing-overlay latency.

  // GC attribution cross-check material.
  uint64_t TracerGcNanosTotal = 0;  ///< Sum of per-event TotalNanos.
  uint64_t UnattributedGcNanos = 0; ///< Tail GC work after the last marker.

  // Heap-sizing policy outcomes.
  uint64_t HeapGrowths = 0;     ///< Semispace doublings taken.
  uint64_t NurseryResizes = 0;  ///< Nursery half resizes taken.
  uint64_t FinalHeapBytes = 0;  ///< Semispace capacity at exit.

  // Wall-time derived figures (reported, never gated).
  uint64_t WallNanos = 0;
  double Rps = 0.0;         ///< Requests per wall second.
  double Utilization = 0.0; ///< 1 - gc_nanos / wall_nanos.
  uint64_t LatP50Ns = 0, LatP99Ns = 0, LatMaxNs = 0;
  uint64_t LatP50Instr = 0, LatP99Instr = 0, LatMaxInstr = 0;

  /// Sampling profile of the run (ServerRunConfig::Profile); per-request
  /// rows align with the service samples by sequence number.
  bool HasProf = false;
  obs::Profile Prof;
};

/// Runs \p Prog (a compiled server program) to completion under
/// \p Config: installs the precise collector, spawns the requested spin
/// threads, records one sample per ReqDone via VM::RequestHook, overlays
/// the seeded arrival schedule, and fills every ServerRunResult field.
ServerRunResult runServer(const vm::Program &Prog,
                          const ServerRunConfig &Config);

} // namespace workload
} // namespace mgc

#endif // MGC_WORKLOAD_SERVER_H
