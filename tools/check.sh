#!/usr/bin/env bash
#===- tools/check.sh - tier-1 verify + decode perf trajectory -------------===#
#
# Part of the mgc project (PLDI 1992 gc-tables reproduction).
#
# Runs the tier-1 verify line (configure, build, ctest) twice — once in the
# default two-space configuration and once with MGC_TEST_GEN_GC=1, which
# re-runs every gc-tables test through generational mode (nursery + write
# barriers + minor collections) with the remembered-set cross-check on —
# then the decode microbenchmarks (BENCH_decode.json), the generational
# pause benchmarks (BENCH_gengc.json), and the observability overhead gate
# (BENCH_trace.json), and the heap-snapshot cost gate (BENCH_snapshot.json)
# so successive PRs leave a perf trajectory.  The gengc binary exits
# non-zero on any cross-check or output divergence between the two modes;
# trace_overhead exits non-zero when the tracer costs the mutator more
# than the issue gates allow; snapshot_overhead exits non-zero when
# attribution maintenance exceeds 2% of collection time or a capture
# costs more than one full-collection pause; the dispatch gate
# (BENCH_dispatch.json) exits non-zero when the threaded tier's mutator
# speedup over the switch interpreter drops below 1.5x or the tiers
# diverge; the pause recorder (BENCH_pause.json) exits non-zero only
# when a run fails or prints the wrong output; the server gate
# (BENCH_server.json) exits non-zero when the request harness loses
# virtual-time determinism, GC-pause attribution, or cross-policy output
# identity; the leak gate (BENCH_leak.json) exits non-zero when the
# online growth detector costs more than its overhead gates (1% off, 3%
# on), misses the injected leak within its window bound, flags the
# leak-free §6 suite, or loses flag determinism across dispatch tiers;
# the profiler gate (BENCH_prof.json) exits non-zero when the sampling
# profiler costs more than 1% attached-disabled / 5% enabled, when the
# ground-truth workload pins less than 90% of the sampled weight to the
# known hot function, or when the dispatch tiers' profiles diverge;
# and the whole suite (minus the reducer self-test) is additionally
# built and run under AddressSanitizer + UndefinedBehaviorSanitizer.
# Snapshots are then captured (cross-checked against an independent
# precise re-trace) and analyzed for the four §6 benchmark programs and
# the frozen corpus in both collector modes.
#
#   tools/check.sh [--skip-tests]
#
#===------------------------------------------------------------------------===#
set -euo pipefail

cd "$(dirname "$0")/.."
ROOT="$PWD"

SKIP_TESTS=0
for Arg in "$@"; do
  case "$Arg" in
    --skip-tests) SKIP_TESTS=1 ;;
    *) echo "usage: tools/check.sh [--skip-tests]" >&2; exit 2 ;;
  esac
done

# --- Tier-1 verify -------------------------------------------------------
cmake -B build -S .
cmake --build build -j
if [ "$SKIP_TESTS" -eq 0 ]; then
  (cd build && ctest --output-on-failure -j)
  # Second pass: the same suite through the generational collector (write
  # barriers + nursery + minor collections + remembered-set cross-check).
  # Outputs and assertions must not change.
  (cd build && MGC_TEST_GEN_GC=1 ctest --output-on-failure -j)
fi

# --- Decode perf trajectory ---------------------------------------------
# Short min_time: this is a trajectory marker, not a publication run.
# (Older google-benchmark releases reject the "0.05x" repetition syntax,
# so pass plain seconds.)
MIN_TIME="${BENCH_MIN_TIME:-0.05}"
./build/bench/micro_decode \
  --benchmark_filter='BM_Decode|BM_BuildMapIndex|BM_FullCollection' \
  --benchmark_min_time="$MIN_TIME" \
  --benchmark_out="$ROOT/BENCH_decode.json" \
  --benchmark_out_format=json \
  --benchmark_format=console

# --- Generational pause trajectory --------------------------------------
# verifyModes() inside the binary runs every workload in both modes with
# cross-checks on and exits non-zero on divergence, failing this script.
./build/bench/gengc \
  --benchmark_out="$ROOT/BENCH_gengc.json" \
  --benchmark_out_format=json \
  --benchmark_format=console

# --- Observability overhead gate -----------------------------------------
# Runs the gengc workloads with the tracer absent / attached-disabled /
# enabled and exits non-zero when the generational-mode overhead exceeds
# the issue gates (1% disabled, 3% enabled), failing this script.  Also
# records pause p50/p95 per collector mode.  MGC_TRACE_RUNS tunes the
# timing repetitions.
(cd "$ROOT" && ./build/bench/trace_overhead)

# --- Heap snapshot gate + capture/analysis sweep -------------------------
# snapshot_overhead gates attribution maintenance (<= 2% of collection
# time; it is header-borne, so the measured delta is ~0) and capture cost
# (<= one full-collection pause) on the gengc workloads, cross-checks the
# at-exit snapshots of the four §6 benchmark programs, writes them to
# $SNAPDIR for analysis, and emits BENCH_snapshot.json.
SNAPDIR="$ROOT/build/snapshots"
mkdir -p "$SNAPDIR"
(cd "$ROOT" && MGC_SNAP_DIR="$SNAPDIR" ./build/bench/snapshot_overhead)
for Snap in "$SNAPDIR"/*.snap; do
  ./build/tools/mgc-heapsnap --top 5 "$Snap" > /dev/null
done

# The frozen corpus through the CLI pipeline, two-space and generational:
# capture an at-exit snapshot with the capture-vs-recount-vs-conservative
# cross-check on, analyze it, and diff the two modes' snapshots (same
# program, so per-site growth is well-defined; exercises mgc-heapsnap
# --diff end to end).
for Mg in "$ROOT"/tests/corpus/*.mg; do
  Base="$SNAPDIR/$(basename "$Mg" .mg)"
  ./build/tools/mgc --gc-crosscheck --heap-snapshot "$Base.snap" \
      "$Mg" > /dev/null
  ./build/tools/mgc --gen-gc --gc-crosscheck \
      --heap-snapshot "$Base.gen.snap" "$Mg" > /dev/null
  ./build/tools/mgc-heapsnap --top 5 "$Base.snap" > /dev/null
  ./build/tools/mgc-heapsnap --top 5 "$Base.gen.snap" > /dev/null
  ./build/tools/mgc-heapsnap --diff "$Base.snap" "$Base.gen.snap" \
      > /dev/null
done

# --- Dispatch-tier throughput gate ---------------------------------------
# Runs the §6 benchmarks under both execution tiers (reference switch
# interpreter vs pre-decoded computed-goto), verifies they agree
# bit-identically on output/instructions/collections, and exits non-zero
# when the geometric-mean mutator speedup of threaded over switch drops
# below 1.5x.  Emits BENCH_dispatch.json.  MGC_DISPATCH_RUNS tunes the
# timing repetitions.
(cd "$ROOT" && ./build/bench/dispatch)

# --- Pause / MMU recorder ------------------------------------------------
# Runs the §6 benchmarks plus a high-thread-count spin mix through the
# serial collector and records pause p50/p99/max plus the MMU curve in
# BENCH_pause.json.  Nothing is gated on time; a failed run or a wrong
# output exits non-zero.  MGC_PAUSE_RUNS tunes the timing repetitions.
(cd "$ROOT" && ./build/bench/pause)

# --- Server-workload gate -------------------------------------------------
# Drives three generated MG server programs (uniform, bursty, spin-mix
# arrivals) to steady state under four heap-sizing policies x both
# dispatch tiers, verifies virtual-time determinism (same seed =>
# identical outputs, service demands, and latency samples across every
# cell), exact GC-pause attribution against the tracer, and
# cross-policy output identity, then records requests/sec, latency
# p50/p99/max, and mutator utilization per cell in BENCH_server.json.
# MGC_SERVER_RUNS tunes the timing repetitions.
(cd "$ROOT" && ./build/bench/server)

# --- Leak-triage gate -----------------------------------------------------
# Measures the online growth detector's mutator cost on the gengc
# workloads (tracer enabled in all three cells: no leak config /
# configured-but-disabled / enabled), then checks detection (an injected
# global-chain leak must be flagged at the Grow site within K = Window
# full collections), false positives (the §6 suite must flag nothing),
# and determinism (flags byte-identical across both dispatch tiers).
# Emits BENCH_leak.json; any failed gate exits non-zero.  MGC_LEAK_RUNS tunes the timing repetitions.
(cd "$ROOT" && ./build/bench/leak)

# --- Sampling-profiler gate -----------------------------------------------
# Times the gengc workloads with the profiler absent / attached-disabled /
# enabled (<= 1% / <= 5% over baseline), checks the directed ground-truth
# workload attributes >= 90% of the sampled mutator weight to its hot
# function with zero table-walk errors, and verifies the threaded and
# switch tiers produce byte-identical profile bodies.  Emits
# BENCH_prof.json; MGC_PROF_RUNS tunes the timing repetitions.
(cd "$ROOT" && ./build/bench/prof)

# --- AddressSanitizer + UndefinedBehaviorSanitizer sweep -----------------
# The whole suite again with heap-overflow, use-after-free, and UB checks
# (signed overflow, bad shifts, misaligned loads) fatal.  The reducer
# self-test FuzzSelfTest.InjectedDeltaBitBugCaughtAndReduced is excluded:
# its reduction loop takes about eight minutes under ASan.  The sanitizer
# build tree is separate so the main build stays instrumentation-free.
if [ "$SKIP_TESTS" -eq 0 ]; then
  cmake -B build-asan -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=undefined -O1 -g"
  cmake --build build-asan --target mgc_tests mgc_fuzz_tests -j "$(nproc)"
  (cd build-asan && ctest --output-on-failure -j "$(nproc)" \
      -E '^FuzzSelfTest\.InjectedDeltaBitBugCaughtAndReduced$')
fi

# --- Differential fuzz budget --------------------------------------------
# A fixed-seed campaign through the whole mode matrix; exits non-zero on
# any divergence or generator defect.  BENCH_fuzz.json records throughput
# (programs/sec) and feature-coverage fractions as trajectory markers.
FUZZ_COUNT="${FUZZ_COUNT:-200}"
./build/tools/mgc-fuzz --seed 1 --count "$FUZZ_COUNT" \
  --out "$ROOT/fuzz-artifacts" --json "$ROOT/BENCH_fuzz.json"

# --- BENCH_*.json provenance schema check ---------------------------------
# Every benchmark artifact must be valid JSON and self-describe the build
# that produced it: hand-built emitters carry a top-level "provenance"
# object (support/Provenance.h), google-benchmark emitters carry the same
# fields via AddCustomContext in "context".  A PR that breaks an emitter's
# JSON or drops the provenance header fails here, not in a later analysis.
python3 - "$ROOT"/BENCH_*.json <<'PYEOF'
import json, sys
bad = 0
for path in sys.argv[1:]:
    try:
        with open(path) as f:
            doc = json.load(f)
    except Exception as e:
        print(f"schema-check: {path}: invalid JSON: {e}")
        bad = 1
        continue
    prov = doc.get("provenance") or doc.get("context") or {}
    missing = [k for k in ("tool_version", "build_flags") if not prov.get(k)]
    if missing:
        print(f"schema-check: {path}: provenance missing {missing}")
        bad = 1
if bad:
    sys.exit(1)
print(f"schema-check: {len(sys.argv) - 1} BENCH files ok")
PYEOF

echo "check.sh: tier-1 ok (default + gen-gc); trace overhead ok;" \
     "snapshot gate ok; dispatch gate ok; pauses recorded; server gate ok;" \
     "leak gate ok; prof gate ok; ASan+UBSan suite ok;" \
     "fuzz ok ($FUZZ_COUNT programs); benchmarks written to" \
     "BENCH_decode.json, BENCH_gengc.json, BENCH_trace.json," \
     "BENCH_snapshot.json, BENCH_dispatch.json, BENCH_pause.json," \
     "BENCH_server.json, BENCH_leak.json, BENCH_prof.json, BENCH_fuzz.json"
