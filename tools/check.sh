#!/usr/bin/env bash
#===- tools/check.sh - tier-1 verify + decode perf trajectory -------------===#
#
# Part of the mgc project (PLDI 1992 gc-tables reproduction).
#
# Steps, in order (any failure exits non-zero):
#   verify        configure, build, ctest; ctest again with MGC_TEST_GEN_GC=1
#   sec63_tracing §6.3 stack tracing, indexed == reference cross-check,
#                 decode microcosts -> BENCH_decode.json
#   obs_overhead  tracer/snapshot/leak/profiler gates -> BENCH_{trace,
#                 snapshot,leak,prof}.json
#   snapshots     mgc-heapsnap on the §6 snapshots and the corpus, both modes;
#                 the corpus traces and profiles through mgc-report and
#                 mgc-prof; per-collection §6 streams through mgc-heapsnap
#                 --watch
#   dispatch      threaded >= 1.5x switch, same output -> BENCH_dispatch.json
#   pause         pause percentiles and MMU, not gated -> BENCH_pause.json
#   server        request-harness determinism -> BENCH_server.json
#   asan          the suite under ASan+UBSan in build-asan/
#   fuzz          fixed-seed differential campaign -> BENCH_fuzz.json
#   schema        every BENCH_*.json parses and carries provenance
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

# --- §6.3 stack tracing and decode microcosts ----------------------------
# Times stack tracing per collection with the reference and the indexed
# decoder, exits non-zero when their roots, derived values or frames
# differ or when the cross-checked runs disagree, and records the decode
# microcosts (min of interleaved rounds, CPU time) in BENCH_decode.json.
(cd "$ROOT" && ./build/bench/sec63_tracing)

# --- Observability gates + snapshot capture/analysis sweep --------------
# obs_overhead times the tracer, snapshot capture, leak detector and
# profiler against their limits, checks leak detection, profiler ground
# truth and cross-tier identity, and cross-checks the at-exit snapshots of
# the four §6 programs, which it writes to $SNAPDIR for analysis.  It
# writes all four BENCH files, then exits non-zero on any failed gate.
SNAPDIR="$ROOT/build/snapshots"
mkdir -p "$SNAPDIR"
(cd "$ROOT" && MGC_SNAP_DIR="$SNAPDIR" ./build/bench/obs_overhead)
for Snap in "$SNAPDIR"/*.snap; do
  ./build/tools/mgc-heapsnap --top 5 "$Snap" > /dev/null
done

# The frozen corpus through the CLI pipeline, two-space and generational:
# capture an at-exit snapshot with the capture-vs-recount-vs-conservative
# cross-check on, a trace with the leak detector on and a profile; analyze
# the snapshot, render the trace with every mgc-report view (the --json
# one must parse) and the profile with both mgc-prof views; then diff the
# two modes' snapshots (same program, so per-site growth is well-defined;
# exercises mgc-heapsnap --diff end to end).
for Mg in "$ROOT"/tests/corpus/*.mg; do
  Base="$SNAPDIR/$(basename "$Mg" .mg)"
  for Mode in two-space gen-gc; do
    Out="$Base"
    Flags=(--gc-crosscheck)
    if [ "$Mode" = gen-gc ]; then
      Out="$Base.gen"
      Flags+=(--gen-gc)
    fi
    ./build/tools/mgc "${Flags[@]}" --heap-snapshot "$Out.snap" \
        --trace "$Out.jsonl" --leak-detect --profile "$Out.prof" \
        "$Mg" > /dev/null
    ./build/tools/mgc-heapsnap --top 5 "$Out.snap" > /dev/null
    ./build/tools/mgc-report "$Out.jsonl" > /dev/null
    ./build/tools/mgc-report --leaks "$Out.jsonl" > /dev/null
    ./build/tools/mgc-report --json "$Out.jsonl" | python3 -m json.tool \
        > /dev/null
    ./build/tools/mgc-prof "$Out.prof" > /dev/null
    ./build/tools/mgc-prof --folded "$Out.prof" > /dev/null
  done
  ./build/tools/mgc-heapsnap --diff "$Base.snap" "$Base.gen.snap" \
      > /dev/null
done

# Snapshots after every collection: the §6 programs that collect in a
# 64 KiB heap, two-space and generational, each capture cross-checked by
# mgc (a failed capture exits 1), then each stream read back by
# mgc-heapsnap --watch.  takl is left out: it never collects in 64 KiB,
# and --watch needs two snapshots.
for Name in destroy typereg fieldlist; do
  for Mode in two-space gen-gc; do
    Base="$SNAPDIR/every.$Name.$Mode.snap"
    rm -f "$Base" "$Base".*
    Flags=(--heap 65536 --gc-crosscheck)
    [ "$Mode" = gen-gc ] && Flags+=(--gen-gc)
    ./build/tools/mgc "${Flags[@]}" --heap-snapshot "$Base" \
        --snapshot-every 1 "$ROOT/perfbench/programs/sec6_$Name.mg" \
        > /dev/null
    ./build/tools/mgc-heapsnap --watch "$Base" > /dev/null
  done
done

# --- Dispatch-tier throughput gate ---------------------------------------
# Runs the §6 benchmarks under both execution tiers (reference switch
# interpreter vs pre-decoded computed-goto), verifies they agree
# bit-identically on output/instructions/collections, and exits non-zero
# when the geometric-mean mutator speedup of threaded over switch drops
# below 1.5x.  Emits BENCH_dispatch.json.
(cd "$ROOT" && ./build/bench/dispatch)

# --- Pause / MMU recorder ------------------------------------------------
# Runs the §6 benchmarks, destroy at a 3.2 MB live set in a 4 MiB
# semispace (the full-collection copy kernel at MB scale) and a
# high-thread-count spin mix through the serial collector and records
# pause p50/p99/max, the MMU curve, objects and bytes copied and copy ns
# per object in BENCH_pause.json.  Nothing is gated on time; a failed run
# or a wrong output exits non-zero.
(cd "$ROOT" && ./build/bench/pause)

# --- Server-workload gate -------------------------------------------------
# Drives three generated MG server programs (uniform, bursty, spin-mix
# arrivals) to steady state under four heap-sizing policies x both
# dispatch tiers, verifies virtual-time determinism (same seed =>
# identical outputs, service demands, and latency samples across every
# cell), exact GC-pause attribution against the tracer, and
# cross-policy output identity, then records requests/sec, latency
# p50/p99/max, and mutator utilization per cell in BENCH_server.json.
(cd "$ROOT" && ./build/bench/server)

# --- AddressSanitizer + UndefinedBehaviorSanitizer sweep -----------------
# The whole suite again with heap-overflow, use-after-free, and UB checks
# (signed overflow, bad shifts, misaligned loads) fatal.  The tools are
# built too: the CliNumericArg, CliReport, CliProf, CliHeapsnap and
# ObsHotStacks ctest cases run them.  The sanitizer build tree is separate
# so the main build stays instrumentation-free.
if [ "$SKIP_TESTS" -eq 0 ]; then
  cmake -B build-asan -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=undefined -O1 -g"
  cmake --build build-asan --target mgc_tests mgc_fuzz_tests mgc mgc-heapsnap \
    mgc-prof mgc-report mgc-fuzz -j "$(nproc)"
  (cd build-asan && ctest --output-on-failure -j "$(nproc)")
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
# that produced it: each opens with the top-level "provenance" object that
# bench::BenchFile and mgc-fuzz write (support/Provenance.h).  A change that
# breaks an emitter's JSON or drops the provenance header fails here, not
# in a later analysis.
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
    prov = doc.get("provenance") or {}
    missing = [k for k in ("tool_version", "build_flags") if not prov.get(k)]
    if missing:
        print(f"schema-check: {path}: provenance missing {missing}")
        bad = 1
if bad:
    sys.exit(1)
print(f"schema-check: {len(sys.argv) - 1} BENCH files ok")
PYEOF

echo "check.sh: tier-1 ok (default + gen-gc); §6.3 indexed == reference;" \
     "obs gates ok (trace, snapshot, leak, prof); dispatch gate ok;" \
     "pauses recorded; server gate ok; ASan+UBSan suite ok;" \
     "fuzz ok ($FUZZ_COUNT programs); benchmarks written to" \
     "BENCH_decode.json, BENCH_trace.json, BENCH_snapshot.json," \
     "BENCH_dispatch.json, BENCH_pause.json, BENCH_server.json," \
     "BENCH_leak.json, BENCH_prof.json, BENCH_fuzz.json"
