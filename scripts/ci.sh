#!/usr/bin/env bash
# CI entry point: build + test the default (Release) tree, the
# ASan+UBSan tree (COLIBRI_SANITIZE=ON), and the TSan tree
# (COLIBRI_SANITIZE=thread). Any failing step fails the run.
#
# After each functional preset's full suite, the data-plane parity gate
# re-runs by name: the wire-fuzz corpus replay (tests/fuzz), the
# scalar-vs-batched differential suites, and the two frame-path suites
# (batch_ingest, and Eq. 6 over the real frame length on both router
# paths). These are the tests that prove the batched/sharded pipeline
# is observationally identical to the scalar reference, so they get
# their own visible (and grep-able) CI step — under the asan preset
# this is the required "differential under ASan+UBSan" run.
#
# The functional presets then re-run the control-plane wire gate by
# name: the bus-frame digests (WireIdentityTest, both runs), the handler
# edge cases, the canonical payload codec (MessageCodecTest,
# AuthedPayloadTest) and the wire-fuzz corpus replay. Frames are coded
# only at the bus boundary and every hop re-encodes what it decodes, so
# these are the tests that pin the control plane's bytes.
#
# The tsan preset is a race lane, not a functional lane: it runs the
# concurrency-shaped suites (the telemetry stress test, the sharded
# runtime drain/health tests, the SPSC ring, concurrent counters, the
# locked reservation db and striped EER admission) under ThreadSanitizer
# instead of repeating the whole functional suite.
#
# These three gates pick their tests by name, and a `ctest -R`
# alternative that matches no test passes silently. So the default
# preset first checks that every alternative of the three lists names at
# least one test: a renamed or deleted test fails the run instead of
# quietly dropping out of its gate.
#
# The default preset also checks the built data-plane objects for the
# batch prefetch instructions. GCC deletes a __builtin_prefetch call it
# deems pure, which once left both batch prefetch stages empty without
# failing any test; objdump shows whether they exist.
#
# Every functional preset (and the tsan race lane) then re-runs the
# chaos lane by label: the fault-injection, link-failover, and WAL
# crash-recovery suites carry the `chaos` ctest label (tests/CMakeLists)
# so the deterministic-adversity proof is a visible CI step of its own.
#
# The default preset additionally smoke-tests the colibri_obs tool end
# to end: run the demo scenario, dump every artifact, export a Perfetto
# trace, query the sharded-runtime health surface, drive the failover
# scenario through the watch dashboard, run the fleet-federation
# scenario through both the fleet table and the watch fleet line, and
# check that the SimClock-driven outputs (event dump, fleet table,
# fleet watch frame) come out byte-identical on a second run.
#
# The opt-in bench-gate lane (not part of the default preset list —
# benchmark numbers are machine-sensitive, so it only runs when asked
# for) builds the Release tree, runs every benchmark that has a
# committed baseline under bench/baselines/, and fails the run if
# throughput or latency percentiles regressed beyond the tolerance
# (BENCH_TOLERANCE, default from scripts/check_bench.py).
#
#   scripts/ci.sh              # all three presets
#   scripts/ci.sh default      # just one
#   scripts/ci.sh bench-gate   # benchmark regression gate only
#   JOBS=4 scripts/ci.sh       # limit build parallelism
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${JOBS:-$(nproc)}"
PRESETS=("$@")
[ ${#PRESETS[@]} -gt 0 ] || PRESETS=(default asan tsan)

# The gate's own self-test runs before anything it might gate: a broken
# gate must fail the run, not wave regressions through.
echo "=== check_bench self-test"
python3 scripts/check_bench.py --self-test

TSAN_SUITES='TelemetryStressTest|ShardedRuntimeTest|SpscRingTest'
TSAN_SUITES+='|CounterTest.ConcurrentIncrementsFromManyThreads'
TSAN_SUITES+='|ControlPlaneStressTest'
TSAN_SUITES+='|ReservationDbTest.NextResIdIsUniqueAcrossThreads'
TSAN_SUITES+='|SamplerAlertStressTest'
TSAN_SUITES+='|FleetAuditStressTest'
TSAN_SUITES+='|HistoryIncidentStressTest'

DP_PARITY_SUITES='fuzz_corpus_replay|RouterDifferential|GatewayDifferential'
DP_PARITY_SUITES+='|ShardedGatewayTest|CmacMultiTest|BatchedFlightRecorderTest'
DP_PARITY_SUITES+='|BatchIngestTest|FrameLengthBindingTest'

CP_WIRE_SUITES='WireIdentityTest|HandlerEdgeTest|MessageCodecTest'
CP_WIRE_SUITES+='|AuthedPayloadTest|fuzz_corpus_replay'

# Fails when an alternative of a `|`-separated ctest regex matches no
# test of the preset's tree.
check_gate_names() {
  local preset=$1 list alt count missing=0
  shift
  for list in "$@"; do
    IFS='|' read -ra alts <<< "$list"
    for alt in "${alts[@]}"; do
      count=$(ctest --preset "$preset" -N -R "$alt" \
        | sed -n 's/^Total Tests: //p')
      if [ "${count:-0}" -eq 0 ]; then
        echo "gate regex alternative '$alt' matches no test" >&2
        missing=1
      fi
    done
  done
  return "$missing"
}

# Fails unless each listed function of the data-plane objects in $1
# holds a software prefetch instruction.
check_prefetches() {
  local dir=$1 fn obj body missing=0
  while read -r fn obj; do
    body=$(objdump -d -C "$dir/$obj.cpp.o" \
      | awk -v fn="<colibri::dataplane::$fn(" \
          'index($0, fn) && /:$/ { on = 1; next } /^$/ { on = 0 } on')
    if ! grep -Eq 'prefetch(t0|t1|t2|nta)' <<< "$body"; then
      echo "no prefetch instruction in $fn ($obj.cpp.o)" >&2
      missing=1
    fi
  done <<'LIST'
DuplicateSuppression::prefetch dupsup
Gateway::process_batch_chunk gateway
LIST
  return "$missing"
}

for preset in "${PRESETS[@]}"; do
  if [ "$preset" = bench-gate ]; then
    echo "=== [bench-gate] configure + build (default preset)"
    cmake --preset default
    cmake --build --preset default -j "$JOBS"
    BENCH_DIR=$(dirname "$(find build -name bench_cserv_throughput -type f | head -1)")
    echo "=== [bench-gate] run baselined benchmarks"
    for baseline in bench/baselines/BENCH_*.json; do
      bench=$(basename "$baseline" .json)
      bench=${bench#BENCH_}
      (cd "$BENCH_DIR" && "./$bench" > /dev/null)
    done
    echo "=== [bench-gate] compare against bench/baselines"
    python3 scripts/check_bench.py --current "$BENCH_DIR" \
      --report build/bench_gate_report.json \
      ${BENCH_TOLERANCE:+--tolerance "$BENCH_TOLERANCE"}
    continue
  fi
  echo "=== [$preset] configure"
  cmake --preset "$preset"
  echo "=== [$preset] build"
  cmake --build --preset "$preset" -j "$JOBS"
  if [ "$preset" = tsan ]; then
    echo "=== [$preset] concurrency race gate (telemetry + sharded runtime + control plane)"
    ctest --preset "$preset" -R "$TSAN_SUITES"
    echo "=== [$preset] chaos lane (fault injection, failover, WAL recovery)"
    ctest --preset "$preset" -L chaos
    continue
  fi
  if [ "$preset" = default ]; then
    echo "=== [$preset] batch prefetch instructions survive the optimizer"
    check_prefetches build/src/CMakeFiles/colibri_dataplane.dir/colibri/dataplane
    echo "=== [$preset] name-picked gates: every regex alternative matches a test"
    check_gate_names "$preset" "$TSAN_SUITES" "$DP_PARITY_SUITES" \
      "$CP_WIRE_SUITES"
  fi
  echo "=== [$preset] test"
  ctest --preset "$preset"
  echo "=== [$preset] data-plane parity gate (fuzz corpus + differential)"
  ctest --preset "$preset" -R "$DP_PARITY_SUITES"
  echo "=== [$preset] control-plane wire gate (bus-frame digests + payload codec)"
  ctest --preset "$preset" -R "$CP_WIRE_SUITES"
  echo "=== [$preset] chaos lane (fault injection, failover, WAL recovery)"
  ctest --preset "$preset" -L chaos
done

for preset in "${PRESETS[@]}"; do
  if [ "$preset" = default ]; then
    echo "=== [default] colibri_obs smoke (scenario, dumps, trace, health)"
    OBS=build/src/colibri_obs
    [ -x "$OBS" ] || OBS=$(find build -name colibri_obs -type f | head -1)
    "$OBS" > /dev/null
    "$OBS" --dump=openmetrics | grep -q '^# EOF$'
    # Through a file: `| head -1` would close the pipe on a dump larger
    # than the pipe buffer, and pipefail would fail the step on SIGPIPE.
    events_out=$(mktemp /tmp/colibri_events.XXXXXX)
    "$OBS" --dump=events > "$events_out"
    head -1 "$events_out" | grep -q '"name"'
    rm -f "$events_out"
    "$OBS" --query=router.forwarded > /dev/null
    trace_out=$(mktemp /tmp/colibri_trace.XXXXXX.json)
    "$OBS" trace --perfetto "$trace_out" | grep -q 'trace events'
    grep -q '"traceEvents"' "$trace_out"
    rm -f "$trace_out"
    "$OBS" health | grep -q 'stall detector: all workers live'
    "$OBS" watch --once | grep -q 'alerts:'
    echo "=== [default] colibri_obs failover-scenario smoke"
    "$OBS" watch --once --scenario=failover | grep -q 'failover:'
    echo "=== [default] colibri_obs fleet-federation smoke"
    "$OBS" fleet --once | grep -q 'audit: PASS'
    "$OBS" watch --once --scenario=fleet | grep -q 'fleet:'
    echo "=== [default] colibri_obs determinism smoke (two runs, same bytes)"
    det_dir=$(mktemp -d /tmp/colibri_det.XXXXXX)
    for run in 1 2; do
      "$OBS" --dump=events > "$det_dir/events.$run"
      "$OBS" fleet --once > "$det_dir/fleet.$run"
      "$OBS" watch --once --scenario=fleet > "$det_dir/watch_fleet.$run"
    done
    for out in events fleet watch_fleet; do
      cmp "$det_dir/$out.1" "$det_dir/$out.2"
    done
    rm -rf "$det_dir"
    echo "=== [default] colibri_obs forensics smoke (history round-trip + incident)"
    forensics_dir=$(mktemp -d /tmp/colibri_forensics.XXXXXX)
    "$OBS" watch --once --scenario=failover --forensics-dir="$forensics_dir" \
      > /dev/null
    # Write → reopen → query: the offline CLI opens the store the
    # scenario just wrote and must recover every frame cleanly.
    "$OBS" incident list --dir="$forensics_dir" \
      | grep -q 'cserv.failover-active'
    "$OBS" incident show --dir="$forensics_dir" \
      | grep -q '"schema": "colibri.incident.v1"'
    "$OBS" history query --series=gateway.forwarded --dir="$forensics_dir" \
      > /dev/null
    "$OBS" history rate --series=router.forwarded --dir="$forensics_dir" \
      > /dev/null
    "$OBS" history p99 --series=cserv.request_latency_ns \
      --dir="$forensics_dir" > /dev/null
    rm -rf "$forensics_dir"
  fi
done

echo "=== all presets green: ${PRESETS[*]}"
