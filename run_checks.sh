#!/bin/bash
# Correctness gate for the invariant-checking subsystem (src/check).
#
# 1. Builds the tree under -DDRS_SANITIZE=address, =thread and
#    =undefined and runs the `check`-labelled suites (plus the registry,
#    fuzz-smoke and `sanitize` legs -- the last holds the concurrency
#    suites: parallelFor, SMX threads, counters -- and the ray-trace
#    parser and path tracer suite) under each sanitizer with DRS_CHECK=1:
#    test_check plus fuzz_smoke, the seeded randomized lockstep
#    cross-check (fixed master seed 0x5eed -> deterministic configs,
#    every seed printed for --replay, every SimStats digest checked
#    against tests/golden/fuzz_sim_0x5eed.txt).
# 2. Kill-mid-sweep resume smoke, in every sanitizer build: a bench run
#    is crash-injected after two journal appends (DRS_CRASH_AFTER -> exit
#    70), resumed with --resume, and the merged report must be identical
#    to an uninterrupted run (wall-clock and resume bookkeeping aside).
# 3. Runs one bench twice in the regular build -- DRS_CHECK=0 vs
#    DRS_CHECK=1 -- and verifies both JSON reports validate against the
#    schema (`drs profile`) and are identical except for
#    wall-clock fields: invariant checking must be a pure observer.
# 4. Profiler smoke: the same bench under DRS_SAMPLE + DRS_TRACE must
#    emit a Chrome trace that passes tests/check_trace.py, a report that
#    `drs profile` can render, and bench_compare.py must pass a
#    self-compare of that report and flag a perturbed copy.
# 5. Fleet chaos leg (regular build + asan; NOT tsan -- fork() under
#    thread-sanitizer interceptors is unreliable): ctest -L fleet runs
#    the multi-process fleet suites plus tests/check_fleet_chaos.sh,
#    which SIGKILLs workers at random points, crash-injects the
#    coordinator, resumes, and requires the recovered report to be
#    bit-identical to a clean single-process run -- with the event log,
#    trace stitching and --progress ticker on, cross-checked against
#    summary.fleet.
# 6. Telemetry smoke (regular build): a fleet bench under DRS_LOG +
#    DRS_TRACE; the event log must analyze cleanly (`drs events`), the
#    trace shards must merge (`drs tracecat`) into a document that passes
#    tests/check_trace.py, and logging must be a pure observer (report
#    identical to a telemetry-off run, wall-clock aside).
# 7. Model digests: one untimed perfbench sample of each of the three
#    workloads (perfbench/run.py --seconds 0 --trace 0, its own Release
#    build in .bench_build/) must check every job against its stored
#    SimStats digest: the result line must say "correct": true with
#    "failed": 0. A change to the simulator's speed must not change what
#    it computes.
#
# Every build (regular and sanitizer) is configured with
# -DDRS_WERROR=ON: a new compiler warning fails the gate.
#
# Usage: run_checks.sh [--skip-sanitizers]

set -euo pipefail
cd "$(dirname "$0")"

JOBS=${DRS_JOBS:-$(nproc 2>/dev/null || echo 2)}
skip_san=0
[ "${1:-}" = "--skip-sanitizers" ] && skip_san=1

# Kill a sweep mid-run (crash injection after 2 journal appends), resume
# it from the journal, and require the merged report to match a clean
# uninterrupted run. $1 = build dir whose bench binary to use.
resume_smoke() {
  local bench="$1/bench/bench_fig2_aila_breakdown"
  local tmp
  tmp=$(mktemp -d)
  echo "-- kill-mid-sweep resume smoke ($bench)"
  local rc=0
  DRS_RAYS=2048 DRS_SCALE=0.05 DRS_SMX=2 DRS_CRASH_AFTER=2 \
      "$bench" --jobs 2 --journal "$tmp/journal.jsonl" \
      >"$tmp/crashed.log" 2>&1 || rc=$?
  if [ "$rc" -ne 70 ]; then
    echo "FAIL: expected crash-injected exit code 70, got $rc"
    cat "$tmp/crashed.log"
    rm -rf "$tmp"
    return 1
  fi
  DRS_RAYS=2048 DRS_SCALE=0.05 DRS_SMX=2 \
      "$bench" --jobs 2 --journal "$tmp/journal.jsonl" --resume \
      --json "$tmp/BENCH_resumed.json" >/dev/null
  DRS_RAYS=2048 DRS_SCALE=0.05 DRS_SMX=2 \
      "$bench" --jobs 2 --json "$tmp/BENCH_clean.json" >/dev/null
  "$1/tools/drs" profile "$tmp"/BENCH_*.json >/dev/null
  python3 - "$tmp/BENCH_clean.json" "$tmp/BENCH_resumed.json" <<'PYEOF'
import json
import sys


def strip(node, drop=("wall_seconds", "sweep")):
    """Drop wall-clock + resume bookkeeping; the rest must match."""
    if isinstance(node, dict):
        return {k: strip(v) for k, v in node.items() if k not in drop}
    if isinstance(node, list):
        return [strip(v) for v in node]
    return node


clean, resumed = (strip(json.load(open(p))) for p in sys.argv[1:3])
if clean != resumed:
    sys.exit("FAIL: resumed sweep differs from an uninterrupted run")
print("ok   resumed report identical to an uninterrupted run")
PYEOF
  rm -rf "$tmp"
}

if [ "$skip_san" -eq 0 ]; then
  for san in address thread undefined; do
    dir="build-${san:0:1}san" # build-asan / build-tsan / build-usan
    echo; echo "######## sanitizer: $san ($dir) ########"; echo
    cmake -B "$dir" -S . -DDRS_SANITIZE="$san" -DDRS_WERROR=ON >/dev/null
    cmake --build "$dir" -j"$JOBS"
    (cd "$dir" &&
     DRS_CHECK=1 ctest -L 'check|fuzz-smoke|fault|resume|registry|obs|sanitize' \
         --output-on-failure -j"$JOBS")
    resume_smoke "$dir"
    # Fleet suites fork real worker processes: sound under asan, not
    # under tsan interceptors, and redundant under usan -- asan only.
    if [ "$san" = address ]; then
      (cd "$dir" && ctest -L fleet --output-on-failure -j"$JOBS")
    fi
  done
fi

echo; echo "######## regular build: registry fuzz smoke ########"; echo
# The fuzzer draws its architecture from the plugin registry, so this leg
# exercises the whole lineup (hardware + software reorderers) even when
# the sanitizer builds are skipped. More configs than the ctest smoke:
# the regular build is fast. Every digest must be in the stored list.
cmake -B build -S . -DDRS_WERROR=ON >/dev/null
cmake --build build -j"$JOBS" --target fuzz_sim
bash tests/check_fuzz_golden.sh build/tools/fuzz_sim \
    tests/golden/fuzz_sim_0x5eed.txt --configs 75 --seed 0x5eed --jobs "$JOBS"

echo; echo "######## fleet: chaos recovery must be bit-identical ########"; echo
# ctest -L fleet covers the protocol/supervision suites AND the
# fleet_chaos harness (kill-mid-sweep -> --resume -> bit-identity with
# zero jobs lost or double-reported, verified by `drs journal --expect`).
cmake -B build -S . -DDRS_WERROR=ON >/dev/null
cmake --build build -j"$JOBS"
(cd build && ctest -L fleet --output-on-failure -j"$JOBS")

echo; echo "######## bench JSON: DRS_CHECK must be a pure observer ########"
echo
cmake -B build -S . -DDRS_WERROR=ON >/dev/null
cmake --build build -j"$JOBS" --target bench_fig2_aila_breakdown drs
resume_smoke build
json_dir=$(mktemp -d)
trap 'rm -rf "$json_dir"' EXIT
export DRS_RAYS=${DRS_RAYS:-20000} DRS_SCALE=${DRS_SCALE:-0.1} \
       DRS_SMX=${DRS_SMX:-2}
DRS_CHECK=0 build/bench/bench_fig2_aila_breakdown --jobs 2 \
    --json "$json_dir/BENCH_unchecked.json"
DRS_CHECK=1 build/bench/bench_fig2_aila_breakdown --jobs 2 \
    --json "$json_dir/BENCH_checked.json"
build/tools/drs profile "$json_dir"/BENCH_*.json >/dev/null
python3 - "$json_dir/BENCH_unchecked.json" "$json_dir/BENCH_checked.json" \
    <<'EOF'
import json
import sys


def strip(node):
    """Drop wall-clock fields; everything else must be bit-identical."""
    if isinstance(node, dict):
        return {k: strip(v) for k, v in node.items() if k != "wall_seconds"}
    if isinstance(node, list):
        return [strip(v) for v in node]
    return node


unchecked, checked = (strip(json.load(open(p))) for p in sys.argv[1:3])
if unchecked != checked:
    sys.exit("FAIL: DRS_CHECK=1 changed the bench report "
             "(beyond wall-clock fields)")
print("ok   bench report unchanged by DRS_CHECK=1")
EOF

echo; echo "######## telemetry: event log + stitched fleet trace smoke ########"
echo
telemetry_dir=$(mktemp -d)
DRS_LOG="$telemetry_dir/events.jsonl" DRS_LOG_LEVEL=debug DRS_LOG_RATE=0 \
    DRS_TRACE="$telemetry_dir/trace" \
    build/bench/bench_fig2_aila_breakdown --jobs 2 --fleet 2 --progress \
    --json "$telemetry_dir/BENCH_logged.json" >/dev/null 2>&1
build/tools/drs events "$telemetry_dir/events.jsonl" >/dev/null
dispatches=$(build/tools/drs events --count fleet.dispatch \
    "$telemetry_dir/events.jsonl")
if [ "$dispatches" -lt 1 ]; then
  echo "FAIL: fleet run logged no fleet.dispatch events"
  exit 1
fi
build/tools/drs tracecat -o "$telemetry_dir/merged.json" \
    "$telemetry_dir"/trace.w*.j* "$telemetry_dir/trace.coord"
python3 tests/check_trace.py "$telemetry_dir/merged.json"
build/bench/bench_fig2_aila_breakdown --jobs 2 --fleet 2 \
    --json "$telemetry_dir/BENCH_quiet.json" >/dev/null
build/tools/drs profile "$telemetry_dir"/BENCH_*.json >/dev/null
python3 - "$telemetry_dir/BENCH_quiet.json" \
    "$telemetry_dir/BENCH_logged.json" <<'EOF'
import json
import sys


def strip(node):
    """Drop wall-clock + supervision telemetry (resource usage and
    timing are wall-clock facts); simulation results must be
    bit-identical."""
    if isinstance(node, dict):
        return {k: strip(v) for k, v in node.items()
                if k not in ("wall_seconds", "fleet")}
    if isinstance(node, list):
        return [strip(v) for v in node]
    return node


quiet, logged = (json.load(open(p)) for p in sys.argv[1:3])
for document in (quiet, logged):
    document.pop("options", None)  # --progress / DRS_TRACE provenance
quiet, logged = strip(quiet), strip(logged)
if quiet != logged:
    sys.exit("FAIL: DRS_LOG/DRS_TRACE/--progress changed the bench report")
print("ok   bench report unchanged by the telemetry pipeline")
EOF
rm -rf "$telemetry_dir"

echo; echo "######## profiler: trace + attribution + comparator smoke ########"
echo
mkdir -p "$json_dir/profiled"
DRS_SAMPLE=500 DRS_TRACE="$json_dir/trace.json" \
    build/bench/bench_fig2_aila_breakdown --jobs 1 \
    --json "$json_dir/profiled/BENCH_fig2_aila_breakdown.json"
python3 tests/check_trace.py "$json_dir/trace.json"
build/tools/drs profile \
    "$json_dir/profiled/BENCH_fig2_aila_breakdown.json" >/dev/null
echo "ok   drs profile renders the sampled report"
bash tests/check_compare.sh python3 tools/bench_compare.py tests/fixtures

echo; echo "######## perfbench: every job matches its stored digest ########"
echo
for workload in fig11-lineup survey-incoherent ci-fleet; do
  result=$(python3 perfbench/run.py --workload "$workload" --seed 1 \
      --seconds 0 --trace 0 | tail -n 1)
  python3 - "$workload" "$result" <<'EOF'
import json
import sys

workload, line = sys.argv[1:3]
result = json.loads(line)
if result.get("correct") is not True or result.get("failed") != 0:
    sys.exit("FAIL: perfbench %s: %s" % (workload, line))
print("ok   perfbench %s: %d jobs match their stored digests"
      % (workload, result["attempted"]))
EOF
done

echo; echo "run_checks.sh: all checks passed"
