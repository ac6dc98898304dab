#!/bin/bash
# Fleet chaos harness: prove bit-identical recovery end to end, and that
# the telemetry pipeline accounts for every supervision event along the
# way.
#
#   1. Reference: a clean single-process sweep with ALL telemetry off
#      (no DRS_LOG, no DRS_TRACE, no --progress) -> ref.json.
#   2. Chaos: the same sweep across a 3-worker fleet with seeded SIGKILL
#      chaos (workers die at random points mid-job) AND a coordinator
#      crash injected after two journal appends (DRS_CRASH_AFTER ->
#      exit 70, workers die with the coordinator via PDEATHSIG). The
#      phase logs to its own DRS_LOG file (debug level, rate limiter
#      off) and traces to its own DRS_TRACE base.
#   3. The partial journal must already verify: parseable, no job
#      double-reported, at most one torn tail line. The partial event
#      log must hold the crash_injection record.
#   4. Resume: --resume under the same chaos finishes the sweep, with
#      its own DRS_LOG / DRS_TRACE and the --progress ticker on.
#   5. The recovered report must pass `drs profile`'s schema-v4 check
#      (including summary.fleet.telemetry) and the final journal must
#      hold every job exactly once (`drs journal --expect`).
#   6. Event-log accounting: every summary.fleet supervision counter of
#      the resume run (spawned, worker_deaths, respawned,
#      heartbeat_kills, redispatched, quarantined) must equal the count
#      of its event in that run's log (`drs events --count`), telemetry
#      digests must cover at most the jobs the log saw finish, and
#      `drs events` must accept the merged chaos+resume log (integrity:
#      at most one torn tail per file).
#   7. Trace stitching: `drs tracecat` merges every worker shard of both
#      phases (torn shards from SIGKILLed workers are expected debris)
#      with the resume coordinator shard; the merged trace must pass
#      check_trace.py and its supervision instants must match the
#      summary.fleet counters one for one.
#   8. Bit-identity: after stripping wall-clock and provenance
#      (wall_seconds, options, summary.sweep, summary.fleet) the
#      recovered fleet report equals the telemetry-off single-process
#      report byte for byte — observability changed nothing but the
#      clock.
#
# Usage: check_fleet_chaos.sh BENCH_BINARY DRS PYTHON TRACE_CHECKER
set -euo pipefail

bench=$1
drs=$2
python=$3
trace_checker=$4

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

scale_env=(DRS_RAYS=2048 DRS_SCALE=0.05 DRS_SMX=2)
chaos_env=(DRS_FLEET_CHAOS=1234 DRS_FLEET_CHAOS_RATE=0.8
           DRS_FLEET_RESPAWNS=64 DRS_FLEET_QUARANTINE=50
           DRS_FLEET_BACKOFF=0.001)
# Rate limiter OFF: the accounting below checks exact event counts, and
# a suppressed record would be a false mismatch. Debug level so the
# per-job dispatch/job_done records are captured too.
log_env=(DRS_LOG_LEVEL=debug DRS_LOG_RATE=0)

echo "== fleet chaos: clean single-process reference (telemetry off) =="
env "${scale_env[@]}" \
    "$bench" --jobs 2 --json "$tmp/ref.json" > "$tmp/ref.log"

echo "== fleet chaos: chaos fleet + coordinator crash (expect exit 70) =="
status=0
env "${scale_env[@]}" "${chaos_env[@]}" "${log_env[@]}" DRS_CRASH_AFTER=2 \
    DRS_LOG="$tmp/events_chaos.jsonl" DRS_TRACE="$tmp/trace_chaos" \
    "$bench" --jobs 2 --fleet 3 --progress --journal "$tmp/sweep.jsonl" \
    --json "$tmp/fleet.json" > "$tmp/crash.log" 2>&1 || status=$?
if [ "$status" -ne 70 ]; then
    echo "FAIL: crash-injected coordinator exited $status, expected 70"
    cat "$tmp/crash.log"
    exit 1
fi

echo "== fleet chaos: partial journal and partial event log verify =="
"$drs" journal "$tmp/sweep.jsonl"
crashes=$("$drs" events --count fleet.crash_injection "$tmp/events_chaos.jsonl")
if [ "$crashes" -ne 1 ]; then
    echo "FAIL: chaos-phase log has $crashes crash_injection records, expected 1"
    exit 1
fi

echo "== fleet chaos: resume under continued chaos (--progress on) =="
env "${scale_env[@]}" "${chaos_env[@]}" "${log_env[@]}" \
    DRS_LOG="$tmp/events_resume.jsonl" DRS_TRACE="$tmp/trace_resume" \
    "$bench" --jobs 2 --fleet 3 --progress --journal "$tmp/sweep.jsonl" \
    --resume --json "$tmp/fleet.json" \
    > "$tmp/resume.log" 2> "$tmp/resume.err"
grep -q 'replayed' "$tmp/resume.log" || {
    echo "FAIL: resumed run does not mention replayed jobs"
    cat "$tmp/resume.log"
    exit 1
}
grep -q '\[progress\]' "$tmp/resume.err" || {
    echo "FAIL: --progress produced no ticker output on stderr"
    cat "$tmp/resume.err"
    exit 1
}

echo "== fleet chaos: recovered report passes the schema =="
"$drs" profile "$tmp/fleet.json" > /dev/null

echo "== fleet chaos: final journal holds every job exactly once =="
jobs=$("$python" -c '
import json, sys
report = json.load(open(sys.argv[1]))
print(report["summary"]["sweep"]["total_jobs"])' "$tmp/fleet.json")
"$drs" journal "$tmp/sweep.jsonl" --expect "$jobs"

echo "== fleet chaos: event log accounts for every supervision event =="
fleet_counter() {
    "$python" -c '
import json, sys
fleet = json.load(open(sys.argv[1]))["summary"]["fleet"]
for key in sys.argv[2].split("."):
    fleet = fleet[key]
print(fleet)' "$tmp/fleet.json" "$1"
}
check_count() {
    local counter=$1 event=$2 want got
    want=$(fleet_counter "$counter")
    got=$("$drs" events --count "$event" "$tmp/events_resume.jsonl")
    if [ "$want" -ne "$got" ]; then
        echo "FAIL: summary.fleet.$counter=$want but the event log holds" \
             "$got $event records"
        exit 1
    fi
    echo "ok   $event x $got == summary.fleet.$counter"
}
check_count spawned fleet.spawn
check_count worker_deaths fleet.worker_death
check_count respawned fleet.respawn
check_count heartbeat_kills fleet.heartbeat_kill
check_count redispatched fleet.redispatch
check_count quarantined fleet.quarantine
frames=$(fleet_counter telemetry.frames)
reported=$(fleet_counter telemetry.jobs_reported)
job_done=$("$drs" events --count fleet.job_done "$tmp/events_resume.jsonl")
if [ "$frames" -lt 1 ] || [ "$reported" -gt "$job_done" ]; then
    echo "FAIL: telemetry frames=$frames jobs_reported=$reported vs" \
         "$job_done job_done records (want frames >= 1," \
         "jobs_reported <= job_done)"
    exit 1
fi
echo "ok   $frames telemetry frames cover $reported of $job_done jobs run"
# The merged two-phase log must be structurally sound (at most one torn
# crash-tail line per file) and analyzable as one story.
"$drs" events "$tmp/events_chaos.jsonl" "$tmp/events_resume.jsonl" \
    > "$tmp/events_summary.txt"
sed 's/^/     /' "$tmp/events_summary.txt"

echo "== fleet chaos: stitched trace passes and matches the counters =="
shopt -s nullglob
shards=("$tmp"/trace_chaos.w*.j* "$tmp"/trace_chaos.coord
        "$tmp"/trace_resume.w*.j* "$tmp"/trace_resume.coord)
shopt -u nullglob
"$drs" tracecat -o "$tmp/merged_trace.json" "${shards[@]}"
"$python" "$trace_checker" "$tmp/merged_trace.json"
"$python" - "$tmp/merged_trace.json" "$tmp/fleet.json" <<'PYEOF'
import json
import sys

trace = json.load(open(sys.argv[1]))
fleet = json.load(open(sys.argv[2]))["summary"]["fleet"]
instants = {}
for event in trace["traceEvents"]:
    if event.get("ph") == "i":
        kind = event.get("name", "").split(" ")[0]
        instants[kind] = instants.get(kind, 0) + 1
# The resume coordinator shard is the only lifecycle shard in the merge
# (the chaos coordinator crashed before writing its own), so its
# instants must match the resume run's counters one for one.
expectations = {
    "worker_death": fleet["worker_deaths"],
    "respawn": fleet["respawned"],
    "heartbeat_kill": fleet["heartbeat_kills"],
    "redispatch": fleet["redispatched"],
    "quarantine": fleet["quarantined"],
}
for kind, expected in expectations.items():
    got = instants.get(kind, 0)
    if got != expected:
        sys.exit(f"FAIL: stitched trace has {got} {kind} instants, "
                 f"summary.fleet says {expected}")
    print(f"ok   {kind} instants x {got} match summary.fleet")
PYEOF

echo "== fleet chaos: bit-identity against the telemetry-off reference =="
"$python" - "$tmp/ref.json" "$tmp/fleet.json" <<'PYEOF'
import json
import sys


def strip(value):
    """Drop wall-clock timing recursively; it is the one thing allowed
    to differ between a clean run and a crash-recovered fleet run."""
    if isinstance(value, dict):
        return {k: strip(v) for k, v in value.items() if k != "wall_seconds"}
    if isinstance(value, list):
        return [strip(v) for v in value]
    return value


reference = json.load(open(sys.argv[1]))
fleet = json.load(open(sys.argv[2]))
summary = fleet["summary"].get("fleet", {})
for document in (reference, fleet):
    document.pop("options", None)  # --fleet/--journal flags differ by design
    document.get("summary", {}).pop("sweep", None)  # replay provenance
    document.get("summary", {}).pop("fleet", None)  # supervision counters
reference, fleet = strip(reference), strip(fleet)
if reference != fleet:
    for key in set(reference) | set(fleet):
        if reference.get(key) != fleet.get(key):
            print(f"FAIL: '{key}' differs between reference and fleet run")
    sys.exit("FAIL: recovered fleet report is not bit-identical")
deaths = summary.get("worker_deaths", 0)
print(f"ok   bit-identical after {deaths} worker deaths, "
      f"{summary.get('redispatched', 0)} re-dispatches and one "
      "coordinator crash — with logging, tracing and --progress on")
PYEOF

echo "check_fleet_chaos.sh: all checks passed"
