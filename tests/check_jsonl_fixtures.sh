#!/usr/bin/env bash
# `drs journal` and `drs events` against the JSONL fixtures in
# tests/fixtures. A torn last line is the debris of a writer killed
# mid-append and passes. A torn line mid-file, a job reported twice, one
# job index under two keys and a job missing under --expect each fail
# with exit 1 and name the problem. `drs events --count` prints an exact
# total.
#
# Usage: check_jsonl_fixtures.sh DRS FIXTURE_DIR
set -euo pipefail

if [ "$#" -ne 2 ]; then
    echo "usage: $0 DRS FIXTURE_DIR" >&2
    exit 2
fi
drs=$1
fixtures=$2
failures=0

# check STATUS TEXT SUBCOMMAND ARGS...: `drs SUBCOMMAND ARGS...` must
# exit with STATUS and print TEXT (stdout or stderr).
check() {
    local want=$1 text=$2 got=0 out
    shift 2
    out=$("$drs" "$@" 2>&1) || got=$?
    if [ "$got" -ne "$want" ]; then
        echo "FAIL: drs $* exited $got, want $want"
        echo "$out" | sed 's/^/     /'
        failures=$((failures + 1))
    elif ! grep -qF -- "$text" <<<"$out"; then
        echo "FAIL: drs $* does not print '$text'"
        echo "$out" | sed 's/^/     /'
        failures=$((failures + 1))
    else
        echo "ok   drs $* -> exit $got"
    fi
}

check 0 "2 records (0 ran, 1 failed), 1 torn tail line" \
    journal "$fixtures/journal_torn_tail.jsonl"
check 0 "OK" journal "$fixtures/journal_torn_tail.jsonl" --expect 2
check 1 "job 2 missing" \
    journal "$fixtures/journal_torn_tail.jsonl" --expect 3
check 1 "line 3 follows a torn line" \
    journal "$fixtures/journal_torn_middle.jsonl"
check 1 "job 0 (conference/aila/B1) double-reported: lines 1 and 3" \
    journal "$fixtures/journal_double_report.jsonl"
check 1 "job 0 reported under two keys" \
    journal "$fixtures/journal_two_keys.jsonl"
check 0 "== event counts (6 records) ==" \
    events "$fixtures/events_torn_tail.jsonl"
check 1 "events_torn_middle.jsonl:3 follows a malformed line" \
    events "$fixtures/events_torn_middle.jsonl"

count=$("$drs" events --count fleet.dispatch \
    "$fixtures/events_torn_tail.jsonl")
if [ "$count" = 3 ]; then
    echo "ok   drs events --count fleet.dispatch -> 3"
else
    echo "FAIL: drs events --count fleet.dispatch printed '$count', want 3"
    failures=$((failures + 1))
fi

if [ "$failures" -ne 0 ]; then
    echo "check_jsonl_fixtures.sh: $failures check(s) failed"
    exit 1
fi
echo "check_jsonl_fixtures.sh: all checks passed"
