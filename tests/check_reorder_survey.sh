#!/bin/bash
# Reorder-survey smoke: run bench_reorder_survey at a tiny scale, then
# require (1) a JSON report that `drs profile` validates, (2) result rows
# for the complete registry lineup on every scene, (3) reorder counters on the software
# reorderers' rows, (4) a summary lineup section naming every plugin.
#
# Usage: check_reorder_survey.sh BENCH_BINARY PYTHON DRS
set -euo pipefail

bench=$1
python=$2
drs=$3

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

DRS_RAYS=2048 DRS_SCALE=0.05 DRS_SMX=2 \
    "$bench" --jobs 2 --json "$tmp/BENCH_reorder_survey.json" \
    > "$tmp/survey.log"

"$drs" profile "$tmp/BENCH_reorder_survey.json" > /dev/null

"$python" - "$tmp/BENCH_reorder_survey.json" <<'PYEOF'
import json
import sys

report = json.load(open(sys.argv[1]))
required = ["aila", "drs", "dmk", "tbc", "sort", "cutcode", "ser",
            "pathpred"]

lineup = report["summary"]["architectures"]
listed = [entry["arch"] for entry in lineup]
missing = [a for a in required if a not in listed]
if missing:
    sys.exit(f"FAIL: summary lineup is missing {missing} (has {listed})")
for entry in lineup:
    if not entry.get("description") or not entry.get("counter_namespace"):
        sys.exit(f"FAIL: lineup entry {entry['arch']} lacks description "
                 "or counter namespace")

rows = report["results"]
scenes = sorted({row["scene"] for row in rows})
if not scenes:
    sys.exit("FAIL: survey produced no result rows")
for scene in scenes:
    archs = {row["arch"] for row in rows if row["scene"] == scene}
    missing = [a for a in required if a not in archs]
    if missing:
        sys.exit(f"FAIL: scene {scene} is missing rows for {missing}")

for row in rows:
    if row["arch"] in ("sort", "cutcode"):
        for key in ("reorder_distinct_keys", "reorder_displacement_sum"):
            if key not in row:
                sys.exit(f"FAIL: {row['scene']}/{row['arch']} row lacks "
                         f"{key}")
        if row["reorder_distinct_keys"] < 1:
            sys.exit(f"FAIL: {row['scene']}/{row['arch']} reordered into "
                     "zero key buckets")
    if "speedup_vs_aila" not in row or row["speedup_vs_aila"] <= 0:
        sys.exit(f"FAIL: {row['scene']}/{row['arch']} has no positive "
                 "speedup_vs_aila")

for arch in required:
    key = f"{arch}_geomean_speedup"
    if key not in report["summary"]:
        sys.exit(f"FAIL: summary lacks {key}")

print(f"ok   survey covers {required} on scenes {scenes}")
PYEOF

echo "check_reorder_survey.sh: all checks passed"
