#!/usr/bin/env python3
"""Compare two bench-report directories and fail on regressions.

Usage:
    bench_compare.py BASELINE_DIR CURRENT_DIR [--tolerance REL]

Both directories hold BENCH_*.json reports (schema v4, see
src/obs/report.h). Reports are paired by file name, rows by their
(scene, arch, config, bounce) identity, and each well-known metric is
compared with a directional relative tolerance: a metric only fails in
the direction that means "worse" (fewer Mrays/s, more cycles, a higher
stall rate...). Wall-clock fields are ignored — the simulator is
deterministic, the machine is not.

Exit codes: 0 = no regression, 1 = regression or non-comparable input,
2 = usage error. Used by run_benches.sh --compare and the CI smoke test.
"""

import argparse
import json
import os
import sys

# Metric name -> direction in which the CURRENT value is a regression.
# "down" = regression when current < baseline, "up" = when current >.
METRICS = {
    "simd_efficiency": "down",
    "mrays_per_s": "down",
    "speedup_vs_aila": "down",
    "l1d_hit_rate": "down",
    "l1t_hit_rate": "down",
    "l2_hit_rate": "down",
    "cycles": "up",
    "rdctrl_stall_rate": "up",
    "rdctrl_stall_cycles": "up",
    "spawn_conflict_cycles": "up",
}

IDENTITY_KEYS = ("scene", "arch", "config", "bounce")


def load_reports(directory):
    if not os.path.isdir(directory):
        raise SystemExit(f"bench_compare: {directory} is not a directory")
    reports = {}
    for name in sorted(os.listdir(directory)):
        if not (name.startswith("BENCH_") and name.endswith(".json")):
            continue
        path = os.path.join(directory, name)
        try:
            with open(path, encoding="utf-8") as handle:
                reports[name] = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            raise SystemExit(f"bench_compare: cannot read {path}: {error}")
    return reports


def row_key(row):
    return tuple(str(row.get(key, "")) for key in IDENTITY_KEYS)


def describe(key):
    return "/".join(part for part in key if part) or "<unnamed row>"


def compare_report(name, baseline, current, tolerance, problems):
    """Append problem strings for one report pair; returns rows compared."""
    for doc, where in ((baseline, "baseline"), (current, "current")):
        if doc.get("degraded"):
            problems.append(
                f"{name}: {where} report is degraded (quarantined jobs) "
                "and not comparable")
            return 0

    if baseline.get("scale") != current.get("scale"):
        problems.append(
            f"{name}: experiment scales differ — baseline "
            f"{json.dumps(baseline.get('scale'), sort_keys=True)} vs "
            f"current {json.dumps(current.get('scale'), sort_keys=True)}; "
            "regenerate the baseline at the same DRS_RAYS/DRS_SCALE/DRS_SMX")
        return 0

    base_rows = {row_key(row): row for row in baseline.get("results", [])}
    cur_rows = {row_key(row): row for row in current.get("results", [])}

    for key in base_rows:
        if key not in cur_rows:
            problems.append(f"{name}: row {describe(key)} missing from "
                            "current report")

    compared = 0
    for key, cur in cur_rows.items():
        base = base_rows.get(key)
        if base is None:
            continue  # new rows are additions, not regressions
        compared += 1
        for metric, direction in METRICS.items():
            if metric not in base or metric not in cur:
                continue
            base_value = float(base[metric])
            cur_value = float(cur[metric])
            if direction == "down":
                limit = base_value * (1.0 - tolerance)
                failed = cur_value < limit
            else:
                limit = base_value * (1.0 + tolerance)
                failed = cur_value > limit
            if failed:
                worse = "below" if direction == "down" else "above"
                problems.append(
                    f"{name}: {describe(key)}: {metric} = {cur_value:g} is "
                    f"{worse} the tolerated {limit:g} "
                    f"(baseline {base_value:g}, tolerance "
                    f"{tolerance:.1%})")
    return compared


def main(argv):
    parser = argparse.ArgumentParser(
        description="Compare two bench-report directories; non-zero exit "
                    "on regression.")
    parser.add_argument("baseline", help="baseline report directory")
    parser.add_argument("current", help="current report directory")
    parser.add_argument("--tolerance", type=float, default=0.02,
                        help="relative tolerance per metric "
                             "(default 0.02 = 2%%)")
    try:
        args = parser.parse_args(argv)
    except SystemExit:
        # argparse exits 2 on usage errors already; re-raise unchanged.
        raise
    if args.tolerance < 0:
        parser.error("--tolerance must be non-negative")

    baseline = load_reports(args.baseline)
    current = load_reports(args.current)
    if not baseline:
        print(f"bench_compare: no BENCH_*.json reports in {args.baseline}",
              file=sys.stderr)
        return 2

    problems = []
    compared_rows = 0
    compared_files = 0
    for name, base_doc in sorted(baseline.items()):
        cur_doc = current.get(name)
        if cur_doc is None:
            problems.append(f"{name}: present in baseline but missing from "
                            f"{args.current}")
            continue
        compared_files += 1
        compared_rows += compare_report(name, base_doc, cur_doc,
                                        args.tolerance, problems)

    if problems:
        print(f"bench_compare: {len(problems)} problem(s) against "
              f"{args.baseline}:")
        for problem in problems:
            print(f"  REGRESSION: {problem}")
        return 1

    print(f"bench_compare: OK — {compared_rows} rows across "
          f"{compared_files} reports within {args.tolerance:.1%} of "
          f"{args.baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
