#!/usr/bin/env python3
"""Self-test of the benchmark's correctness check.

    python3 perfbench/selftest.py

Run from the root of a checkout (it drives perfbench/run.py, one sweep
per run). It asserts two things:

  * clean runs pass: every workload, with 1 and min(4, nproc) workers,
    with two seeds, reports correct outputs and 0 failed jobs;
  * corruption is caught: a corrupted stored digest, a dropped job, a
    quarantined job (in-process and in the fleet) and one flipped
    per-ray hit (traced run, reference cross-check) are each reported as
    incorrect with a non-zero failed count.

Exits 0 when every case behaves, 1 otherwise.
"""

import json
import os
import subprocess
import sys
import time

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
WORKLOADS = ("fig11-lineup", "survey-incoherent", "ci-fleet")


def run(workload, seed, trace=0, workers=None, inject=None):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", str(trace)]
    if workers:
        cmd += ["--workers", str(workers)]
    if inject:
        cmd += ["--inject", inject]
    start = time.monotonic()
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
    return result, time.monotonic() - start, done.stderr


def main():
    nproc = max(1, min(4, os.cpu_count() or 1))
    cases = []
    for workload in WORKLOADS:
        for workers in sorted({1, nproc}):
            for seed in (1, 2):
                cases.append((workload, seed, 0, workers, None, True))
    for workload, trace, inject in (
            ("survey-incoherent", 0, "digest"),
            ("survey-incoherent", 0, "drop"),
            ("survey-incoherent", 0, "quarantine"),
            ("ci-fleet", 0, "drop"),
            ("ci-fleet", 0, "quarantine"),
            ("ci-fleet", 1, "hit")):
        cases.append((workload, 3, trace, None, inject, False))

    bad = 0
    for workload, seed, trace, workers, inject, expect_ok in cases:
        result, seconds, stderr = run(workload, seed, trace, workers, inject)
        if result is None:
            ok = False
            verdict = "no result"
        elif expect_ok:
            ok = result["correct"] and result["failed"] == 0
            verdict = "correct=%s failed=%d" % (result["correct"],
                                                result["failed"])
        else:
            ok = not result["correct"] and result["failed"] > 0
            verdict = "correct=%s failed=%d" % (result["correct"],
                                                result["failed"])
        bad += 0 if ok else 1
        print("%-4s %-17s seed %d trace %d workers %-4s inject %-10s %s "
              "(%.0f s)" % ("ok" if ok else "FAIL", workload, seed, trace,
                            workers or "-", inject or "-", verdict, seconds),
              flush=True)
        if not ok:
            sys.stderr.write(stderr[-2000:])
    print("%d of %d cases behaved" % (len(cases) - bad, len(cases)))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
