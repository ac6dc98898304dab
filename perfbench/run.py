#!/usr/bin/env python3
"""Build and run the DRS simulator's host-time benchmark.

    python3 perfbench/run.py --workload fig11-lineup --seed 1 --seconds 36 --trace 0

Run from the root of a checkout. The first run configures and builds
perfbench/ (which compiles ../src) into .bench_build/; later runs only
rebuild what changed. --trace 0 measures the end-to-end metrics, --trace 1
makes the traced run (per-layer metrics, spans in .bench_out/, every job
cross-checked against the reference interpreter). --record rewrites the
workload's stored digests from a traced run; it refuses when any job
failed. The last stdout line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

preceded by a "provenance: {...}" line. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("fig11-lineup", "survey-incoherent", "ci-fleet")
INJECTIONS = ("digest", "drop", "quarantine", "hit")
RUN_TIMEOUT_S = 170
# A sweep's peak RSS takes one of a few values, set by which scene
# preparations its job order overlaps; a median jumps between them, a
# mean moves with their shares. Every other metric is a median.
MEAN_METRICS = ("peak_rss_mib",)


def log(*parts):
    print("[run.py]", *parts, file=sys.stderr, flush=True)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--workers", type=int, default=0,
                   help="sweep threads / fleet workers (default: min(2, nproc))")
    p.add_argument("--record", action="store_true",
                   help="rewrite perfbench/digests/<workload>.json (needs --trace 1)")
    p.add_argument("--inject", choices=INJECTIONS,
                   help="corrupt one job to prove the check catches it")
    return p.parse_args(argv)


def build():
    """Configure once, then build the perfbench target incrementally."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no simulator sources at src/ next to perfbench/; nothing to build")
        sys.exit(2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("build step failed:", " ".join(cmd))
            sys.exit(1)
    return os.path.join(BUILD, "perfbench")


def tree_digest(paths):
    """sha256 over the sorted relative paths and bytes of the sources."""
    h = hashlib.sha256()
    for top in paths:
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git(*args):
    if shutil.which("git") is None:
        return None
    done = subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                          text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def compiler():
    cache = os.path.join(BUILD, "CMakeCache.txt")
    path = None
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_CXX_COMPILER:"):
                path = line.split("=", 1)[1].strip()
    if not path:
        return None
    done = subprocess.run([path, "--version"], capture_output=True, text=True)
    version = done.stdout.splitlines()[0] if done.stdout else ""
    return {"path": path, "version": version}


def provenance(args, info):
    # Only a git work tree rooted at this checkout identifies its sources.
    top = git("rev-parse", "--show-toplevel")
    inside = top is not None and os.path.realpath(top) == os.path.realpath(ROOT)
    sha = git("rev-parse", "HEAD") if inside else None
    status = git("status", "--porcelain") if sha else None
    return {
        "git_sha": sha,
        "git_dirty": bool(status) if sha else None,
        "source_sha256": tree_digest(["src", "perfbench"]),
        "compiler": compiler(),
        "build_type": info.get("build_type"),
        "cxx_flags": info.get("cxx_flags"),
        "nproc": os.cpu_count(),
        "workload": info.get("workload"),
        "scale": info.get("scale"),
        "jobs_per_sweep": info.get("jobs_per_sweep"),
        "workers": info.get("workers"),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inject": args.inject,
        "cleared_env": info.get("cleared_env"),
    }


class PhaseFailed(Exception):
    pass


def run_phase(binary, args, phase, deadline, rep=0):
    """One perfbench process = one sample. Echo its output, return its result."""
    cmd = [binary, "--phase", phase, "--workload", args.workload,
           "--seed", str(args.seed), "--rep", str(rep)]
    digests = os.path.join(HERE, "digests", args.workload + ".json")
    cmd += ["--record" if args.record else "--digests", digests]
    if args.workers > 0:
        cmd += ["--workers", str(args.workers)]
    if args.inject:
        cmd += ["--inject", args.inject]
    if phase == "traced":
        os.makedirs(OUT, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            OUT, "spans-%s-%d.json" % (args.workload, args.seed))]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise PhaseFailed("%s phase ran past the run's time limit" % phase)
    result = None
    for line in done.stdout.splitlines():
        if line.startswith("PERFBENCH_RESULT "):
            result = json.loads(line.split(" ", 1)[1])
        else:
            print(line)
    if done.returncode != 0 or result is None:
        raise PhaseFailed("%s phase exited with code %d"
                          % (phase, done.returncode))
    return result


def timed(binary, args, deadline):
    """Set-up and cold-sweep samples in turn until --seconds are spent.

    Pairs alternate so that both sample sets span the whole run and a
    slow spell of the host lands on both alike. Another pair starts
    while at least half of one is left, so a run ends near --seconds.
    """
    setups, sweeps = [], []
    start = time.monotonic()
    while True:
        setups.append(run_phase(binary, args, "setup", deadline, len(setups)))
        sweeps.append(run_phase(binary, args, "sweep", deadline, len(sweeps)))
        spent = time.monotonic() - start
        if spent + 0.5 * spent / len(sweeps) > args.seconds:
            break
    metrics = {}
    for samples in (setups, sweeps):
        for name, first in samples[0]["metrics"].items():
            values = [s["metrics"][name]["value"] for s in samples]
            if name in MEAN_METRICS:
                how, value = "mean", statistics.fmean(values)
            else:
                how, value = "median", statistics.median(values)
            metrics[name] = {"value": value, "unit": first["unit"]}
            print("[run.py] %s: %s %.4g of %d samples: %s" % (
                name, how, value, len(values),
                " ".join("%.4g" % v for v in values)))
    info = sweeps[0]["info"]
    attempted = sum(s["attempted"] for s in sweeps)
    failed = sum(s["failed"] for s in sweeps)
    return info, attempted, failed, metrics


def main(argv):
    args = parse_args(argv)
    if args.record and (args.trace != 1 or args.inject):
        log("--record needs --trace 1 and no --inject")
        return 2
    if args.inject == "hit" and args.trace != 1:
        log("--inject hit needs --trace 1 (the reference check)")
        return 2
    binary = build()
    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        if args.trace == 1:
            result = run_phase(binary, args, "traced", deadline)
            info, attempted, failed, metrics = (
                result["info"], result["attempted"], result["failed"],
                result["metrics"])
        else:
            info, attempted, failed, metrics = timed(binary, args, deadline)
    except PhaseFailed as e:
        log(str(e))
        return 1

    print("provenance: " + json.dumps(provenance(args, info)))
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
