#!/bin/bash
# Final bench sweep. DRS_SMX=4 keeps the drain tail <6% at this ray count
# (results are per-SMX-invariant; see EXPERIMENTS.md).
# DRS_JOBS controls how many simulations each bench runs concurrently
# (default: all hardware threads); results are identical for any value.
#
# Usage: run_benches.sh [--json [DIR]] [--compare BASELINE_DIR]
#   --json        additionally write machine-readable BENCH_<name>.json
#                 reports (default DIR: bench_reports), validated with
#                 build/tools/drs_profile after the sweep.
#   --compare     after the sweep, diff the fresh reports against an
#                 earlier report directory with tools/bench_compare.py
#                 and exit non-zero on any metric regression. Implies
#                 --json. The committed BENCH_baseline/ snapshot works as
#                 a reference when run at its recorded scale (see
#                 BENCH_baseline/README.md).
#
# Fails fast: the first bench that exits non-zero (or a failing schema
# validation, or a regression against --compare) aborts the whole sweep
# with that exit code.
set -euo pipefail
cd "$(dirname "$0")"

export DRS_RAYS=${DRS_RAYS:-150000} DRS_SMX=${DRS_SMX:-4}
export DRS_JOBS=${DRS_JOBS:-$(nproc 2>/dev/null || echo 1)}

json_dir=""
compare_dir=""
while [ $# -gt 0 ]; do
  case "$1" in
    --json)
      json_dir="bench_reports"
      if [ $# -gt 1 ] && [ "${2#--}" = "$2" ]; then
        json_dir=$2; shift
      fi
      ;;
    --compare)
      if [ $# -lt 2 ]; then
        echo "error: --compare needs a baseline report directory" >&2
        exit 2
      fi
      compare_dir=$2; shift
      ;;
    *)
      echo "error: unknown argument $1" >&2
      exit 2
      ;;
  esac
  shift
done

# Comparing needs fresh reports to compare.
if [ -n "$compare_dir" ] && [ -z "$json_dir" ]; then
  json_dir="bench_reports"
fi
[ -z "$json_dir" ] || mkdir -p "$json_dir"

# Enumerate the sweep from the bench sources, not from whatever happens
# to sit in the build directory: a bench that failed to build (or was
# never configured) must abort the sweep, not be skipped silently.
benches=()
for src in bench/bench_*.cc; do
  benches+=("$(basename "$src" .cc)")
done
if [ "${#benches[@]}" -eq 0 ]; then
  echo "error: no bench sources found under bench/" >&2
  exit 1
fi
missing=0
for name in "${benches[@]}"; do
  if [ ! -x "build/bench/$name" ]; then
    echo "error: bench binary build/bench/$name is missing or not" \
         "executable (build it: cmake --build build --target $name)" >&2
    missing=1
  fi
done
if [ -n "$json_dir" ] && [ ! -x build/tools/drs_profile ]; then
  echo "error: report validator build/tools/drs_profile is missing (build" \
       "it: cmake --build build --target drs_profile)" >&2
  missing=1
fi
[ "$missing" -eq 0 ] || exit 1

for name in "${benches[@]}"; do
  b="build/bench/$name"
  echo; echo "######## $name ########"; echo
  if [ -n "$json_dir" ]; then
    "$b" --jobs "$DRS_JOBS" --json "$json_dir/BENCH_${name#bench_}.json"
  else
    "$b" --jobs "$DRS_JOBS"
  fi
done

if [ -n "$json_dir" ]; then
  echo; echo "JSON reports written to $json_dir/"
  # drs_profile exits 1 on a report that fails the schema.
  build/tools/drs_profile "$json_dir"/BENCH_*.json >/dev/null
fi

if [ -n "$compare_dir" ]; then
  echo; echo "######## bench_compare vs $compare_dir ########"; echo
  python3 tools/bench_compare.py "$compare_dir" "$json_dir"
fi
