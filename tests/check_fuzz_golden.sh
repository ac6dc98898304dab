#!/usr/bin/env bash
# Golden-digest check for tools/fuzz_sim: runs it with the given arguments
# and fails when it fails, or when a "digest seed=... stats=..." line it
# prints is missing from the stored list (tests/golden/fuzz_sim_0x5eed.txt
# holds the 75 configurations of master seed 0x5eed; fewer configurations
# are a prefix of them). Lines are compared as a set: with --jobs N the
# configurations finish in any order.
#
# Usage: check_fuzz_golden.sh <path-to-fuzz_sim> <golden-file> [fuzz_sim args...]
set -uo pipefail

if [ "$#" -lt 2 ]; then
    echo "usage: $0 <path-to-fuzz_sim> <golden-file> [fuzz_sim args...]" >&2
    exit 2
fi
fuzz_sim=$1
golden=$2
shift 2
if [ ! -r "$golden" ]; then
    echo "FAIL: cannot read the golden digest list $golden" >&2
    exit 2
fi

output=$("$fuzz_sim" "$@")
status=$?
printf '%s\n' "$output"
if [ "$status" -ne 0 ]; then
    exit "$status"
fi

digests=$(printf '%s\n' "$output" | grep '^digest ')
if [ -z "$digests" ]; then
    echo "FAIL: fuzz_sim printed no digest lines" >&2
    exit 1
fi
missing=$(printf '%s\n' "$digests" | grep -Fxv -f "$golden")
if [ -n "$missing" ]; then
    echo "FAIL: SimStats digests missing from $golden:" >&2
    printf '%s\n' "$missing" | sed 's/^/  /' >&2
    echo "Only an intended model change may alter them; then regenerate" \
         "the list from the repository root with:" >&2
    echo "  build/tools/fuzz_sim --configs 75 --seed 0x5eed --jobs 2" \
         "| grep '^digest ' | sort > tests/golden/fuzz_sim_0x5eed.txt" >&2
    exit 1
fi
echo "ok   $(printf '%s\n' "$digests" | wc -l) digests match $golden"
