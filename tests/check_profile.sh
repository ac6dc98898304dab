#!/usr/bin/env bash
# `drs profile` regression check, pinned against tests/fixtures:
#
#  1. The profile fixture (a fig9-style report whose rdctrl-stall share
#     drops as read-control buffers are added) must render, and the
#     stalled_rdctrl percentages must appear in strictly decreasing
#     order — i.e. the tool reproduces the paper's Fig. 9 ordering from
#     a schema-valid report alone.
#  2. A schema_version 2 report must be rejected (non-zero exit), so
#     stale baselines fail loudly instead of mis-parsing.
#
# Usage: check_profile.sh <path-to-drs> <profile-fixture> <v2-fixture>
set -euo pipefail

if [ "$#" -ne 3 ]; then
    echo "usage: $0 <path-to-drs> <profile-fixture> <v2-fixture>" >&2
    exit 2
fi

drs=$1
profile_fixture=$2
v2_fixture=$3

out=$("$drs" profile "$profile_fixture")
echo "$out"

# The breakdown table is column-oriented: find the stalled_rdctrl column
# in the header and read it off each data row, in report order (1, 2, 4
# read-control buffers). The percentages must strictly decrease.
# (config values may contain spaces, so count percentage fields, not raw
# columns: stalled_rdctrl is the third bucket of the taxonomy).
stalls=$(echo "$out" | awk '
    /issue-slot breakdown/ { want = 1; next }
    want && /stalled_rdctrl/ { ready = 1; next }
    ready && NF == 0 { exit }
    ready {
        n = 0
        for (i = 1; i <= NF; ++i)
            if ($i ~ /%$/ && ++n == 3) print $i
    }
' | tr -d '%')
count=$(echo "$stalls" | grep -c '[0-9]' || true)
if [ "$count" -lt 3 ]; then
    echo "FAIL: expected >= 3 stalled_rdctrl rows, got $count" >&2
    exit 1
fi
if [ "$(echo "$stalls" | sort -rg)" != "$stalls" ]; then
    echo "FAIL: stalled_rdctrl share must decrease with buffer count:" >&2
    echo "$stalls" >&2
    exit 1
fi
echo "ok   stalled_rdctrl share decreases across configs:" $stalls

if "$drs" profile "$v2_fixture" >/dev/null 2>&1; then
    echo "FAIL: schema_version 2 report was accepted" >&2
    exit 1
fi
echo "ok   schema_version 2 report rejected"
