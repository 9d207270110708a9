#!/usr/bin/env bash
# Runs one fuzz target for 20 s and fails unless the run reached an
# exec floor, so a lane whose fuzzer stalls (say, stuck minimizing one
# input) fails instead of passing having fuzzed nothing:
#
#   bash .github/scripts/fuzz.sh FLOOR PACKAGE TARGET [go test flags...]
#
# FLOOR is the least exec count the run's last "execs:" progress line
# may report. A failing fuzz run fails the script as it is.
set -euo pipefail
floor=$1 pkg=$2 target=$3
shift 3
log="$(mktemp)"
trap 'rm -f "$log"' EXIT
go test -run=NONE -fuzz="^${target}\$" -fuzztime=20s "$@" "$pkg" 2>&1 | tee "$log"
execs="$(grep -o 'execs: [0-9]*' "$log" | tail -n 1 | grep -o '[0-9]*' || true)"
if [ -z "$execs" ] || [ "$execs" -lt "$floor" ]; then
	echo "$target: ${execs:-no} execs reported, below the floor of $floor" >&2
	exit 1
fi
echo "$target: $execs execs, floor $floor"
