#!/usr/bin/env bash
# Builds cmd/schedd and bench/nocbench from this checkout and runs the
# benchmark. Run it from the repository root; arguments go to nocbench:
#
#   bash bench/run.sh --workload serve-hit --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh                      # every workload, one after another
#
# Everything the build and the runs write stays under $CARGO_TARGET_DIR
# (default .bench_build): the Go build cache, the binaries and the traces.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS="-buildvcs=false" GOPROXY=off GOTOOLCHAIN=local GOWORK=off
mkdir -p "$GOCACHE" "$GOTMPDIR" "$out/bin"

go build -o "$out/bin/schedd" ./cmd/schedd
(cd bench && go build -o "$out/bin/nocbench" ./nocbench)

commit=unknown
if [ -d .git ]; then
	commit="$(git rev-parse HEAD)"
fi
exec "$out/bin/nocbench" -schedd "$out/bin/schedd" -trace-out "$out/trace" -commit "$commit" "$@"
