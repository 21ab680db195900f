#!/usr/bin/env bash
# Builds invarnetd and the benchmark binary from the checkout this is run
# in, then runs the benchmark with the given arguments. Run from the
# repository root:
#
#   bash invarbench/run.sh --workload diagnose-cold --seed 1 --seconds 10 --trace 0
#   bash invarbench/run.sh summary [ledger.jsonl ...]
#
# Everything the build and the runs write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go build -o "$out/invarnetd" ./cmd/invarnetd
(cd "$bench" && go build -o "$out/invarbench" .)
if [ "${1:-}" = summary ]; then
	exec "$out/invarbench" "$@"
fi
exec "$out/invarbench" -daemon "$out/invarnetd" -workdir "$out" "$@"
