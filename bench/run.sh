#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run it from the root of the checkout:
#
#   bash bench/run.sh --workload paper-live --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the binary and every scratch directory the benchmark
# creates live under .bench_build/ in the checkout, so nothing is read or
# written outside it and no network access is attempted.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/bench/go.mod" ]]; then
	echo "bench/run.sh: run from the root of the checkout" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C "$root/bench" build -o "$out/wmbench" .
exec "$out/wmbench" "$@"
