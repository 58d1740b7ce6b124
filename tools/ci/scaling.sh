#!/usr/bin/env bash
# GOMAXPROCS scaling floor. Times BenchmarkSuiteReplay (the warm batched
# suite replay, at parallelism = GOMAXPROCS) five times at 1 proc and five
# at 2, and fails when the median 1-proc ns/op over the median 2-proc
# ns/op falls below MIN (default 1.15): contention in the decode and
# delivery path shows up here. Run it from the root of the checkout on a
# machine with at least 2 CPUs:
#
#   tools/ci/scaling.sh [MIN]
set -euo pipefail

min=${1:-1.15}
out=$(go test -run '^$' -bench '^BenchmarkSuiteReplay$' -cpu 1,2 -count 5 .)
echo "$out"

# median NAME: the median ns/op of the benchmark lines named NAME.
median() {
	awk -v name="$1" '$1 == name && $4 == "ns/op" { print $3 }' <<<"$out" | sort -g |
		awk '{ v[NR] = $1 } END { if (NR == 0) exit 1; print (NR % 2 ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2) }'
}

one=$(median BenchmarkSuiteReplay)
two=$(median BenchmarkSuiteReplay-2)
awk -v one="$one" -v two="$two" -v min="$min" 'BEGIN {
	r = one / two
	printf "suite replay: %.1f ms at 1 proc, %.1f ms at 2 procs (medians of 5): %.2fx, floor %.2fx\n", one / 1e6, two / 1e6, r, min
	exit !(r >= min)
}'
