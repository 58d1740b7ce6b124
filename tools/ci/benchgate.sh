#!/usr/bin/env bash
# Parent-vs-change speed gate on the benchmark in bench/. Runs
# `bench/run.sh` on paper-live, geo-sweep, serve-mix and synth-capture at
# seeds 1-3 in this checkout and in a worktree of BASE, alternating which
# side runs first from pair to pair, with the run length and the
# points_per_s bound read from BENCHMARK.json. It fails when any run misses `correct: true` or
# `failed: 0`, or when this checkout's median points_per_s on a workload
# falls below BASE's median × (1 − bound). Every run is printed. Run it
# from the root of the checkout:
#
#   tools/ci/benchgate.sh BASE
#
# BASE is any commit-ish: the pull request's base in CI, HEAD for an A/A
# run. The gate compares two trees on one machine, so no anchor number is
# committed and the machine's speed cancels out.
set -euo pipefail

base=${1:?usage: benchgate.sh BASE}
root=$(pwd)
if [[ ! -f "$root/BENCHMARK.json" ]]; then
	echo "benchgate.sh: run from the root of the checkout" >&2
	exit 2
fi
seconds=$(jq -r .run_seconds BENCHMARK.json)
bound=$(jq -r '.end_to_end[] | select(.name == "points_per_s") | .bound' BENCHMARK.json)

tree=$(mktemp -d "${TMPDIR:-/tmp}/benchgate.XXXXXX")
results=$(mktemp "${TMPDIR:-/tmp}/benchgate-results.XXXXXX")
trap 'git worktree remove --force "$tree" >/dev/null 2>&1 || true; rm -rf "$tree" "$results"' EXIT
git worktree add --detach --quiet "$tree" "$base"

# run SIDE DIR WORKLOAD SEED: one benchmark run, printed and its
# points_per_s appended to $results.
run() {
	local side=$1 dir=$2 w=$3 s=$4 line
	if ! line=$(cd "$dir" && bash bench/run.sh --workload "$w" --seed "$s" --seconds "$seconds" --trace 0 | tail -n 1); then
		echo "benchgate.sh: $side $w seed $s exited non-zero" >&2
		exit 1
	fi
	echo "$side $w seed $s: $line"
	if ! jq -e '.correct == true and .failed == 0' <<<"$line" >/dev/null; then
		echo "benchgate.sh: $side $w seed $s failed its checks" >&2
		exit 1
	fi
	echo "$w $side $(jq -r .metrics.points_per_s.value <<<"$line")" >>"$results"
}

pair=0
for w in paper-live geo-sweep serve-mix synth-capture; do
	for s in 1 2 3; do
		if ((pair % 2 == 0)); then
			run base "$tree" "$w" "$s"
			run change "$root" "$w" "$s"
		else
			run change "$root" "$w" "$s"
			run base "$tree" "$w" "$s"
		fi
		pair=$((pair + 1))
	done
done

# median WORKLOAD SIDE: the median points_per_s of that side's runs.
median() {
	awk -v w="$1" -v side="$2" '$1 == w && $2 == side { print $3 }' "$results" | sort -g |
		awk '{ v[NR] = $1 } END { print (NR % 2 ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2) }'
}

status=0
for w in paper-live geo-sweep serve-mix synth-capture; do
	b=$(median "$w" base)
	c=$(median "$w" change)
	if awk -v b="$b" -v c="$c" -v bound="$bound" 'BEGIN { exit !(c >= b * (1 - bound)) }'; then
		verdict=ok
	else
		verdict=SLOWER
		status=1
	fi
	awk -v w="$w" -v b="$b" -v c="$c" -v bound="$bound" -v v="$verdict" 'BEGIN {
		printf "%-13s points_per_s median: base %.2f, change %.2f (%.2fx, floor %.2fx) %s\n", w, b, c, c / b, 1 - bound, v
	}'
done
exit "$status"
