#!/usr/bin/env bash
# bench_pairs.sh: paired benchmark runs of a base revision against the
# working tree, the evidence a performance claim needs (perfbench/README.md,
# "Steadiness").
#
#   scripts/bench_pairs.sh REV N WORKLOAD
#   make bench-pairs REV=HEAD N=5 WORKLOAD=stream
#
# REV is exported with `git archive` into a scratch tree, so the base
# side is the committed files of REV and the change side is the working
# tree as it stands, uncommitted edits included. Each side runs
#
#   bash perfbench/run.sh --workload WORKLOAD --seed i --seconds S --trace 0
#
# N times (S is $BENCH_SECONDS, default 20). Pair i gives both sides
# seed i; odd pairs run the base first and even pairs the change first,
# so a host that drifts during the session hits both sides alike. Each
# run's stdout and stderr are kept under $BENCH_PAIRS_OUT (default
# .bench_pairs/<timestamp>). The summary prints, for every end-to-end
# metric BENCHMARK.json declares, the median and IQR per side, the
# ratio of medians, and how many pairs the change won; then each run's
# failed count. A run that exits non-zero stops the script.
set -euo pipefail

if [ $# -ne 3 ]; then
	echo "usage: $0 REV N WORKLOAD" >&2
	exit 2
fi
rev=$1 n=$2 workload=$3
case $n in '' | *[!0-9]*) echo "bench-pairs: N must be a positive integer" >&2; exit 2 ;; esac
[ "$n" -ge 1 ] || { echo "bench-pairs: N must be at least 1" >&2; exit 2; }

cd "$(dirname "$0")/.."
root=$(pwd)
seconds=${BENCH_SECONDS:-20}
out=${BENCH_PAIRS_OUT:-$root/.bench_pairs/$(date +%Y%m%d-%H%M%S)}
mkdir -p "$out"
out=$(cd "$out" && pwd)

base="$out/base"
rm -rf "$base"
mkdir -p "$base"
git archive "$rev" | tar -x -C "$base"
echo "bench-pairs: base $(git rev-parse --short "$rev") in $base, change = working tree; $n pairs of $workload, ${seconds}s each"

# run SIDE DIR PAIR: one benchmark run of the tree in DIR with seed PAIR.
run() {
	local side=$1 dir=$2 pair=$3
	local stem="$out/$side-$pair"
	echo "bench-pairs: pair $pair: $side"
	if ! (cd "$dir" && bash perfbench/run.sh --workload "$workload" --seed "$pair" \
		--seconds "$seconds" --trace 0 >"$stem.out" 2>"$stem.err"); then
		echo "bench-pairs: $side run of pair $pair failed; see $stem.err and $stem.out" >&2
		exit 1
	fi
}

for pair in $(seq 1 "$n"); do
	if [ $((pair % 2)) -eq 1 ]; then
		run base "$base" "$pair"
		run change "$root" "$pair"
	else
		run change "$root" "$pair"
		run base "$base" "$pair"
	fi
done

# result FILE: the metric lines of a run's final JSON result, one
# "name value" per line, plus "failed N".
result() {
	tail -n 1 "$1" | sed 's/:{"value":/ /g' | tr '{,' '\n\n' | sed -n \
		-e 's/^"\([a-z0-9_.]*\)" \([-0-9.eE+]*\).*/\1 \2/p' \
		-e 's/^"failed":\([0-9]*\).*/failed \1/p'
}

# Metric name and direction ("higher"/"lower") of each declared
# end-to-end metric.
decl=$(tr -d ' \n\t' <BENCHMARK.json | sed 's/.*"end_to_end":\[\([^]]*\)\].*/\1/' |
	tr '}' '\n' | sed -n 's/.*"name":"\([^"]*\)".*"better":"\([a-z]*\)".*/\1 \2/p')

for pair in $(seq 1 "$n"); do
	result "$out/base-$pair.out" | sed "s/^/base $pair /"
	result "$out/change-$pair.out" | sed "s/^/change $pair /"
done | awk -v decl="$decl" -v n="$n" '
function sortv(a, k,   i, j, t) {
	for (i = 2; i <= k; i++) {
		t = a[i]
		for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]
		a[j + 1] = t
	}
}
function med(a, lo, hi,   k, m) {
	k = hi - lo + 1
	m = lo + int((k - 1) / 2)
	return k % 2 ? a[m] : (a[m] + a[m + 1]) / 2
}
# stats NAME SIDE: median and IQR (Tukey hinges) of the side values.
function stats(name, side,   a, i, k, h) {
	k = 0
	for (i = 1; i <= n; i++) if ((side, i, name) in v) a[++k] = v[side, i, name]
	if (k == 0) { m_ = "n/a"; iqr_ = "n/a"; return 0 }
	sortv(a, k)
	m_ = med(a, 1, k)
	h = int(k / 2)
	iqr_ = k < 2 ? 0 : med(a, k - h + 1, k) - med(a, 1, h)
	return 1
}
{ v[$1, $2, $3] = $4 }
END {
	printf "%-22s %14s %12s %14s %12s %9s %6s\n", "metric", "base median", "base IQR", "change median", "change IQR", "ratio", "wins"
	nd = split(decl, lines, "\n")
	for (d = 1; d <= nd; d++) {
		split(lines[d], f, " ")
		name = f[1]; better = f[2]
		if (!stats(name, "base")) continue
		bm = m_; biqr = iqr_
		stats(name, "change")
		cm = m_; ciqr = iqr_
		wins = 0
		for (i = 1; i <= n; i++) {
			b = v["base", i, name]; c = v["change", i, name]
			if ((better == "higher" && c > b) || (better == "lower" && c < b)) wins++
		}
		ratio = bm == 0 ? "n/a" : sprintf("%.3f", cm / bm)
		printf "%-22s %14.6g %12.4g %14.6g %12.4g %9s %3d/%d\n", name, bm, biqr, cm, ciqr, ratio, wins, n
	}
	printf "failed per run (base):  "
	for (i = 1; i <= n; i++) printf " %s", v["base", i, "failed"]
	printf "\nfailed per run (change):"
	for (i = 1; i <= n; i++) printf " %s", v["change", i, "failed"]
	printf "\n"
}'
echo "bench-pairs: runs kept in $out"
