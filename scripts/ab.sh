#!/bin/sh
# A/B-measures this checkout against another commit on one bench/
# workload. Usage, from the repo root:
#
#	sh scripts/ab.sh <rev> [workload] [pairs]
#
# workload defaults to f3-xeon (any name bench/run.sh takes, or all)
# and pairs to 10. Each run takes bench/run.sh's own seed and measured
# window, the same on both sides.
#
# <rev> is exported with git archive into a temporary directory (local
# git only; nothing is registered in .git, so an interrupted run leaves
# only the directory behind), and each side's driver is built once.
# Each pair then runs
#
#	bash bench/run.sh --workload W --trace 0
#
# once per side, alternating which side goes first, so host drift
# falls on both sides alike. For every metric it prints each side's
# median, quartiles and range, the number of pairs in which this
# checkout did better (by the metric's direction in BENCHMARK.json),
# and a verdict: "claimable" only when every run of this checkout beats
# every run of <rev>, "regressed" for the reverse, "within noise"
# otherwise. With n runs a side and no real difference, one side's
# range clears the other's by chance with probability 2/C(2n, n): 1 in
# 3 at n = 2, 1 in 126 at n = 5, 1 in 92,378 at n = 10. It also prints
# the metric's within-commit spread, (max - min) / median of the wider
# side, against its BENCHMARK.json bound. It is a measuring tool, not a gate: it exits nonzero only when
# a run fails or reports "correct": false.
set -eu

rev=${1:?usage: sh scripts/ab.sh <rev> [workload] [pairs]}
workload=${2:-f3-xeon}
pairs=${3:-10}

head=$(pwd)
commit=$(git rev-parse --verify "$rev^{commit}")
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM
mkdir "$tmp/base"
git archive "$commit" | tar -x -C "$tmp/base"

# run.sh builds the driver before it starts it, and -h makes the driver
# print its usage and exit, so this builds each side once; the runs
# below hit Go's build cache.
for side in "$tmp/base" "$head"; do
    (cd "$side" && bash bench/run.sh -h >/dev/null 2>&1) || true
    [ -x "$side/.bench_build/atomicbench" ] || { echo "ab: building the driver in $side failed" >&2; exit 1; }
done

# measure SIDE LABEL PAIR appends "LABEL PAIR workload name value"
# lines to $tmp/metrics.
measure() {
    out="$tmp/run.out"
    if ! (cd "$1" && bash bench/run.sh --workload "$workload" --trace 0) >"$out" 2>"$tmp/run.err"; then
        echo "ab: run $3 of $2 failed:" >&2
        cat "$tmp/run.err" >&2
        exit 1
    fi
    tail -n 1 "$out" | grep -q '"correct":true' || { echo "ab: run $3 of $2 is not correct" >&2; exit 1; }
    awk -v side="$2" -v pair="$3" '$1 == "metric" { print side, pair, $2, $3, $4 }' "$out" >>"$tmp/metrics"
}

echo "ab: $workload, $pairs pairs of runs: base $rev ($commit), change $head" >&2
: >"$tmp/metrics"
i=1
while [ "$i" -le "$pairs" ]; do
    if [ $((i % 2)) -eq 1 ]; then
        measure "$tmp/base" base "$i"
        measure "$head" change "$i"
    else
        measure "$head" change "$i"
        measure "$tmp/base" base "$i"
    fi
    echo "ab: pair $i of $pairs done" >&2
    i=$((i + 1))
done

# BENCHMARK.json lists one end-to-end metric per line:
# {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
sed -n 's/.*"name": *"\([^"]*\)".*"better": *"\([a-z]*\)", *"bound": *\([0-9.]*\).*/\1 \2 \3/p' \
    "$head/BENCHMARK.json" >"$tmp/bounds"

awk '
function sort(a, n,    i, j, t) {
    for (i = 2; i <= n; i++)
        for (j = i; j > 1 && a[j-1] > a[j]; j--) { t = a[j]; a[j] = a[j-1]; a[j-1] = t }
}
# q returns the p-quantile of the sorted a[1..n], linearly interpolated.
function q(a, n, p,    h, lo) {
    h = (n - 1) * p + 1
    lo = int(h)
    return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo+1] - a[lo])
}
function summary(a, n) {
    return sprintf("%.4g [%.4g %.4g] %.4g..%.4g", q(a, n, 0.5), q(a, n, 0.25), q(a, n, 0.75), a[1], a[n])
}
FNR == NR { better[$1] = $2; bound[$1] = $3; next }
{
    k = $3 " " $4
    if (!(k in seen)) { seen[k] = 1; keys[++nk] = k }
    v[k, $1, $2] = $5
}
END {
    printf "%-14s %-11s %-34s %-34s %-6s %-13s %s\n", "workload", "metric",
        "base median [q1 q3] min..max", "change median [q1 q3] min..max", "better", "verdict", "spread/bound"
    for (i = 1; i <= nk; i++) {
        k = keys[i]; split(k, kw, " "); name = kw[2]
        lower = better[name] != "higher"
        nb = nc = wins = 0
        for (p = 1; ((k, "base", p) in v) || ((k, "change", p) in v); p++) {
            if ((k, "base", p) in v) b[++nb] = v[k, "base", p]
            if ((k, "change", p) in v) c[++nc] = v[k, "change", p]
            if (((k, "base", p) in v) && ((k, "change", p) in v)) {
                d = v[k, "change", p] - v[k, "base", p]
                if ((lower && d < 0) || (!lower && d > 0)) wins++
            }
        }
        sort(b, nb); sort(c, nc)
        if (lower) { claim = c[nc] < b[1]; regress = c[1] > b[nb] }
        else { claim = c[1] > b[nb]; regress = c[nc] < b[1] }
        verdict = claim ? "claimable" : regress ? "regressed" : "within noise"
        sb = (b[nb] - b[1]) / q(b, nb, 0.5); sc = (c[nc] - c[1]) / q(c, nc, 0.5)
        spread = sb > sc ? sb : sc
        flag = ""
        if (name in bound) {
            spreadtxt = sprintf("%.0f%%/%.0f%%", spread * 100, bound[name] * 100)
            if (spread > bound[name]) flag = " (wider than its bound)"
        } else spreadtxt = sprintf("%.0f%%/-", spread * 100)
        printf "%-14s %-11s %-34s %-34s %d/%-4d %-13s %s%s\n", kw[1], name,
            summary(b, nb), summary(c, nc), wins, (nb < nc ? nb : nc), verdict, spreadtxt, flag
    }
}' "$tmp/bounds" "$tmp/metrics"
