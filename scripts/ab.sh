#!/bin/sh
# A/B-measures this checkout against another commit, on one bench/
# workload or on the root module's Go benchmarks. Usage, from the repo
# root:
#
#	sh scripts/ab.sh <rev> [workload] [pairs]
#	sh scripts/ab.sh <rev> <benchmark regex> [pairs]
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
#
# A second argument that starts with "Benchmark" is a go test -bench
# regex instead (its part before any "/" names the top-level
# benchmarks). Each package of this checkout that defines a matching
# benchmark gets one test binary per side, built once; each pair then
# runs the binary of each side once (-test.count 1, -test.benchtime
# 300ms, the same on both sides), alternating as above, and the
# summary covers ns/op, B/op and allocs/op, lower better. A benchmark that exists only
# in this checkout is copied into <rev>'s package, with the imports its
# file needs there, when it compiles there, and the script says so; one
# that does not compile there is left out of both sides, and the script
# says that too.
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

# copybench PKG NAME copies benchmark NAME, with its doc comment, from
# this checkout's PKG into <rev>'s, under its file's package clause and
# imports, and prunes the imports the copy leaves unused until the
# package's tests compile there. It fails, leaving nothing behind, when
# they do not.
copybench() {
    src=$(grep -l -r --include='*_test.go' "^func $2(b \*testing\.B)" "$head/$1" | head -n 1)
    dst="$tmp/base/$1/zz_ab_$2_test.go"
    awk -v name="$2" '
        /^package / { print; next }
        /^import \($/ { inimp = 1; print; next }
        inimp { print; if ($0 == ")") inimp = 0; next }
        /^import / { print; next }
        /^\/\// { doc = doc $0 "\n"; next }
        $0 ~ "^func " name "\\(b \\*testing\\.B\\)" { printf "%s", doc; grab = 1 }
        grab { print; if ($0 == "}") grab = 0; next }
        { doc = "" }
    ' "$src" >"$dst"
    tries=0
    until (cd "$tmp/base" && go test -c -o "$tmp/probe.test" "./$1") >/dev/null 2>"$tmp/build.err"; do
        unused=$(sed -n "s/.*zz_ab_$2_test\.go:\([0-9]*\):[0-9]*: \".*\" imported and not used.*/\1/p" "$tmp/build.err" | sort -rn)
        tries=$((tries + 1))
        if [ -z "$unused" ] || [ "$tries" -gt 20 ]; then
            rm -f "$dst"
            echo "ab: $2 exists only in this checkout and does not compile at $rev; left out of both sides" >&2
            return 1
        fi
        for n in $unused; do sed -i "${n}d" "$dst"; done
    done
    echo "ab: $2 exists only in this checkout; copied into $rev's $1" >&2
}

case $workload in
Benchmark*) mode=gobench ;;
*) mode=workload ;;
esac

if [ "$mode" = workload ]; then
    # run.sh builds the driver before it starts it, and -h makes the
    # driver print its usage and exit, so this builds each side once;
    # the runs below hit Go's build cache.
    for side in "$tmp/base" "$head"; do
        (cd "$side" && bash bench/run.sh -h >/dev/null 2>&1) || true
        [ -x "$side/.bench_build/atomicbench" ] || { echo "ab: building the driver in $side failed" >&2; exit 1; }
    done
else
    # The packages of this checkout that define a matching benchmark,
    # and the matching benchmarks each defines.
    top=${workload%%/*}
    grep -E -o '^func Benchmark[A-Za-z0-9_]*\(b \*testing\.B\)' -r --include='*_test.go' . |
        sed 's/^\.\/\(.*\)\/[^/]*_test\.go:func \(Benchmark[A-Za-z0-9_]*\).*/\1 \2/' |
        awk -v re="^($top)\$" '$2 ~ re' | sort -u >"$tmp/benches"
    [ -s "$tmp/benches" ] || { echo "ab: no benchmark of this checkout matches $top" >&2; exit 1; }
    : >"$tmp/skip"
    for pkg in $(cut -d' ' -f1 "$tmp/benches" | sort -u); do
        for name in $(awk -v p="$pkg" '$1 == p { print $2 }' "$tmp/benches"); do
            if grep -q -r --include='*_test.go' "^func $name(b \*testing\.B)" "$tmp/base/$pkg" 2>/dev/null; then
                continue
            fi
            copybench "$pkg" "$name" || echo "$name" >>"$tmp/skip"
        done
        for side in base change; do
            dir=$head
            [ "$side" = base ] && dir=$tmp/base
            (cd "$dir" && go test -c -o "$tmp/$side.$(echo "$pkg" | tr / _).test" "./$pkg") ||
                { echo "ab: building $pkg's tests in $dir failed" >&2; exit 1; }
        done
    done
    # Leave out what did not compile at <rev>: go test -bench has no
    # exclusion, so the regex becomes the list of what remains.
    names=$(cut -d' ' -f2 "$tmp/benches" | grep -v -x -F -f "$tmp/skip" | sort -u | paste -s -d'|' -)
    [ -n "$names" ] || { echo "ab: no matching benchmark compiles at $rev" >&2; exit 1; }
    rest=
    case $workload in */*) rest=/${workload#*/} ;; esac
    regex="^($names)\$$rest"
fi

# measure SIDE LABEL PAIR appends "LABEL PAIR workload name value"
# lines to $tmp/metrics.
measure() {
    if [ "$mode" = gobench ]; then
        for pkg in $(cut -d' ' -f1 "$tmp/benches" | sort -u); do
            bin="$tmp/$2.$(echo "$pkg" | tr / _).test"
            # Tests read their testdata relative to the package.
            (cd "$1/$pkg" && "$bin" -test.run '^$' -test.bench "$regex" -test.benchmem \
                -test.count 1 -test.benchtime 300ms) >"$tmp/run.out" 2>"$tmp/run.err" ||
                { echo "ab: run $3 of $2 failed in $pkg:" >&2; cat "$tmp/run.out" "$tmp/run.err" >&2; exit 1; }
            awk -v side="$2" -v pair="$3" '$1 ~ /^Benchmark/ {
                for (i = 3; i < NF; i++) if ($(i+1) ~ /\/op$/) print side, pair, $1, $(i+1), $i
            }' "$tmp/run.out" >>"$tmp/metrics"
        done
        return
    fi
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
# A Go benchmark's metrics are all lower-better, with no bound.
if [ "$mode" = gobench ]; then
    printf '%s lower\n' ns/op B/op allocs/op >"$tmp/bounds"
else
    sed -n 's/.*"name": *"\([^"]*\)".*"better": *"\([a-z]*\)", *"bound": *\([0-9.]*\).*/\1 \2 \3/p' \
        "$head/BENCHMARK.json" >"$tmp/bounds"
fi

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
# rel is the spread of the sorted a[1..n], (max - min) / median, and
# 0 where the median is (an allocation count, say).
function rel(a, n,    m) {
    m = q(a, n, 0.5)
    return m == 0 ? 0 : (a[n] - a[1]) / m
}
function summary(a, n) {
    return sprintf("%.4g [%.4g %.4g] %.4g..%.4g", q(a, n, 0.5), q(a, n, 0.25), q(a, n, 0.75), a[1], a[n])
}
FNR == NR { better[$1] = $2; if ($3 != "") bound[$1] = $3; next }
{
    k = $3 " " $4
    if (!(k in seen)) { seen[k] = 1; keys[++nk] = k }
    v[k, $1, $2] = $5
}
END {
    printf "%-14s %-11s %-34s %-34s %-6s %-13s %s\n", "what", "metric",
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
        sb = rel(b, nb); sc = rel(c, nc)
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
