#!/bin/sh
# Runs a fixed list of the root module's Go benchmarks — the layer
# numbers of ROADMAP.md: an engine event, a coherence access and the
# Stats fold over a preset machine's ledger, a full workload cell, a
# memoized or parked F3 cell, an app cell, a run-log cache open (100
# F3-sized lines) and put, a histogram and an F3-sized cell result
# through the cache's JSON codec each way, and one cached F3 cell
# replayed through the harness fan-out — N times each (go test
# -count N) and writes each one's median and spread to a
# JSON file: ns/op as the median, the quartiles, the minimum and the
# maximum of the N runs, and B/op and allocs/op as medians. It is a
# tool, not a gate: nothing reads the file back. The host's noise is
# the spread; a difference smaller than it is not a result. Run it from
# the repo root on an otherwise idle host:
#
#	sh scripts/benchjson.sh                # N=5, writes BENCH_harness.json
#	sh scripts/benchjson.sh 10 /tmp/b.json # N=10, another file
set -eu
n=${1:-5}
out=${2:-BENCH_harness.json}
raw=$(mktemp)
trap 'rm -f "$raw"' EXIT

# bench PACKAGE NAME... runs the named top-level benchmarks (with every
# sub-benchmark) of one package.
bench() {
	pkg=$1
	shift
	pat=$(printf '%s|' "$@")
	go test -run '^$' -bench "^(${pat%|})\$" -benchmem -count "$n" "$pkg" >>"$raw"
}
bench ./internal/sim BenchmarkEngineScheduleRun BenchmarkEventHeapPushPop
bench ./internal/coherence BenchmarkCoherenceAccess BenchmarkCoherenceReadShared \
	BenchmarkPathCost BenchmarkPathCostMetrics BenchmarkCoherenceAccessMetricsOff \
	BenchmarkCoherenceAccessMetricsOn BenchmarkCoherenceStats
bench ./internal/harness BenchmarkFullCell BenchmarkFullCellMetrics \
	BenchmarkMemoizedCell BenchmarkAppCell BenchmarkReplayCell
bench ./internal/runlog BenchmarkCacheOpen BenchmarkCachePut
bench ./internal/stats BenchmarkHistogramJSON
bench ./internal/workload BenchmarkResultJSON

awk -v runs="$n" -v gover="$(go env GOVERSION)" -v date="$(date -u +%Y-%m-%d)" '
# quantile returns the p-quantile of the sorted values v[1..k],
# interpolating between neighbours.
function quantile(v, k, p,    h, lo) {
	h = 1 + (k - 1) * p
	lo = int(h)
	if (lo >= k) return v[k]
	return v[lo] + (v[lo + 1] - v[lo]) * (h - lo)
}
# sorted copies the values of name kind into s[1..k], ascending.
function sorted(name, kind, s,    k, i, j, x) {
	k = cnt[name]
	for (i = 1; i <= k; i++) s[i] = val[name, kind, i]
	for (i = 2; i <= k; i++) {
		x = s[i]
		for (j = i - 1; j >= 1 && s[j] > x; j--) s[j + 1] = s[j]
		s[j + 1] = x
	}
	return k
}
/^goos:/ { goos = $2 }
/^goarch:/ { goarch = $2 }
/^cpu:/ { sub(/^cpu: */, ""); cpu = $0 }
/^pkg:/ { pkg = $2; sub(/^atomicsmodel\//, "", pkg) }
/^Benchmark/ && / ns\/op/ {
	name = $1
	if (match(name, /-[0-9]+$/)) {
		procs = substr(name, RSTART + 1)
		name = substr(name, 1, RSTART - 1)
	}
	if (!(name in cnt)) { order[++names] = name; pkgOf[name] = pkg }
	k = ++cnt[name]
	for (i = 3; i < NF; i++) {
		if ($(i + 1) == "ns/op") val[name, "ns", k] = $i
		if ($(i + 1) == "B/op") val[name, "B", k] = $i
		if ($(i + 1) == "allocs/op") val[name, "allocs", k] = $i
	}
}
END {
	printf "{\n"
	printf "  \"description\": \"Layer benchmarks of the root module, %d runs each: ns/op median, quartiles and extremes; B/op and allocs/op medians. Written by scripts/benchjson.sh; regenerate, do not edit.\",\n", runs
	printf "  \"command\": \"sh scripts/benchjson.sh %d\",\n", runs
	printf "  \"date\": \"%s\",\n", date
	printf "  \"host\": {\"go\": \"%s\", \"goos\": \"%s\", \"goarch\": \"%s\", \"cpu\": \"%s\", \"gomaxprocs\": \"%s\"},\n", gover, goos, goarch, cpu, procs
	printf "  \"benchmarks\": [\n"
	for (o = 1; o <= names; o++) {
		name = order[o]
		k = sorted(name, "ns", s)
		printf "    {\"name\": \"%s\", \"pkg\": \"%s\", \"runs\": %d,\n", name, pkgOf[name], k
		printf "     \"ns_op\": {\"median\": %.1f, \"q1\": %.1f, \"q3\": %.1f, \"min\": %.1f, \"max\": %.1f},\n", \
			quantile(s, k, 0.5), quantile(s, k, 0.25), quantile(s, k, 0.75), s[1], s[k]
		sorted(name, "B", s)
		b = quantile(s, k, 0.5)
		sorted(name, "allocs", s)
		printf "     \"B_op\": %.0f, \"allocs_op\": %.0f}%s\n", b, quantile(s, k, 0.5), (o < names ? "," : "")
	}
	printf "  ]\n}\n"
}' "$raw" >"$out"
echo "wrote $out ($n runs per benchmark)"
