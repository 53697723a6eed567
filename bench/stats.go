package bench

import (
	"math"
	"sort"
)

// Percentile returns the nearest-rank p-th percentile of xs (0 < p <=
// 100): the smallest sample with at least p percent of the samples at
// or below it. It returns 0 for an empty slice and does not modify xs.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[nearestRank(len(s), p)-1]
}

// nearestRank is the 1-based rank of the p-th percentile of n samples.
func nearestRank(n int, p float64) int {
	r := int(math.Ceil(p * float64(n) / 100))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailCandidates are the percentiles a tail is reported at, highest
// first.
var tailCandidates = []float64{99.9, 99, 90, 50}

// ReportedPercentile returns the highest percentile worth reporting
// for n samples: the highest candidate (p99.9, p99, p90, p50) whose
// nearest rank leaves at least ten samples beyond it. It returns 0
// when even the median has fewer than ten samples beyond it.
func ReportedPercentile(n int) float64 {
	for _, p := range tailCandidates {
		if n-nearestRank(n, p) >= 10 {
			return p
		}
	}
	return 0
}

// Median is the middle sample of xs, or the mean of the two middle
// samples when their number is even (Python's statistics.median), not
// the nearest-rank 50th percentile: a sweep window of two passes then
// reports their mean rather than the faster one, which spreads less
// from run to run. It returns 0 for an empty slice.
func Median(xs []float64) float64 {
	_, q2, _ := Quartiles(xs)
	return q2
}

// Quartiles returns the first quartile, the median and the third
// quartile of xs, interpolated the way Python's
// statistics.quantiles(xs, n=4) does by default (the "exclusive"
// method), so spreads printed here match ones computed from the same
// values elsewhere. It needs at least two samples; with fewer it
// returns the lone sample (or zeros) three times.
func Quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		// Exclusive method: 1-based position i*(n+1)/4, its integer part
		// clamped to 1..n-1, interpolated (or extrapolated) from there.
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// RelIQR is the interquartile range of xs as a share of its median
// (both from Quartiles): the spread a bound in BENCHMARK.json is
// compared against. It returns 0 when the median is 0.
func RelIQR(xs []float64) float64 {
	q1, q2, q3 := Quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}
