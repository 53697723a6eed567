package bench

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: the helpers must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	cases := []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{nil, 50, 0},
		{[]float64{7}, 99, 7},
		{seq(10), 50, 5},
		{seq(10), 90, 9},
		{seq(10), 91, 10},
		{seq(10), 100, 10},
		{seq(10), 1, 1},
		{seq(100), 90, 90},
		{seq(100), 99, 99},
		{[]float64{15, 20, 35, 40, 50}, 30, 20},
		{[]float64{15, 20, 35, 40, 50}, 40, 20},
		{[]float64{15, 20, 35, 40, 50}, 50, 35},
	}
	for _, c := range cases {
		if got := Percentile(c.xs, c.p); got != c.want {
			t.Errorf("Percentile(%v, %g) = %g, want %g", c.xs, c.p, got, c.want)
		}
	}
	xs := seq(5)
	Percentile(xs, 50)
	if xs[0] != 5 {
		t.Errorf("Percentile reordered its input: %v", xs)
	}
}

func TestReportedPercentileKeepsTenSamplesBeyond(t *testing.T) {
	cases := map[int]float64{
		0: 0, 1: 0, 19: 0, 20: 50, 99: 50, 100: 90, 999: 90, 1000: 99, 9999: 99, 10000: 99.9,
	}
	for n, want := range cases {
		if got := ReportedPercentile(n); got != want {
			t.Errorf("ReportedPercentile(%d) = %g, want %g", n, got, want)
		}
		if p := ReportedPercentile(n); p > 0 && n-nearestRank(n, p) < 10 {
			t.Errorf("n=%d: p%g leaves fewer than ten samples beyond it", n, p)
		}
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{6100, 6900}, 6500},
		{seq(9), 5},
		{seq(10), 5.5},
	} {
		if got := Median(c.xs); got != c.want {
			t.Errorf("Median(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
	// Expected values are Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{seq(10), 2.75, 5.5, 8.25},
		{seq(9), 2.5, 5, 7.5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, 1.25, 3.5, 5.75},
	}
	for _, c := range cases {
		q1, q2, q3 := Quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("Quartiles(%v) = %g %g %g, want %g %g %g", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got, want := RelIQR(seq(10)), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("RelIQR(1..10) = %g, want %g", got, want)
	}
	if got := RelIQR([]float64{4, 4, 4, 4}); got != 0 {
		t.Errorf("RelIQR of equal values = %g, want 0", got)
	}
}
