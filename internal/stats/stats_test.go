package stats

import (
	"math"
	"testing"
	"testing/quick"

	"atomicsmodel/internal/sim"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram not zeroed")
	}
	for i := 1; i <= 100; i++ {
		h.Record(sim.Time(i) * sim.Nanosecond)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Min() != sim.Nanosecond || h.Max() != 100*sim.Nanosecond {
		t.Fatalf("min=%v max=%v", h.Min(), h.Max())
	}
	// Exact mean of 1..100 ns = 50.5ns.
	if got := h.Mean(); got != sim.Time(50500) {
		t.Fatalf("mean = %v ps, want 50500", int64(got))
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 10000; i++ {
		h.Record(sim.Time(i) * sim.Nanosecond)
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		got := h.Quantile(q).Nanoseconds()
		want := q * 10000
		if math.Abs(got-want)/want > 0.15 {
			t.Errorf("q%.2f = %.0fns, want ~%.0fns", q, got, want)
		}
	}
	if h.Quantile(0) != h.Min() || h.Quantile(1) != h.Max() {
		t.Error("quantile extremes")
	}
}

func TestHistogramQuantileMonotonic(t *testing.T) {
	h := NewHistogram()
	r := sim.NewRNG(2)
	for i := 0; i < 5000; i++ {
		h.Record(r.Duration(10 * sim.Microsecond))
	}
	prev := sim.Time(-1)
	for q := 0.0; q <= 1.0; q += 0.05 {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("quantiles not monotonic at q=%.2f: %v < %v", q, v, prev)
		}
		prev = v
	}
}

func TestHistogramRecordZeroAndHuge(t *testing.T) {
	h := NewHistogram()
	h.Record(0)
	h.Record(sim.Second * 100) // beyond the bucket range: clamps
	if h.Count() != 2 {
		t.Fatal("count")
	}
	if h.Max() != sim.Second*100 {
		t.Fatal("max not exact for clamped value")
	}
}

func TestHistogramStringMentionsCount(t *testing.T) {
	h := NewHistogram()
	h.Record(5 * sim.Nanosecond)
	s := h.String()
	if len(s) == 0 || s[0] != 'n' {
		t.Errorf("String() = %q", s)
	}
}

func TestBucketOfMonotonicProperty(t *testing.T) {
	if err := quick.Check(func(a, b uint32) bool {
		x, y := sim.Time(a), sim.Time(b)
		if x > y {
			x, y = y, x
		}
		return bucketOf(x) <= bucketOf(y)
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestJainIndex(t *testing.T) {
	if got := JainIndex([]uint64{10, 10, 10, 10}); got != 1 {
		t.Errorf("equal work Jain = %v, want 1", got)
	}
	// One thread does everything among 4: index = 1/4.
	if got := JainIndex([]uint64{100, 0, 0, 0}); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("starved Jain = %v, want 0.25", got)
	}
	if got := JainIndex(nil); got != 1 {
		t.Errorf("empty Jain = %v", got)
	}
	if got := JainIndex([]uint64{0, 0}); got != 1 {
		t.Errorf("all-zero Jain = %v", got)
	}
	// Jain is always in [1/n, 1].
	if err := quick.Check(func(xs []uint64) bool {
		if len(xs) == 0 {
			return JainIndex(xs) == 1
		}
		j := JainIndex(xs)
		return j >= 1/float64(len(xs))-1e-9 && j <= 1+1e-9
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestCoV(t *testing.T) {
	if got := CoV([]uint64{5, 5, 5}); got != 0 {
		t.Errorf("balanced CoV = %v", got)
	}
	if got := CoV(nil); got != 0 {
		t.Errorf("empty CoV = %v", got)
	}
	if got := CoV([]uint64{0, 0}); got != 0 {
		t.Errorf("zero CoV = %v", got)
	}
	// {0, 10}: mean 5, stddev 5, CoV 1.
	if got := CoV([]uint64{0, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("CoV = %v, want 1", got)
	}
}

func TestMinMaxRatio(t *testing.T) {
	if got := MinMaxRatio([]uint64{10, 20, 40}); got != 0.25 {
		t.Errorf("ratio = %v, want 0.25", got)
	}
	if got := MinMaxRatio([]uint64{7, 7}); got != 1 {
		t.Errorf("equal ratio = %v", got)
	}
	if got := MinMaxRatio([]uint64{0, 5}); got != 0 {
		t.Errorf("starved ratio = %v", got)
	}
	if got := MinMaxRatio(nil); got != 1 {
		t.Errorf("empty ratio = %v", got)
	}
	if got := MinMaxRatio([]uint64{0, 0}); got != 1 {
		t.Errorf("all-zero ratio = %v", got)
	}
}

func TestThroughput(t *testing.T) {
	if got := Throughput(1000, sim.Millisecond); got != 1e6 {
		t.Errorf("throughput = %v, want 1e6", got)
	}
	if got := Throughput(5, 0); got != 0 {
		t.Errorf("zero-duration throughput = %v", got)
	}
}

func TestMeanMedian(t *testing.T) {
	if Mean(nil) != 0 || Median(nil) != 0 {
		t.Error("empty aggregates")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("mean = %v", got)
	}
	if got := Median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	// Median must not modify its input.
	in := []float64{3, 1, 2}
	Median(in)
	if in[0] != 3 {
		t.Error("median reordered input")
	}
}

func TestMeanAbsPctError(t *testing.T) {
	if got := MeanAbsPctError([]float64{110, 90}, []float64{100, 100}); got != 10 {
		t.Errorf("MAPE = %v, want 10", got)
	}
	// Zero measurements skipped.
	if got := MeanAbsPctError([]float64{1, 110}, []float64{0, 100}); got != 10 {
		t.Errorf("MAPE with zero = %v, want 10", got)
	}
	if got := MeanAbsPctError(nil, nil); got != 0 {
		t.Errorf("empty MAPE = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("length mismatch did not panic")
		}
	}()
	MeanAbsPctError([]float64{1}, []float64{1, 2})
}
