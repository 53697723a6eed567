package stats

import (
	"encoding/json"
	"math"
	"sort"
	"testing"
	"testing/quick"

	"atomicsmodel/internal/sim"
)

// TestHistogramQuantileAgainstExactReference checks the histogram's
// quantiles against exact order statistics on random data: the log
// buckets promise ~9% relative error. The reference is the nearest-rank
// order statistic, data[ceil(q·n)-1], the convention Quantile follows
// (pinned by TestHistogramQuantileNearestRankConvention); a floor index
// drifts one rank high whenever q·n is integral.
func TestHistogramQuantileAgainstExactReference(t *testing.T) {
	within := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%2000) + 100
		rng := sim.NewRNG(seed)
		h := NewHistogram()
		data := make([]float64, n)
		for i := 0; i < n; i++ {
			v := sim.Time(rng.Uint64()%uint64(10*sim.Microsecond)) + 1
			h.Record(v)
			data[i] = float64(v)
		}
		sort.Float64s(data)
		for _, q := range []float64{0.25, 0.5, 0.75, 0.9} {
			exact := data[int(math.Ceil(q*float64(n)))-1]
			got := float64(h.Quantile(q))
			if math.Abs(got-exact)/exact > 0.15 {
				t.Logf("seed=%#x nRaw=%#x (n=%d) q=%v: got %v, exact %v", seed, nRaw, n, q, got, exact)
				return false
			}
		}
		return true
	}
	// A floor-index reference put this input (n=192, q=0.25) 15.3% off;
	// the nearest-rank statistic is 8.9% off.
	if !within(0xce33aed381c94807, 0x758c) {
		t.Error("regression input out of bounds")
	}
	if err := quick.Check(within, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestHistogramQuantileNearestRankConvention pins the rank rounding
// against a sorted-slice nearest-rank reference: Quantile(q) must land
// in the same log bucket as the ceil(q*n)-th order statistic. The old
// floor-based rank was off by one whenever q*n was integral — p50 of
// n=2 returned the 2nd observation's bucket instead of the 1st.
func TestHistogramQuantileNearestRankConvention(t *testing.T) {
	// Deterministic regression for the exact reported case: two
	// observations in different buckets; p50 must be the first.
	h := NewHistogram()
	lo, hi := 100*sim.Nanosecond, 900*sim.Nanosecond
	h.Record(lo)
	h.Record(hi)
	if got := h.Quantile(0.5); bucketOf(got) != bucketOf(lo) {
		t.Fatalf("p50 of {lo, hi} = %v (bucket %d), want lo's bucket %d",
			got, bucketOf(got), bucketOf(lo))
	}
	if got := h.Quantile(0.51); bucketOf(got) != bucketOf(hi) {
		t.Fatalf("p51 of {lo, hi} = %v, want hi's bucket", got)
	}

	cfg := &quick.Config{MaxCount: 50}
	if err := quick.Check(func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%500) + 2
		rng := sim.NewRNG(seed)
		h := NewHistogram()
		data := make([]sim.Time, n)
		for i := range data {
			v := sim.Time(rng.Uint64()%uint64(10*sim.Microsecond)) + 1
			h.Record(v)
			data[i] = v
		}
		sort.Slice(data, func(i, j int) bool { return data[i] < data[j] })
		for _, q := range []float64{0.01, 0.25, 0.5, 0.75, 0.9, 0.99} {
			rank := int(math.Ceil(q * float64(n)))
			if rank < 1 {
				rank = 1
			}
			if got, want := bucketOf(h.Quantile(q)), bucketOf(data[rank-1]); got != want {
				t.Logf("seed=%d n=%d q=%v: bucket %d, reference bucket %d", seed, n, q, got, want)
				return false
			}
		}
		return true
	}, cfg); err != nil {
		t.Error(err)
	}
}

// TestHistogramJSONRoundTripExact: the sparse JSON encoding used by the
// harness's resume cache must reproduce the histogram exactly — a
// resumed run renders quantile columns from decoded histograms and the
// tables must stay byte-identical.
func TestHistogramJSONRoundTripExact(t *testing.T) {
	cfg := &quick.Config{MaxCount: 30}
	if err := quick.Check(func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		h := NewHistogram()
		for i := 0; i < int(rng.Uint64()%2000); i++ {
			h.Record(sim.Time(rng.Uint64() % uint64(sim.Millisecond)))
		}
		b, err := json.Marshal(h)
		if err != nil {
			return false
		}
		h2 := NewHistogram()
		if err := json.Unmarshal(b, h2); err != nil {
			return false
		}
		if h.Count() != h2.Count() || h.Mean() != h2.Mean() ||
			h.Min() != h2.Min() || h.Max() != h2.Max() {
			return false
		}
		for q := 0.0; q <= 1.0; q += 0.05 {
			if h.Quantile(q) != h2.Quantile(q) {
				return false
			}
		}
		// Re-marshal must be byte-identical modulo map ordering; compare
		// through a third decode instead of raw bytes.
		b2, err := json.Marshal(h2)
		if err != nil {
			return false
		}
		h3 := NewHistogram()
		if err := json.Unmarshal(b2, h3); err != nil {
			return false
		}
		return h3.Count() == h.Count() && h3.Quantile(0.5) == h.Quantile(0.5)
	}, cfg); err != nil {
		t.Error(err)
	}

	// The empty histogram (min sentinel) round-trips too.
	b, err := json.Marshal(NewHistogram())
	if err != nil {
		t.Fatal(err)
	}
	h := NewHistogram()
	if err := json.Unmarshal(b, h); err != nil {
		t.Fatal(err)
	}
	if h.Count() != 0 || h.Min() != 0 || h.Quantile(0.5) != 0 {
		t.Fatalf("empty histogram corrupted by round trip: %v", h)
	}
	// Corrupt payloads are rejected, not silently zeroed.
	bad := NewHistogram()
	if err := json.Unmarshal([]byte(`{"n":5,"buckets":{"2":1}}`), bad); err == nil {
		t.Fatal("inconsistent bucket sum accepted")
	}
	if err := json.Unmarshal([]byte(`{"n":1,"buckets":{"99999":1}}`), bad); err == nil {
		t.Fatal("out-of-range bucket accepted")
	}
}

// TestFairnessMetricConsistency ties the three fairness metrics
// together on random inputs: perfectly balanced input maxes all three;
// and Jain >= 1/n always.
func TestFairnessMetricConsistency(t *testing.T) {
	if err := quick.Check(func(xs []uint64) bool {
		if len(xs) == 0 {
			return true
		}
		j := JainIndex(xs)
		if j < 1/float64(len(xs))-1e-9 || j > 1+1e-9 {
			return false
		}
		// CoV and Jain agree on perfect balance.
		balanced := true
		for _, x := range xs {
			if x != xs[0] {
				balanced = false
			}
		}
		if balanced && xs[0] > 0 {
			return j > 1-1e-9 && CoV(xs) < 1e-9 && MinMaxRatio(xs) == 1
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}
