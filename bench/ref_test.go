package bench

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// TestRefKernelDoesNotAllocate: the kernel must not add garbage to the
// process it calibrates, or its time would depend on the heap the code
// under test leaves behind.
func TestRefKernelDoesNotAllocate(t *testing.T) {
	refKernel() // the first run may size the map's buckets
	if n := testing.AllocsPerRun(3, func() { refKernel() }); n != 0 {
		t.Errorf("refKernel allocates %g times per run, want 0", n)
	}
}

func TestIntHeapPopsInOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h intHeap
	var want []int
	for i := 0; i < 500; i++ {
		x := rng.Intn(100)
		h.push(x)
		want = append(want, x)
	}
	sort.Ints(want)
	for i, w := range want {
		if h[0] != w {
			t.Fatalf("pop %d: min %d, want %d", i, h[0], w)
		}
		h.popMin()
	}
	if len(h) != 0 {
		t.Errorf("%d values left after popping all", len(h))
	}
}

func TestActiveSpanScalesByInterpolatedReference(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	// Calibrations centred on 0 ms and 1000 ms: the kernel took the
	// nominal time, then twice that.
	cals := []calibration{
		{start: at(-1), end: at(1), refMS: refNominalMS},
		{start: at(999), end: at(1001), refMS: 2 * refNominalMS},
	}
	cases := []struct {
		from, to     int
		raw, nominal float64
	}{
		{-100, -50, 50, 50},              // before the first calibration: its speed
		{100, 200, 100, 100 / 1.15},      // midpoint 150 ms: 1.15x slow
		{400, 600, 200, 200 / 1.5},       // midpoint 500 ms: 1.5x slow
		{2000, 2100, 100, 100 / 2.0},     // after the last: its speed
		{998, 1002, 2, 1/1.9985 + 1/2.0}, // the calibration itself is left out
	}
	for _, c := range cases {
		raw, nominal := activeSpan(cals, at(c.from), at(c.to))
		if math.Abs(raw-c.raw) > 1e-9 || math.Abs(nominal-c.nominal) > 1e-9 {
			t.Errorf("activeSpan(%d..%d ms) = %g, %g; want %g, %g", c.from, c.to, raw, nominal, c.raw, c.nominal)
		}
	}
}
