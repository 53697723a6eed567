package bench

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// The reference kernel measures the host's speed from inside a run. A
// CPU lent out by a shared cloud host runs at a speed that depends on
// its other tenants: on a 2-vCPU Xeon VM it drifted by up to half
// within a minute, and every time metric drifted with it. So every
// refEvery a run times the kernel at a point where the process runs
// nothing else, and each piece of an interval between two such
// calibrations is scaled by refNominalMS over the kernel's time at the
// piece's midpoint (interpolated between the calibrations around it).
// Times then read as if measured on a host that runs the kernel in
// refNominalMS, about what that VM took in a quiet minute. The kernel
// does what the simulator's hot loop does, an event-heap push and pop
// and a map update per step, with only the standard library and
// without allocating: no change to the repository can change its code,
// and it pays no garbage-collection assist for the heap the code under
// test leaves behind.
const (
	refEvery     = 100 * time.Millisecond
	refNominalMS = 0.5
	refSteps     = 10000
	refReps      = 3
)

// intHeap is a binary min-heap of ints. It sifts in place rather than
// going through container/heap, whose interface boxes every pushed and
// popped value into an allocation.
type intHeap []int

func (h *intHeap) push(x int) {
	s := append(*h, x)
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if s[p] <= s[i] {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
	*h = s
}

func (h *intHeap) popMin() {
	s := *h
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && s[c+1] < s[c] {
			c++
		}
		if s[i] <= s[c] {
			break
		}
		s[i], s[c] = s[c], s[i]
		i = c
	}
	*h = s
}

// The kernel's state is allocated once and reused, so timing it neither
// allocates nor triggers garbage-collection work (TestRefKernelDoesNotAllocate).
var (
	refHeap   = make(intHeap, 0, 128)
	refCounts = make(map[int]int, 4096)
	refRand   = rand.New(rand.NewSource(1))
)

// refKernel times the reference kernel: the best of refReps runs, in
// milliseconds, so a moment's interruption does not count.
func refKernel() float64 {
	best := math.Inf(1)
	for i := 0; i < refReps; i++ {
		t0 := time.Now()
		refRand.Seed(1)
		refHeap = refHeap[:0]
		clear(refCounts)
		for j := 0; j < refSteps; j++ {
			refHeap.push(refRand.Intn(1 << 20))
			refCounts[refRand.Intn(4096)]++
			if len(refHeap) > 64 {
				refHeap.popMin()
			}
		}
		best = min(best, ms(time.Since(t0)))
	}
	return best
}

// calibration is one timing of the reference kernel.
type calibration struct {
	start, end time.Time
	refMS      float64
}

func (c calibration) mid() time.Time { return c.start.Add(c.end.Sub(c.start) / 2) }

// activeSpan is the part of [start, end] outside calibrations, in
// milliseconds, as measured and scaled to the nominal host speed: each
// piece between two calibrations is divided by the host's slowness at
// the piece's midpoint. cals are in time order.
func activeSpan(cals []calibration, start, end time.Time) (raw, nominal float64) {
	piece := func(a, b time.Time) {
		if !b.After(a) {
			return
		}
		d := ms(b.Sub(a))
		raw += d
		nominal += d * refNominalMS / refAt(cals, a.Add(b.Sub(a)/2))
	}
	cur := start
	for _, c := range cals {
		if !c.end.After(cur) {
			continue
		}
		if !c.start.Before(end) {
			break
		}
		piece(cur, minTime(c.start, end))
		cur = maxTime(cur, c.end)
	}
	piece(cur, end)
	return raw, nominal
}

// refAt is the reference kernel's time at instant t, interpolated
// linearly between the calibrations around t, or the nearest one
// outside their span; with no calibration, times are not scaled.
func refAt(cals []calibration, t time.Time) float64 {
	if len(cals) == 0 {
		return refNominalMS
	}
	i := sort.Search(len(cals), func(i int) bool { return cals[i].mid().After(t) })
	switch {
	case i == 0:
		return cals[0].refMS
	case i == len(cals):
		return cals[len(cals)-1].refMS
	}
	a, b := cals[i-1], cals[i]
	frac := float64(t.Sub(a.mid())) / float64(b.mid().Sub(a.mid()))
	return a.refMS + frac*(b.refMS-a.refMS)
}
