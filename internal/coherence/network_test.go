package coherence

import (
	"testing"

	"atomicsmodel/internal/sim"
	"atomicsmodel/internal/topology"
)

// bwSystem builds an 8-core ring with finite link bandwidth.
func bwSystem(t *testing.T, occupancy sim.Time) (*sim.Engine, *System) {
	t.Helper()
	eng := sim.NewEngine()
	p := Params{
		NumCores:       8,
		Topo:           topology.NewRing(8),
		NodeOf:         func(c int) int { return c },
		L1Hit:          1 * sim.Nanosecond,
		DirLookup:      2 * sim.Nanosecond,
		HopLatency:     1 * sim.Nanosecond,
		LLCHit:         10 * sim.Nanosecond,
		DRAM:           60 * sim.Nanosecond,
		InvalidateCost: 3 * sim.Nanosecond,
		LinkOccupancy:  occupancy,
	}
	s, err := NewSystem(eng, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	return eng, s
}

func TestBandwidthUncontendedMatchesClosedForm(t *testing.T) {
	// With no competing traffic, finite bandwidth must not change any
	// latency: one message's transit is still hops * HopLatency.
	engA, sA := testSystem(t, nil)          // infinite bandwidth
	engB, sB := bwSystem(t, sim.Nanosecond) // finite, but idle links
	seq := func(eng *sim.Engine, s *System) []sim.Time {
		var lats []sim.Time
		step := func(core int, kind Kind) {
			s.Access(core, s.Handle(16), kind, 0, storeApply(1), func(r AccessResult) {
				lats = append(lats, r.Latency)
			})
			eng.Drain()
		}
		step(0, RFO)
		step(4, RFO)
		step(2, Read)
		step(6, RFO)
		return lats
	}
	a, b := seq(engA, sA), seq(engB, sB)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d: infinite-bw %v != idle-finite-bw %v", i, a[i], b[i])
		}
	}
}

func TestBandwidthSerializesSharedLink(t *testing.T) {
	// Two simultaneous transfers crossing the same link: the second
	// waits for the link. Ring 0-1-2-3...: messages 0->2 and 1->2 at
	// the same instant share link 1->2.
	eng, s := bwSystem(t, 4*sim.Nanosecond)
	// Stage two dirty lines on cores 0 and 1 whose home is node 2
	// (line IDs ≡ 2 mod 8), sequentially so staging itself is
	// stall-free.
	s.Access(0, s.Handle(2), RFO, 0, storeApply(1), nil)
	eng.Drain()
	// Let the wires drain before the next phase (a message's tail can
	// still occupy a link right after its transaction completes).
	eng.Schedule(100*sim.Nanosecond, func() {
		s.Access(1, s.Handle(10), RFO, 0, storeApply(1), nil)
	})
	eng.Drain()
	base := s.Stats().LinkStall
	if base != 0 {
		t.Fatalf("unexpected stall during staging: %v", base)
	}
	// Now core 2 pulls both lines at the same instant.
	var l1, l2 sim.Time
	eng.Schedule(100*sim.Nanosecond, func() {
		s.Access(2, s.Handle(2), RFO, 0, storeApply(2), func(r AccessResult) { l1 = r.Latency })
		s.Access(2, s.Handle(10), RFO, 0, storeApply(2), func(r AccessResult) { l2 = r.Latency })
	})
	eng.Drain()
	if s.Stats().LinkStall <= base {
		t.Fatal("no link stall recorded for overlapping transfers")
	}
	if l1 == l2 {
		t.Fatalf("overlapping transfers did not serialize: %v vs %v", l1, l2)
	}
}

func TestBandwidthCrossLineInterference(t *testing.T) {
	// The effect infinite-bandwidth simulation misses: a storm on line
	// A slows an independent thread using line B, because their
	// messages share ring links.
	measure := func(occupancy sim.Time) sim.Time {
		eng, s := bwSystem(t, occupancy)
		// Storm: cores 0..5 hammer line A (home 6, id 6).
		for c := 0; c < 6; c++ {
			c := c
			var issue func(n int)
			issue = func(n int) {
				if n == 0 {
					return
				}
				s.Access(c, s.Handle(6), RFO, sim.Nanosecond, storeApply(1), func(AccessResult) { issue(n - 1) })
			}
			issue(200)
		}
		// Victim: cores 7 and 3 ping-pong line B (id 14, home 6 as
		// well — its messages share ring links with the storm).
		var total sim.Time
		ops := 0
		var alt func(n, core int)
		alt = func(n, core int) {
			if n == 0 {
				return
			}
			s.Access(core, s.Handle(14), RFO, sim.Nanosecond, storeApply(1), func(r AccessResult) {
				total += r.Latency
				ops++
				next := 7
				if core == 7 {
					next = 3
				}
				alt(n-1, next)
			})
		}
		alt(100, 7)
		eng.Drain()
		return total / sim.Time(ops)
	}
	free := measure(0)                    // infinite bandwidth
	loaded := measure(6 * sim.Nanosecond) // heavily loaded links
	if loaded <= free {
		t.Fatalf("storm did not slow the victim: free=%v loaded=%v", free, loaded)
	}
}

func TestBandwidthFuzzStillLinearizable(t *testing.T) {
	// Re-run the protocol fuzz shape with bandwidth on: invariants and
	// value chains must survive link queueing.
	eng, s := bwSystem(t, 2*sim.Nanosecond)
	rng := sim.NewRNG(3)
	type rec struct {
		observed, next uint64
	}
	var chain []rec
	for i := 0; i < 2000; i++ {
		core := rng.Intn(8)
		at := rng.Duration(100 * sim.Microsecond)
		eng.At(at, func() {
			var r rec
			s.Access(core, s.Handle(5), RFO, sim.Nanosecond, func(cur uint64) (uint64, bool) {
				r = rec{observed: cur, next: cur + 1}
				return cur + 1, true
			}, func(AccessResult) { chain = append(chain, r) })
		})
	}
	eng.Drain()
	if len(chain) != 2000 {
		t.Fatalf("completed %d/2000", len(chain))
	}
	cur := uint64(0)
	for i, r := range chain {
		if r.observed != cur {
			t.Fatalf("op %d observed %d, want %d", i, r.observed, cur)
		}
		cur = r.next
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
