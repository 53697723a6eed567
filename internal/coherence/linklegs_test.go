package coherence

import (
	"math/rand"
	"slices"
	"testing"

	"atomicsmodel/internal/metrics"
	"atomicsmodel/internal/sim"
	"atomicsmodel/internal/topology"
)

// linkTraffic schedules a fixed random mix of RFOs and reads by 16
// cores on three shared lines and one private one over the first
// 20µs, so line queues form, directories forward and transfers cross
// every kind of link.
func linkTraffic(eng *sim.Engine, s *System) {
	rng := rand.New(rand.NewSource(7))
	inc := func(cur uint64) (uint64, bool) { return cur + 1, true }
	for i := 0; i < 3000; i++ {
		core, at := rng.Intn(16), sim.Time(rng.Int63n(int64(20*sim.Microsecond)))
		id, kind := LineID(1+rng.Intn(3)), RFO
		switch r := rng.Intn(10); {
		case r < 4:
			kind = Read
		case r == 9:
			id = LineID(1_000_000 + core)
		}
		h := s.Handle(id)
		eng.At(at, func() {
			if kind == RFO {
				s.Access(core, h, RFO, 0, inc, nil)
			} else {
				s.Access(core, h, Read, 0, nil, nil)
			}
		})
	}
}

// linkSystem is a 16-core system on topo, cores spread round-robin
// over its nodes, with metrics installed on reg.
func linkSystem(t *testing.T, topo topology.Topology, reg *metrics.Registry) (*sim.Engine, *System) {
	t.Helper()
	eng := sim.NewEngine()
	s, err := NewSystem(eng, Params{
		NumCores:      16,
		Topo:          topo,
		NodeOf:        func(c int) int { return c % topo.Nodes() },
		L1Hit:         1 * sim.Nanosecond,
		DirLookup:     4 * sim.Nanosecond,
		HopLatency:    3 * sim.Nanosecond,
		LLCHit:        12 * sim.Nanosecond,
		DRAM:          60 * sim.Nanosecond,
		ForwardSharer: true,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.InstallMetrics(reg)
	return eng, s
}

// TestLinkBusyByLeg holds the per-leg link attribution (legRuns,
// folded by settleLinks when the registry is read) to a test-local
// walk that charges every link of every message its busy time as the
// message is sent: HopLatency times the link's transit multiple, along
// the topology's own Path. Two systems run the same traffic on ring,
// mesh and star topologies. The reference's legs are walked after
// every event and its registry never settles; the other's settle only
// when the registry is read. The link vectors must agree exactly in
// four cases: a plain snapshot, a snapshot after a mid-run Reset (the
// warmup boundary), the memoizer's CopyInto at one instant and
// AddScaledDiff at a later one, and a pooled system's second run after
// Reset and Recycle.
func TestLinkBusyByLeg(t *testing.T) {
	topos := []topology.Topology{
		topology.NewRing(8),
		topology.NewDualRing(8, 2),
		topology.NewMesh2D(4, 3),
		topology.NewStar(5, 2, true),
	}
	const mid = 9 * sim.Microsecond
	for _, topo := range topos {
		for _, tc := range []string{"snapshot", "reset", "copy-add-diff", "pooled"} {
			t.Run(topo.Name()+"/"+tc, func(t *testing.T) {
				reg := metrics.New()
				eng, s := linkSystem(t, topo, reg)
				refEng, ref := linkSystem(t, topo, metrics.New())
				// The reference walks each event's legs itself.
				var want []uint64
				walk := func() {
					for _, leg := range ref.legsRun {
						a, b := int(leg)/topo.Nodes(), int(leg)%topo.Nodes()
						for _, l := range topo.Path(a, b) {
							want[l] += ref.legRuns[leg] * uint64(ref.p.HopLatency) * uint64(topo.LinkTransit(l))
						}
					}
					ref.clearLegRuns()
				}
				start := func() {
					want = make([]uint64, topo.Links())
					linkTraffic(eng, s)
					linkTraffic(refEng, ref)
					refEng.SetEventHook(func(uint64) { walk() })
				}
				start()
				switch tc {
				case "reset":
					eng.Run(mid)
					refEng.Run(mid)
					reg.Reset()
					walk()
					clear(want)
				case "copy-add-diff":
					eng.Run(mid)
					refEng.Run(mid)
					base := metrics.New()
					reg.CopyInto(base)
					walk()
					wantBase := slices.Clone(want)
					eng.Drain()
					refEng.Drain()
					reg.AddScaledDiff(base, 3)
					walk()
					for i := range want {
						want[i] += (want[i] - wantBase[i]) * 3
					}
				case "pooled":
					eng.Drain()
					eng.Reset()
					s.Reset()
					reg.Recycle()
					s.InstallMetrics(reg)
					refEng.Drain()
					refEng.Reset()
					ref.Reset()
					ref.InstallMetrics(metrics.New())
					start()
				}
				eng.Drain()
				refEng.Drain()
				walk()
				got := reg.Snapshot().Vector(metrics.CohLinkBusy)
				if !slices.Equal(got, want) {
					t.Fatalf("link busy by leg %v\nper-link walk     %v", got, want)
				}
				if slices.Max(want) == 0 {
					t.Fatal("the traffic charged no link")
				}
			})
		}
	}
}

// TestLinkRoutesShared: systems built on one pair table share its
// route table instead of each walking the topology's paths
// (topology's TestRoutesBuiltOnce checks the table itself).
func TestLinkRoutesShared(t *testing.T) {
	topo := topology.NewMesh2D(4, 3)
	pairs := topology.NewPairTable(topo)
	var routes *topology.Routes
	for i := 0; i < 2; i++ {
		eng := sim.NewEngine()
		s, err := NewSystem(eng, Params{NumCores: 4, Topo: topo, Pairs: pairs, NodeOf: func(c int) int { return c },
			L1Hit: 1, DirLookup: 1, HopLatency: 1, LLCHit: 1, DRAM: 1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		s.InstallMetrics(metrics.New())
		if i > 0 && s.occLegs.routes != routes {
			t.Fatal("a second system on the same pair table built its own routes")
		}
		routes = s.occLegs.routes
	}
}

// TestQueueSlideAmortized drives one line's queue window the way an
// open loop past saturation does, two arrivals for every grant, and
// counts the pointers push's slides move (the live window, moved to
// the front of the array). They must stay within the number of
// pushes; sliding whenever the array is full, as push once did, moved
// about fifteen times as many, a near-full window at almost every fill.
func TestQueueSlideAmortized(t *testing.T) {
	l := &lineState{}
	var moves, pushes int
	for i := 0; i < 20000; i++ {
		head, n := l.qhead, len(l.queue)
		l.push(&request{})
		pushes++
		if head > 0 && head < n && l.qhead == 0 {
			moves += n - head
		}
		if i%2 == 1 {
			l.queue[l.qhead] = nil
			l.qhead++
		}
	}
	if moves > pushes {
		t.Fatalf("%d pushes moved %d pointers", pushes, moves)
	}
	if l.qlen() != 10000 {
		t.Fatalf("window holds %d requests, want 10000", l.qlen())
	}
}
