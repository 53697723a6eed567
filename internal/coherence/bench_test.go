package coherence

import (
	"testing"

	"atomicsmodel/internal/metrics"
	"atomicsmodel/internal/sim"
	"atomicsmodel/internal/topology"
)

// benchSystem is a 16-core dual-ring system shaped like the Xeon preset:
// the configuration the contended experiments spend their time in. It
// accepts testing.TB so the allocation-regression tests share it.
func benchSystem(b testing.TB) (*sim.Engine, *System) {
	b.Helper()
	eng := sim.NewEngine()
	p := Params{
		NumCores:           16,
		Topo:               topology.NewDualRing(8, 2),
		NodeOf:             func(c int) int { return c },
		L1Hit:              1 * sim.Nanosecond,
		DirLookup:          4 * sim.Nanosecond,
		HopLatency:         1 * sim.Nanosecond,
		CrossSocketPenalty: 30 * sim.Nanosecond,
		LLCHit:             12 * sim.Nanosecond,
		DRAM:               60 * sim.Nanosecond,
		InvalidateCost:     3 * sim.Nanosecond,
	}
	s, err := NewSystem(eng, p, nil)
	if err != nil {
		b.Fatal(err)
	}
	return eng, s
}

// BenchmarkCoherenceAccess measures one contended RFO handoff: the line
// is dirty in another core's cache, so every access walks the full
// request->home->owner->requester transfer path, the directory
// transition, and the completion callback. This is the inner loop of
// every high-contention experiment.
func BenchmarkCoherenceAccess(b *testing.B) {
	eng, s := benchSystem(b)
	apply := func(cur uint64) (uint64, bool) { return cur + 1, true }
	// Warm the line into M state so the steady state is remote handoffs.
	h := s.Handle(1)
	s.Access(0, h, RFO, 0, apply, nil)
	eng.Drain()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Access((i+1)%16, h, RFO, 0, apply, nil)
		eng.Drain()
	}
}

// BenchmarkCoherenceReadShared measures the pipelined shared-read fast
// path (an LLC-resident line read by a non-sharer), the loop TTAS-style
// spinners and read-mostly mixes sit in.
func BenchmarkCoherenceReadShared(b *testing.B) {
	eng, s := benchSystem(b)
	h := s.Handle(1)
	s.Access(0, h, RFO, 0, func(cur uint64) (uint64, bool) { return 7, true }, nil)
	eng.Drain()
	s.EvictPrivate(1) // resident at home LLC, no private copies
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core := i % 16
		s.Access(core, h, Read, 0, nil, nil)
		eng.Drain()
		s.EvictPrivate(1)
	}
}

// BenchmarkCoherenceLocalHit measures one L1 read hit: a core loads a
// line it already shares, the access takes the local fast path, and
// its completion event runs (the engine is drained after each access,
// as in BenchmarkCoherenceAccess). It is the unit of every live load of
// a read-mostly mix and of every owner's private-line read; a run of
// them that parks costs a tick each instead (Await).
func BenchmarkCoherenceLocalHit(b *testing.B) {
	eng, s := benchSystem(b)
	h := s.Handle(1)
	s.Access(0, h, Read, 0, nil, nil)
	eng.Drain()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Access(0, h, Read, 0, nil, nil)
		eng.Drain()
	}
}

// BenchmarkCoherenceOwnedWrite measures one write to a line the core
// already owns: an RFO by the line's owner (M state), which needs no
// transfer, and its completion event (the engine is drained after each
// access, as in BenchmarkCoherenceLocalHit). It is the unit of an
// owner's private-line RMWs and stores, the bulk of a work-stealing
// deque's accesses.
func BenchmarkCoherenceOwnedWrite(b *testing.B) {
	eng, s := benchSystem(b)
	apply := func(cur uint64) (uint64, bool) { return cur + 1, true }
	h := s.Handle(1)
	s.Access(0, h, RFO, 0, apply, nil)
	eng.Drain()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Access(0, h, RFO, 0, apply, nil)
		eng.Drain()
	}
}

// BenchmarkPathCost measures the per-message cost computation alone:
// a three-leg requester->home->requester path on the dual ring.
func BenchmarkPathCost(b *testing.B) {
	_, s := benchSystem(b)
	b.ReportAllocs()
	b.ResetTimer()
	var total sim.Time
	var hops int
	for i := 0; i < b.N; i++ {
		c, h := s.pathCost(4*sim.Nanosecond, [4]int{i % 16, 3, i % 16}, 3)
		total += c
		hops += h
	}
	_ = total
	_ = hops
}

// BenchmarkPathCostMetrics is BenchmarkPathCost with a metrics registry
// installed and no bandwidth network: every leg also charges each link
// it crosses its transit time, the per-message work of a metrics-on
// cell (fleet sweeps).
func BenchmarkPathCostMetrics(b *testing.B) {
	_, s := benchSystem(b)
	s.InstallMetrics(metrics.New())
	b.ReportAllocs()
	b.ResetTimer()
	var total sim.Time
	var hops int
	for i := 0; i < b.N; i++ {
		c, h := s.pathCost(4*sim.Nanosecond, [4]int{i % 16, 3, i % 16}, 3)
		total += c
		hops += h
	}
	_ = total
	_ = hops
}
