package energy

import (
	"math"
	"strings"
	"testing"

	"atomicsmodel/internal/atomics"
	"atomicsmodel/internal/coherence"
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/sim"
)

func TestObserveChargesBySource(t *testing.T) {
	m := machine.XeonE5()
	mt := NewMeter(m)
	mk := func(src coherence.Source, hops int, cross bool) coherence.TraceEvent {
		return coherence.TraceEvent{Result: coherence.AccessResult{Source: src, Hops: hops, CrossSocket: cross}}
	}
	mt.Observe(mk(coherence.SrcLocal, 0, false))
	local := mt.DynamicNJ()
	if local != m.Energy.LocalOpNJ {
		t.Fatalf("local charge = %v", local)
	}
	mt.Reset()
	mt.Observe(mk(coherence.SrcRemoteCache, 10, false))
	intra := mt.DynamicNJ()
	mt.Reset()
	mt.Observe(mk(coherence.SrcRemoteCache, 10, true))
	cross := mt.DynamicNJ()
	if !(local < intra && intra < cross) {
		t.Fatalf("energy ordering local(%v) < intra(%v) < cross(%v) violated", local, intra, cross)
	}
	mt.Reset()
	mt.Observe(mk(coherence.SrcDRAM, 4, false))
	if mt.DynamicNJ() <= 0 {
		t.Fatal("DRAM charge missing")
	}
	if mt.Events() != 1 {
		t.Fatalf("events = %d", mt.Events())
	}
}

func TestReportComposition(t *testing.T) {
	m := machine.Ideal(4) // 1 W static/core, 1 W active/thread
	mt := NewMeter(m)
	rep := mt.Report(sim.Second, 2, 2, 1000)
	if rep.StaticJ != 2 || rep.ActiveJ != 2 {
		t.Fatalf("static=%v active=%v, want 2,2", rep.StaticJ, rep.ActiveJ)
	}
	if rep.TotalJ != 4 {
		t.Fatalf("total=%v", rep.TotalJ)
	}
	// 4 J / 1000 ops = 4e6 nJ/op.
	if rep.PerOpNJ != 4e6 {
		t.Fatalf("per-op = %v", rep.PerOpNJ)
	}
	if rep.AvgPowerW != 4 {
		t.Fatalf("power = %v", rep.AvgPowerW)
	}
	// Zero ops and zero duration degrade gracefully.
	empty := mt.Report(0, 0, 0, 0)
	if empty.PerOpNJ != 0 || empty.AvgPowerW != 0 {
		t.Fatalf("degenerate report: %+v", empty)
	}
}

func TestMeterIntegratesWithSimulation(t *testing.T) {
	eng := sim.NewEngine()
	m := machine.XeonE5()
	mem, err := atomics.NewMemory(eng, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	mt := NewMeter(m)
	mem.System().SetTracer(mt.Observe)

	// Ping-pong a line between sockets: every op after the first is a
	// cross-socket transfer and must cost more than local ops.
	done := 0
	var issue func(core int, n int)
	issue = func(core, n int) {
		if n == 0 {
			return
		}
		mem.FetchAndAdd(core, 1, 1, func(atomics.Result) {
			done++
			issue(core, n-1)
		})
	}
	issue(0, 50)  // socket 0
	issue(20, 50) // socket 1
	eng.Drain()
	if done != 100 {
		t.Fatalf("ops done = %d", done)
	}
	crossNJ := mt.DynamicNJ()

	// Same op count on a single core: all local after warm-up.
	mt2 := NewMeter(m)
	eng2 := sim.NewEngine()
	mem2, _ := atomics.NewMemory(eng2, m, nil)
	mem2.System().SetTracer(mt2.Observe)
	issue2 := func() {
		n := 100
		var next func(atomics.Result)
		next = func(atomics.Result) {
			n--
			if n > 0 {
				mem2.FetchAndAdd(0, 1, 1, next)
			}
		}
		mem2.FetchAndAdd(0, 1, 1, next)
	}
	issue2()
	eng2.Drain()
	localNJ := mt2.DynamicNJ()

	if crossNJ <= localNJ {
		t.Fatalf("cross-socket dynamic energy (%v nJ) should exceed local (%v nJ)", crossNJ, localNJ)
	}
}

func TestReportString(t *testing.T) {
	m := machine.Ideal(2)
	rep := NewMeter(m).Report(sim.Second, 1, 1, 10)
	s := rep.String()
	if !strings.Contains(s, "nJ/op") || !strings.Contains(s, "W") {
		t.Errorf("String() = %q", s)
	}
}

// TestResetClears: Reset clears the counts but keeps the class table,
// so a pooled meter observes without allocating.
func TestResetClears(t *testing.T) {
	mt := NewMeter(machine.XeonE5())
	evs := classEvents(200, 5)
	for _, ev := range evs {
		mt.Observe(ev)
	}
	n := cap(mt.counts)
	mt.Reset()
	if mt.DynamicNJ() != 0 || mt.Events() != 0 {
		t.Fatal("Reset did not clear")
	}
	if cap(mt.counts) != n {
		t.Fatalf("Reset changed the class table's capacity: %d, want %d", cap(mt.counts), n)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		for _, ev := range evs {
			mt.Observe(ev)
		}
	}); allocs != 0 {
		t.Fatalf("Observe allocates: %.1f allocs per pass", allocs)
	}
}

// classEvents returns n accesses spread over every source, a range of
// hop counts and both socket sides, drawn deterministically.
func classEvents(n int, seed uint64) []coherence.TraceEvent {
	rng := sim.NewRNG(seed)
	evs := make([]coherence.TraceEvent, n)
	for i := range evs {
		evs[i].Result = coherence.AccessResult{
			Source:      coherence.Source(rng.Uint64() % 4),
			Hops:        int(rng.Uint64() % 12),
			CrossSocket: rng.Uint64()%2 == 1,
		}
	}
	return evs
}

// TestObserveOrderIndependent: the meter counts per class and sums the
// classes in a fixed order, so any permutation of the same accesses
// reports bit-identical energy.
func TestObserveOrderIndependent(t *testing.T) {
	m := machine.XeonE5()
	evs := classEvents(5000, 7)
	ref := NewMeter(m)
	for _, ev := range evs {
		ref.Observe(ev)
	}
	rng := sim.NewRNG(11)
	for trial := 0; trial < 5; trial++ {
		for i := len(evs) - 1; i > 0; i-- {
			j := int(rng.Uint64() % uint64(i+1))
			evs[i], evs[j] = evs[j], evs[i]
		}
		mt := NewMeter(m)
		for _, ev := range evs {
			mt.Observe(ev)
		}
		if got, want := mt.DynamicNJ(), ref.DynamicNJ(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: permuted DynamicNJ = %v, want %v bit for bit", trial, got, want)
		}
	}
}

// TestReplayEqualsLiveRepetitions: crediting k repetitions of a cycle's
// classes is bit-identical to observing the cycle k times.
func TestReplayEqualsLiveRepetitions(t *testing.T) {
	m := machine.KNL()
	cycle := classEvents(37, 3)
	for _, k := range []uint64{1, 2, 17, 1000} {
		live, replayed := NewMeter(m), NewMeter(m)
		prefix := classEvents(5, 9)
		cls := make([]int, len(cycle))
		for _, ev := range prefix {
			live.Observe(ev)
			replayed.Observe(ev)
		}
		for i, ev := range cycle {
			cls[i] = replayed.Class(ev)
		}
		for i := uint64(0); i < k; i++ {
			for _, ev := range cycle {
				live.Observe(ev)
			}
		}
		replayed.Replay(cls, k)
		if got, want := replayed.DynamicNJ(), live.DynamicNJ(); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("k=%d: replayed DynamicNJ = %v, live %v", k, got, want)
		}
		if got, want := replayed.Events(), live.Events(); got != want {
			t.Errorf("k=%d: replayed events = %d, live %d", k, got, want)
		}
	}
}
