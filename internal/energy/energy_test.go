package energy

import (
	"math"
	"slices"
	"strings"
	"testing"

	"atomicsmodel/internal/atomics"
	"atomicsmodel/internal/coherence"
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/sim"
)

func TestChargePerClass(t *testing.T) {
	e := &machine.XeonE5().Energy
	charge := func(src coherence.Source, hops int, cross bool) float64 {
		return ChargeNJ(e, coherence.ClassOf(src, hops, cross))
	}
	local := charge(coherence.SrcLocal, 0, false)
	if local != e.LocalOpNJ || ChargeNJ(e, 0) != local {
		t.Fatalf("local charge = %v, want %v", local, e.LocalOpNJ)
	}
	intra := charge(coherence.SrcRemoteCache, 10, false)
	cross := charge(coherence.SrcRemoteCache, 10, true)
	if intra != e.LocalOpNJ+10*e.PerHopNJ || cross != intra+e.CrossSocketNJ {
		t.Fatalf("remote charges %v, %v", intra, cross)
	}
	if !(local < intra && intra < cross) {
		t.Fatalf("energy ordering local(%v) < intra(%v) < cross(%v) violated", local, intra, cross)
	}
	if got := charge(coherence.SrcLLC, 4, false); got != e.LLCNJ+4*e.PerHopNJ {
		t.Fatalf("LLC charge = %v", got)
	}
	if got := charge(coherence.SrcDRAM, 4, false); got != e.DRAMNJ+4*e.PerHopNJ || got <= 0 {
		t.Fatalf("DRAM charge = %v", got)
	}
}

func TestReportComposition(t *testing.T) {
	m := machine.Ideal(4) // 1 W static/core, 1 W active/thread
	none := make([]uint64, 8)
	rep := NewReport(m, none, none, sim.Second, 2, 2, 1000)
	if rep.StaticJ != 2 || rep.ActiveJ != 2 || rep.DynamicJ != 0 {
		t.Fatalf("static=%v active=%v dynamic=%v, want 2,2,0", rep.StaticJ, rep.ActiveJ, rep.DynamicJ)
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
	empty := NewReport(m, none, none, 0, 0, 0, 0)
	if empty.PerOpNJ != 0 || empty.AvgPowerW != 0 {
		t.Fatalf("degenerate report: %+v", empty)
	}
}

// TestLedgerPricesSimulation prices a coherence system's ledger:
// ping-ponging a line between sockets costs more dynamic energy than
// the same number of operations on one core.
func TestLedgerPricesSimulation(t *testing.T) {
	m := machine.XeonE5()
	dynamic := func(cores ...int) float64 {
		eng := sim.NewEngine()
		mem, err := atomics.NewMemory(eng, m, nil)
		if err != nil {
			t.Fatal(err)
		}
		base := make([]uint64, len(mem.System().Classes()))
		done := 0
		var issue func(core, n int)
		issue = func(core, n int) {
			if n == 0 {
				return
			}
			mem.FetchAndAdd(core, mem.Handle(1), 1, func(atomics.Result) {
				done++
				issue(core, n-1)
			})
		}
		for _, c := range cores {
			issue(c, 100/len(cores))
		}
		eng.Drain()
		if done != 100 {
			t.Fatalf("ops done = %d", done)
		}
		return dynamicNJ(&m.Energy, mem.System().Classes(), base)
	}
	crossNJ := dynamic(0, 20) // one core per socket
	localNJ := dynamic(0)
	if crossNJ <= localNJ {
		t.Fatalf("cross-socket dynamic energy (%v nJ) should exceed local (%v nJ)", crossNJ, localNJ)
	}
}

func TestReportString(t *testing.T) {
	m := machine.Ideal(2)
	none := make([]uint64, 2)
	s := NewReport(m, none, none, sim.Second, 1, 1, 10).String()
	if !strings.Contains(s, "nJ/op") || !strings.Contains(s, "W") {
		t.Errorf("String() = %q", s)
	}
}

// ledgerLen covers every class classEvents draws.
var ledgerLen = coherence.ClassOf(coherence.SrcDRAM, 11, true) + 1

// classEvents returns the classes of n accesses spread over every
// source, a range of hop counts and both socket sides, drawn
// deterministically.
func classEvents(n int, seed uint64) []int {
	rng := sim.NewRNG(seed)
	cls := make([]int, n)
	for i := range cls {
		cls[i] = coherence.ClassOf(coherence.Source(rng.Uint64()%4), int(rng.Uint64()%12), rng.Uint64()%2 == 1)
	}
	return cls
}

// count adds one access per entry of cls to ledger.
func count(ledger []uint64, cls []int) {
	for _, c := range cls {
		ledger[c]++
	}
}

// TestDynamicNJOrderIndependent: the ledger counts per class and
// dynamicNJ sums the classes in a fixed order, so any permutation of
// the same accesses prices bit-identically.
func TestDynamicNJOrderIndependent(t *testing.T) {
	e := &machine.XeonE5().Energy
	cls := classEvents(5000, 7)
	zero := make([]uint64, ledgerLen)
	ref := make([]uint64, ledgerLen)
	count(ref, cls)
	want := dynamicNJ(e, ref, zero)
	if want <= 0 {
		t.Fatalf("dynamicNJ = %v", want)
	}
	rng := sim.NewRNG(11)
	for trial := 0; trial < 5; trial++ {
		for i := len(cls) - 1; i > 0; i-- {
			j := int(rng.Uint64() % uint64(i+1))
			cls[i], cls[j] = cls[j], cls[i]
		}
		ledger := make([]uint64, ledgerLen)
		count(ledger, cls)
		if got := dynamicNJ(e, ledger, zero); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: permuted dynamicNJ = %v, want %v bit for bit", trial, got, want)
		}
	}
}

// TestDynamicNJPricesDelta: dynamicNJ prices only what the ledger
// counted since base, and a ledger credited k repetitions of a cycle's
// class delta at once (the cycle memoizer's jump) prices bit-identically
// to one that counted the k repetitions access by access.
func TestDynamicNJPricesDelta(t *testing.T) {
	e := &machine.KNL().Energy
	zero := make([]uint64, ledgerLen)
	base := make([]uint64, ledgerLen)
	count(base, classEvents(50, 9))
	cycle := classEvents(37, 3)
	delta := make([]uint64, ledgerLen)
	count(delta, cycle)
	for _, k := range []uint64{1, 2, 17, 1000} {
		live, jumped := slices.Clone(base), slices.Clone(base)
		for i := uint64(0); i < k; i++ {
			count(live, cycle)
		}
		for c, n := range delta {
			jumped[c] += n * k
		}
		got, want := dynamicNJ(e, jumped, base), dynamicNJ(e, live, base)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("k=%d: jumped dynamicNJ = %v, live %v", k, got, want)
		}
		scaled := make([]uint64, ledgerLen)
		for c, n := range delta {
			scaled[c] = n * k
		}
		if alone := dynamicNJ(e, scaled, zero); math.Float64bits(alone) != math.Float64bits(want) {
			t.Errorf("k=%d: the delta alone prices %v, against base %v", k, alone, want)
		}
	}
}
