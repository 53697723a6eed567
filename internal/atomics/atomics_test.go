package atomics

import (
	"testing"

	"atomicsmodel/internal/coherence"
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/sim"
)

func testMemory(t *testing.T) (*sim.Engine, *Memory) {
	t.Helper()
	eng := sim.NewEngine()
	mem, err := NewMemory(eng, machine.Ideal(8), nil)
	if err != nil {
		t.Fatal(err)
	}
	return eng, mem
}

func run(t *testing.T, eng *sim.Engine, issue func(done func(Result))) Result {
	t.Helper()
	var got *Result
	issue(func(r Result) { got = &r })
	eng.Drain()
	if got == nil {
		t.Fatal("operation did not complete")
	}
	return *got
}

func TestPrimitiveStringsAndParse(t *testing.T) {
	for _, p := range All() {
		q, err := Parse(p.String())
		if err != nil || q != p {
			t.Errorf("Parse(%q) = %v, %v", p.String(), q, err)
		}
	}
	if _, err := Parse("XADD"); err == nil {
		t.Error("Parse accepted junk")
	}
	if Primitive(99).String() == "" {
		t.Error("unknown primitive string empty")
	}
}

func TestIsRMW(t *testing.T) {
	for _, p := range RMWs() {
		if !p.IsRMW() {
			t.Errorf("%v should be RMW", p)
		}
	}
	if Load.IsRMW() || Store.IsRMW() {
		t.Error("Load/Store are not RMWs")
	}
}

func TestExecCostTable(t *testing.T) {
	m := machine.XeonE5()
	for _, p := range All() {
		c := ExecCost(m, p)
		if c < 0 {
			t.Errorf("%v exec cost negative", p)
		}
	}
	if ExecCost(m, FAA) > ExecCost(m, CAS) {
		t.Error("FAA should not cost more than CAS")
	}
}

func TestFetchAndAdd(t *testing.T) {
	eng, mem := testMemory(t)
	mem.System().SetValue(1, 10)
	r := run(t, eng, func(done func(Result)) { mem.FetchAndAdd(0, mem.Handle(1), 5, done) })
	if r.Old != 10 || !r.OK {
		t.Fatalf("FAA old=%d ok=%v", r.Old, r.OK)
	}
	if mem.System().Value(1) != 15 {
		t.Fatalf("value = %d, want 15", mem.System().Value(1))
	}
}

func TestCASSuccessAndFailure(t *testing.T) {
	eng, mem := testMemory(t)
	mem.System().SetValue(1, 7)
	r := run(t, eng, func(done func(Result)) { mem.CompareAndSwap(0, mem.Handle(1), 7, 8, done) })
	if !r.OK || r.Old != 7 || mem.System().Value(1) != 8 {
		t.Fatalf("CAS success: %+v value=%d", r, mem.System().Value(1))
	}
	r = run(t, eng, func(done func(Result)) { mem.CompareAndSwap(1, mem.Handle(1), 7, 9, done) })
	if r.OK || r.Old != 8 || mem.System().Value(1) != 8 {
		t.Fatalf("CAS failure: %+v value=%d", r, mem.System().Value(1))
	}
}

func TestSwap(t *testing.T) {
	eng, mem := testMemory(t)
	mem.System().SetValue(1, 3)
	r := run(t, eng, func(done func(Result)) { mem.Swap(0, mem.Handle(1), 44, done) })
	if r.Old != 3 || mem.System().Value(1) != 44 {
		t.Fatalf("swap old=%d value=%d", r.Old, mem.System().Value(1))
	}
}

func TestTestAndSet(t *testing.T) {
	eng, mem := testMemory(t)
	r := run(t, eng, func(done func(Result)) { mem.TestAndSet(0, mem.Handle(1), done) })
	if r.Old != 0 {
		t.Fatalf("first TAS old = %d, want 0 (acquired)", r.Old)
	}
	r = run(t, eng, func(done func(Result)) { mem.TestAndSet(1, mem.Handle(1), done) })
	if r.Old != 1 {
		t.Fatalf("second TAS old = %d, want 1 (busy)", r.Old)
	}
}

func TestLoadAndStore(t *testing.T) {
	eng, mem := testMemory(t)
	r := run(t, eng, func(done func(Result)) { mem.StoreOp(0, mem.Handle(1), 99, done) })
	if !r.OK {
		t.Fatal("store not OK")
	}
	r = run(t, eng, func(done func(Result)) { mem.LoadOp(1, mem.Handle(1), done) })
	if r.Old != 99 {
		t.Fatalf("load = %d, want 99", r.Old)
	}
}

func TestDoDispatch(t *testing.T) {
	eng, mem := testMemory(t)
	mem.System().SetValue(2, 1)
	cases := []struct {
		p     Primitive
		a, b  uint64
		check func(r Result) bool
	}{
		{CAS, 1, 2, func(r Result) bool { return r.OK && mem.System().Value(2) == 2 }},
		{FAA, 3, 0, func(r Result) bool { return r.Old == 2 && mem.System().Value(2) == 5 }},
		{SWAP, 9, 0, func(r Result) bool { return r.Old == 5 && mem.System().Value(2) == 9 }},
		{TAS, 0, 0, func(r Result) bool { return r.Old == 9 && mem.System().Value(2) == 1 }},
		{Load, 0, 0, func(r Result) bool { return r.Old == 1 }},
		{Store, 7, 0, func(r Result) bool { return mem.System().Value(2) == 7 }},
	}
	for _, c := range cases {
		r := run(t, eng, func(done func(Result)) { mem.Do(c.p, 0, mem.Handle(2), c.a, c.b, done) })
		if !c.check(r) {
			t.Fatalf("%v dispatch failed: %+v value=%d", c.p, r, mem.System().Value(2))
		}
	}
}

func TestCAS2SemanticsAndCost(t *testing.T) {
	eng, mem := testMemory(t)
	mem.System().SetValue(1, 7)
	r := run(t, eng, func(done func(Result)) { mem.CompareAndSwap2(0, mem.Handle(1), 7, 8, done) })
	if !r.OK || mem.System().Value(1) != 8 {
		t.Fatalf("CAS2 success: %+v", r)
	}
	r = run(t, eng, func(done func(Result)) { mem.CompareAndSwap2(0, mem.Handle(1), 7, 9, done) })
	if r.OK || mem.System().Value(1) != 8 {
		t.Fatalf("CAS2 failure: %+v", r)
	}
	// CAS2 costs more than CAS on an owned line.
	rc := run(t, eng, func(done func(Result)) { mem.CompareAndSwap(0, mem.Handle(1), 8, 9, done) })
	r2 := run(t, eng, func(done func(Result)) { mem.CompareAndSwap2(0, mem.Handle(1), 9, 10, done) })
	if r2.Latency <= rc.Latency {
		t.Fatalf("CAS2 (%v) should cost more than CAS (%v)", r2.Latency, rc.Latency)
	}
}

func TestFenceIsCoreLocal(t *testing.T) {
	eng, mem := testMemory(t)
	m := mem.Machine()
	before := mem.System().Stats().Accesses
	r := run(t, eng, func(done func(Result)) { mem.FenceOp(0, done) })
	if r.Latency != m.Lat.ExecFence {
		t.Fatalf("fence latency %v, want %v", r.Latency, m.Lat.ExecFence)
	}
	if mem.System().Stats().Accesses != before {
		t.Fatal("fence generated coherence traffic")
	}
	// Via the generic dispatcher, the line argument is ignored.
	r2 := run(t, eng, func(done func(Result)) { mem.Do(Fence, 3, mem.Handle(999), 0, 0, done) })
	if r2.Latency != m.Lat.ExecFence || !r2.OK {
		t.Fatalf("dispatched fence: %+v", r2)
	}
}

func TestRMWLatencyIncludesExec(t *testing.T) {
	eng, mem := testMemory(t)
	m := mem.Machine()
	// Warm the line so the second op is a pure local hit.
	run(t, eng, func(done func(Result)) { mem.FetchAndAdd(0, mem.Handle(1), 1, done) })
	r := run(t, eng, func(done func(Result)) { mem.FetchAndAdd(0, mem.Handle(1), 1, done) })
	want := m.Lat.L1Hit + m.Lat.ExecFAA
	if r.Latency != want {
		t.Fatalf("owned-line FAA latency = %v, want %v", r.Latency, want)
	}
	// A load on the owned line is cheaper than the FAA.
	rl := run(t, eng, func(done func(Result)) { mem.LoadOp(0, mem.Handle(1), done) })
	if rl.Latency >= r.Latency {
		t.Fatalf("load (%v) should be cheaper than FAA (%v)", rl.Latency, r.Latency)
	}
}

func TestFailedCASStillTransfersLine(t *testing.T) {
	eng, mem := testMemory(t)
	mem.System().SetValue(1, 5)
	run(t, eng, func(done func(Result)) { mem.FetchAndAdd(0, mem.Handle(1), 0, done) }) // owner: core 0
	before := mem.System().Stats()
	r := run(t, eng, func(done func(Result)) { mem.CompareAndSwap(3, mem.Handle(1), 999, 1, done) })
	if r.OK {
		t.Fatal("CAS should have failed")
	}
	if d := mem.System().Stats().Sub(before); d.Accesses != 1 || d.RemoteXfers != 1 {
		t.Fatalf("failed CAS: %d accesses, %d remote transfers; want one remote transfer", d.Accesses, d.RemoteXfers)
	}
	if dir := mem.System().Directory(1); dir.Owner != 3 {
		t.Fatalf("failed CAS left the line owned by core %d, want 3", dir.Owner)
	}
}

func TestContendedFAALinearizable(t *testing.T) {
	eng, mem := testMemory(t)
	const threads, opsEach = 8, 100
	var issue func(core, n int)
	issue = func(core, n int) {
		if n == 0 {
			return
		}
		mem.FetchAndAdd(core, mem.Handle(7), 1, func(Result) { issue(core, n-1) })
	}
	for c := 0; c < threads; c++ {
		issue(c, opsEach)
	}
	eng.Drain()
	if got := mem.System().Value(7); got != threads*opsEach {
		t.Fatalf("counter = %d, want %d", got, threads*opsEach)
	}
	if err := mem.System().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFAAReturnValuesAreUniqueTickets(t *testing.T) {
	// Property: concurrent FAA(1) returns every value 0..N-1 exactly
	// once — the ticket-lock property the paper's fairness section
	// relies on.
	eng, mem := testMemory(t)
	const n = 64
	seen := make(map[uint64]int)
	for c := 0; c < 8; c++ {
		for i := 0; i < n/8; i++ {
			mem.FetchAndAdd(c, mem.Handle(9), 1, func(r Result) { seen[r.Old]++ })
		}
	}
	eng.Drain()
	if len(seen) != n {
		t.Fatalf("distinct tickets = %d, want %d", len(seen), n)
	}
	for v, cnt := range seen {
		if cnt != 1 {
			t.Fatalf("ticket %d issued %d times", v, cnt)
		}
		if v >= n {
			t.Fatalf("ticket %d out of range", v)
		}
	}
}

// TestShiftValuesTranslatesInFlightCAS: a value shift moves a CAS in
// flight along with its line — the CAS still succeeds, against the
// shifted value — and leaves an FAA's addend alone.
func TestShiftValuesTranslatesInFlightCAS(t *testing.T) {
	eng, mem := testMemory(t)
	const line = coherence.LineID(3)
	mem.System().SetValue(line, 5)
	var cas, faa *Result
	mem.CompareAndSwap(0, mem.Handle(line), 5, 6, func(r Result) { cas = &r })
	mem.FetchAndAdd(1, mem.Handle(line), 1, func(r Result) { faa = &r })
	mem.ShiftValues([]coherence.LineID{line}, 10)
	eng.Drain()
	if cas == nil || faa == nil {
		t.Fatal("operations did not complete")
	}
	if !cas.OK || cas.Old != 15 {
		t.Fatalf("shifted CAS: ok=%v old=%d, want ok=true old=15", cas.OK, cas.Old)
	}
	if faa.Old != 16 {
		t.Fatalf("FAA observed %d, want 16", faa.Old)
	}
	if v := mem.System().Value(line); v != 17 {
		t.Fatalf("line value %d, want 17", v)
	}
}
