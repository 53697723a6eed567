package apps

import (
	"strings"
	"testing"

	"atomicsmodel/internal/atomics"
	"atomicsmodel/internal/coherence"
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/sim"
)

func appCfg(m *machine.Machine, threads int, build func(*sim.Engine, *atomics.Memory) App) RunConfig {
	return RunConfig{
		Machine: m, Threads: threads, Build: build,
		Warmup: 10 * sim.Microsecond, Duration: 100 * sim.Microsecond, Seed: 1,
	}
}

func TestFAACounterCorrectAndCounted(t *testing.T) {
	var ctr *FAACounter
	res, err := Run(appCfg(machine.Ideal(8), 8, func(eng *sim.Engine, mem *atomics.Memory) App {
		ctr = NewFAACounter(mem)
		return ctr
	}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 {
		t.Fatal("no increments measured")
	}
	// Every completed Step is exactly one increment.
	if ctr.Value() != res.TotalOps {
		t.Fatalf("counter value %d != total completed steps %d", ctr.Value(), res.TotalOps)
	}
}

func TestCASCounterCorrect(t *testing.T) {
	var ctr *CASCounter
	res, err := Run(appCfg(machine.Ideal(8), 8, func(eng *sim.Engine, mem *atomics.Memory) App {
		ctr = NewCASCounter(mem)
		return ctr
	}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 {
		t.Fatal("no increments measured")
	}
	if ctr.Value() != res.TotalOps {
		t.Fatalf("counter value %d != completed steps %d", ctr.Value(), res.TotalOps)
	}
}

func TestFAACounterBeatsCASCounter(t *testing.T) {
	// The paper's headline design decision, at app level.
	m := machine.XeonE5()
	faa, err := Run(appCfg(m, 16, func(eng *sim.Engine, mem *atomics.Memory) App {
		return NewFAACounter(mem)
	}))
	if err != nil {
		t.Fatal(err)
	}
	cas, err := Run(appCfg(m, 16, func(eng *sim.Engine, mem *atomics.Memory) App {
		return NewCASCounter(mem)
	}))
	if err != nil {
		t.Fatal(err)
	}
	if faa.ThroughputMops < 2*cas.ThroughputMops {
		t.Fatalf("FAA counter (%.1f Mops) should be >=2x CAS counter (%.1f Mops) at 16 threads",
			faa.ThroughputMops, cas.ThroughputMops)
	}
}

func TestTreiberStackLIFOAndBalanced(t *testing.T) {
	var st *TreiberStack
	res, err := Run(appCfg(machine.Ideal(8), 4, func(eng *sim.Engine, mem *atomics.Memory) App {
		st = NewTreiberStack(mem, 64)
		return st
	}))
	if err != nil {
		t.Fatal(err)
	}
	pushes, pops, empties := st.Stats()
	if pushes+pops+empties != res.TotalOps {
		t.Fatalf("op accounting: %d+%d+%d != %d", pushes, pops, empties, res.TotalOps)
	}
	if pushes == 0 || pops == 0 {
		t.Fatal("stack exercised only one operation type")
	}
	// Seeded with 64: non-empty pops can exceed pushes by at most 64.
	if pops > pushes+64 {
		t.Fatalf("pops %d exceed pushes %d + seed 64", pops, pushes)
	}
}

func TestTreiberStackTopIsConsistent(t *testing.T) {
	var st *TreiberStack
	var mem *atomics.Memory
	_, err := Run(appCfg(machine.Ideal(8), 8, func(eng *sim.Engine, m *atomics.Memory) App {
		mem = m
		st = NewTreiberStack(m, 16)
		return st
	}))
	if err != nil {
		t.Fatal(err)
	}
	// Walk the stack from top: depth must equal seed + pushes - pops,
	// and the chain must terminate.
	pushes, pops, _ := st.Stats()
	want := 16 + int64(pushes) - int64(pops)
	depth := int64(0)
	cur := mem.System().Value(topLine)
	for cur != 0 && depth <= want+1 {
		depth++
		cur = mem.System().Value(nodeBase + coherence.LineID(cur))
	}
	if depth != want {
		t.Fatalf("stack depth %d, want %d", depth, want)
	}
}

func TestLocksProvideMutualExclusion(t *testing.T) {
	for _, mk := range []struct {
		name  string
		build func(*sim.Engine, *atomics.Memory) App
	}{
		{"tas", func(e *sim.Engine, m *atomics.Memory) App { return NewTASLock(e, m, 0) }},
		{"ttas", func(e *sim.Engine, m *atomics.Memory) App { return NewTTASLock(e, m, 0) }},
		{"ticket", func(e *sim.Engine, m *atomics.Memory) App { return NewTicketLock(e, m, 0) }},
	} {
		// Run itself verifies that the protected data line holds one
		// update per completed cycle (plus at most one per thread cut
		// off mid-section) and fails the cell otherwise.
		res, err := Run(appCfg(machine.Ideal(8), 8, mk.build))
		if err != nil {
			t.Fatalf("%s: %v", mk.name, err)
		}
		if res.Ops == 0 {
			t.Fatalf("%s: no lock cycles measured", mk.name)
		}
	}
}

// breachLock is a "lock" that excludes nothing: each Step
// read-modify-writes the protected data line non-atomically, so
// concurrent threads lose updates.
type breachLock struct{ mem *atomics.Memory }

func (breachLock) Name() string { return "lock-none" }

func (breachLock) mutex() {}

func (b breachLock) Step(th *Thread, done func()) {
	b.mem.LoadOp(th.Core, b.mem.Handle(dataLine), func(r atomics.Result) {
		b.mem.StoreOp(th.Core, b.mem.Handle(dataLine), r.Old+1, func(atomics.Result) { done() })
	})
}

// TestLockBreachFailsCell pins the post-run mutual-exclusion check: a
// lock cell whose protected data lost updates must fail.
func TestLockBreachFailsCell(t *testing.T) {
	_, err := Run(appCfg(machine.Ideal(8), 8, func(e *sim.Engine, m *atomics.Memory) App {
		return breachLock{mem: m}
	}))
	if err == nil || !strings.Contains(err.Error(), "mutual exclusion breached") {
		t.Fatalf("Run error = %v, want a mutual-exclusion breach", err)
	}
}

func TestBackoffBeatsPlainSpinning(t *testing.T) {
	// On a directory-based machine, plain TTAS suffers a post-release
	// thundering herd (K-1 failed RFOs per handoff), so its advantage
	// over plain TAS is not guaranteed; the robust, model-guided fix is
	// backoff, which must clearly beat both plain variants.
	m := machine.XeonE5()
	crit := 50 * sim.Nanosecond
	run := func(build func(*sim.Engine, *atomics.Memory) App) float64 {
		res, err := Run(appCfg(m, 16, build))
		if err != nil {
			t.Fatal(err)
		}
		return res.ThroughputMops
	}
	tas := run(func(e *sim.Engine, mm *atomics.Memory) App { return NewTASLock(e, mm, crit) })
	ttas := run(func(e *sim.Engine, mm *atomics.Memory) App { return NewTTASLock(e, mm, crit) })
	backoff := run(func(e *sim.Engine, mm *atomics.Memory) App {
		return NewTTASBackoffLock(e, mm, crit, 100*sim.Nanosecond, 3200*sim.Nanosecond)
	})
	if backoff <= tas || backoff <= ttas {
		t.Fatalf("backoff (%.2f Mops) should beat TAS (%.2f) and TTAS (%.2f) at 16 threads",
			backoff, tas, ttas)
	}
}

func TestTicketLockIsFairest(t *testing.T) {
	m := machine.XeonE5()
	crit := 50 * sim.Nanosecond
	ticket, err := Run(appCfg(m, 12, func(e *sim.Engine, mm *atomics.Memory) App { return NewTicketLock(e, mm, crit) }))
	if err != nil {
		t.Fatal(err)
	}
	if ticket.Jain < 0.95 {
		t.Fatalf("ticket lock Jain = %.3f, want ~1 (FIFO by construction)", ticket.Jain)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(RunConfig{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := Run(RunConfig{Machine: machine.Ideal(4), Threads: 0,
		Build: func(e *sim.Engine, m *atomics.Memory) App { return NewFAACounter(m) }}); err == nil {
		t.Error("zero threads accepted")
	}
	if _, err := Run(RunConfig{Machine: machine.Ideal(4), Threads: 99,
		Build: func(e *sim.Engine, m *atomics.Memory) App { return NewFAACounter(m) }}); err == nil {
		t.Error("oversubscription accepted")
	}
}

func TestAppNames(t *testing.T) {
	eng := sim.NewEngine()
	mem, _ := atomics.NewMemory(eng, machine.Ideal(4), nil)
	names := map[string]bool{}
	for _, a := range []App{
		NewFAACounter(mem), NewCASCounter(mem), NewTreiberStack(mem, 1),
		NewTASLock(eng, mem, 0), NewTTASLock(eng, mem, 0), NewTicketLock(eng, mem, 0),
		NewTTASBackoffLock(eng, mem, 0, sim.Nanosecond, sim.Microsecond),
	} {
		if a.Name() == "" || names[a.Name()] {
			t.Errorf("bad or duplicate app name %q", a.Name())
		}
		names[a.Name()] = true
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	cfg := appCfg(machine.XeonE5(), 8, func(e *sim.Engine, m *atomics.Memory) App {
		return NewTreiberStack(m, 32)
	})
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Ops != b.Ops {
		t.Fatalf("same seed diverged: %d vs %d", a.Ops, b.Ops)
	}
}
