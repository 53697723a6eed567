package workload

import (
	"encoding/json"
	"testing"

	"atomicsmodel/internal/atomics"
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/sim"
)

// poolEntries counts the cell pools the process holds.
func poolEntries() int {
	poolsMu.Lock()
	defer poolsMu.Unlock()
	return len(cellPools)
}

// poolCell is a short contended FAA cell on m.
func poolCell(m *machine.Machine) Config {
	return Config{
		Machine: m, Threads: 16, Primitive: atomics.FAA, Mode: HighContention,
		Warmup: 2 * sim.Microsecond, Duration: 10 * sim.Microsecond, Seed: 3,
	}
}

// TestCellPoolKeyedByContent: machine.XeonE5 builds a new value on
// every call, as every spec build does. Cells on those values must
// share one pool, not add a pool per value that is never freed.
func TestCellPoolKeyedByContent(t *testing.T) {
	before := poolEntries()
	for i := 0; i < 20; i++ {
		if _, err := Run(poolCell(machine.XeonE5())); err != nil {
			t.Fatal(err)
		}
	}
	if added := poolEntries() - before; added > 1 {
		t.Fatalf("20 fresh XeonE5 values added %d cell pools, want at most 1", added)
	}
	// A pooled cell reads the caller's machine value, not the value it
	// was built for.
	m := machine.XeonE5()
	c, err := RunCell(poolCell(m), primitives{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Release()
	if c.Memory().Machine() != m {
		t.Fatal("pooled cell's memory still reads the machine it was built for")
	}
}

// TestCellPoolEditAfterRun: a machine edited after it ran a cell must
// run its next cell on the edited parameters, exactly as a fresh
// machine with the same edit does, not on a pooled cell built before
// the edit.
func TestCellPoolEditAfterRun(t *testing.T) {
	m := machine.XeonE5()
	if _, err := Run(poolCell(m)); err != nil {
		t.Fatal(err)
	}
	m.LinkOccupancy = m.Cycles(8)
	edited, err := Run(poolCell(m))
	if err != nil {
		t.Fatal(err)
	}
	f := machine.XeonE5()
	f.LinkOccupancy = f.Cycles(8)
	fresh, err := Run(poolCell(f))
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(edited)
	b, _ := json.Marshal(fresh)
	if string(a) != string(b) {
		t.Fatalf("edited machine ran %.4f Mops, fresh machine with the same edit %.4f",
			edited.ThroughputMops, fresh.ThroughputMops)
	}
}
