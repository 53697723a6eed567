package apps

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"atomicsmodel/internal/atomics"
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/sim"
	"atomicsmodel/internal/workload"
)

// TestHandlesResolvedPerCell runs a 32-thread ws-deque cell, a
// treiber-stack cell, an 8-thread ws-deque cell and a workload CAS cell
// one after another on one pooled runtime, so each cell's lines reuse
// the directory entries the cell before it resolved, and requires every
// result to equal the same cell's on a fresh runtime. A structure that
// kept a line handle past the Reset between cells would access an entry
// that now holds another line (or none), and its result would differ.
func TestHandlesResolvedPerCell(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four cells twice")
	}
	// Cells pool per machine content, and a machine's name is part of
	// it: a name no other cell uses gets a runtime of its own. An app
	// result does not carry its machine, and a workload result's is
	// cleared before digesting.
	named := func(name string) *machine.Machine {
		m := machine.XeonE5()
		m.Name = name
		return m
	}
	digest := func(v any) string {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(raw)
		return hex.EncodeToString(sum[:])
	}
	app := func(structure string, threads int) func(*machine.Machine) string {
		return func(m *machine.Machine) string {
			sp := &Spec{Structure: structure, Threads: threads, Seed: 5,
				WarmupPS: 3 * sim.Microsecond, DurationPS: 20 * sim.Microsecond}
			cfg, err := sp.RunConfig(m)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s/%d: %v", structure, threads, err)
			}
			return digest(res)
		}
	}
	cells := []struct {
		name string
		run  func(*machine.Machine) string
	}{
		{"ws-deque/32", app("ws-deque", 32)},
		{"treiber-stack/8", app("treiber-stack", 8)},
		{"ws-deque/8", app("ws-deque", 8)},
		{"workload-cas/8", func(m *machine.Machine) string {
			res, err := workload.Run(workload.Config{
				Machine: m, Threads: 8, Primitive: atomics.CAS, Mode: workload.HighContention,
				Warmup: 2 * sim.Microsecond, Duration: 10 * sim.Microsecond, Seed: 5,
			})
			if err != nil {
				t.Fatal(err)
			}
			res.Config.Machine = nil
			return digest(res)
		}},
	}
	pooled := named("handles-pooled")
	for i, c := range cells {
		got := c.run(pooled)
		want := c.run(named(fmt.Sprintf("handles-fresh-%d", i)))
		if got != want {
			t.Errorf("%s after %d earlier cells on its runtime: digest %s, on a fresh runtime %s", c.name, i, got, want)
		}
	}
}
