package apps

import (
	"testing"

	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/sim"
)

// TestAppCellsDoNotAllocate pins zero per-operation allocations for
// every registered structure: a warm 8-thread cell on the pooled
// runtime allocates exactly as much with a window twice as long (about
// twice the operations) as with the base window. What a cell does
// allocate — the structure, its per-thread contexts, the result it
// returns — is per cell, not per operation.
func TestAppCellsDoNotAllocate(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every structure at two window lengths")
	}
	m := machine.XeonE5()
	for _, name := range StructureNames() {
		allocs := func(duration sim.Time) float64 {
			sp := &Spec{Structure: name, Threads: 8, WarmupPS: 5 * sim.Microsecond, DurationPS: duration, Seed: 3}
			cfg, err := sp.RunConfig(m)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			run := func() {
				if _, err := Run(cfg); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
			// Two warm-up runs (this one and AllocsPerRun's own): the
			// first run of a window length grows the pooled line states
			// and queues to it, the second settles which pooled entry
			// each line reuses.
			run()
			return testing.AllocsPerRun(3, run)
		}
		base := 20 * sim.Microsecond
		if a1, a2 := allocs(base), allocs(2*base); a1 != a2 {
			t.Errorf("%s: a warm cell allocates %v times over %v but %v times over %v: per-operation allocations",
				name, a1, base, a2, 2*base)
		}
	}
}
