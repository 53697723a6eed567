package harness

import (
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/sim"
)

func init() {
	Register(&Experiment{
		ID:    "F20",
		Title: "Design decision: central vs distributed (per-reader-slot) reader-writer locks",
		Claim: "read-mostly synchronization wants per-thread lines: a central RW word turns every read into a bounce",
		Run:   runF20,
	})
}

func runF20(o Options) ([]*Table, error) {
	fracs := []float64{0.50, 0.90, 0.98, 1.00}
	if o.Quick {
		fracs = []float64{0.50, 0.98}
	}
	const threads = 16
	var eligible []*machine.Machine
	for _, m := range o.machines() {
		if threads <= m.NumHWThreads() {
			eligible = append(eligible, m)
		}
	}
	// Two cells per row: central and distributed. The mutual-exclusion
	// violation count rides in the RunResult, so the cells survive the
	// manifest cache's JSON round trip without a wrapper.
	cells := appKind.newCells()
	for _, m := range eligible {
		for _, rf := range fracs {
			for _, structure := range []string{"rwlock-central", "rwlock-distributed"} {
				sp := appKind.base(o)
				sp.Structure = structure
				sp.Threads = threads
				sp.ReadFraction = rf
				sp.CritPS = 20 * sim.Nanosecond
				if structure == "rwlock-distributed" {
					sp.Slots = threads
				}
				sp.Seed = o.Seed
				cells.add(m, sp)
			}
		}
	}
	results, err := cells.run(o)
	if err != nil {
		return nil, err
	}

	var tables []*Table
	k := 0
	for _, m := range eligible {
		t := NewTable("F20 ("+m.Name+"): RW-lock sections/s (M), 16 threads, 20ns sections",
			"read fraction", "central (Mops)", "distributed (Mops)", "speedup", "violations")
		for _, rf := range fracs {
			central, dist := results[k], results[k+1]
			k += 2
			t.AddRow(f2(rf), f2(central.ThroughputMops), f2(dist.ThroughputMops),
				f2(dist.ThroughputMops/central.ThroughputMops),
				itoa(central.Violations+dist.Violations))
		}
		t.AddNote("violations column is the in-simulator mutual-exclusion check (must be 0)")
		tables = append(tables, t)
	}
	return tables, nil
}
