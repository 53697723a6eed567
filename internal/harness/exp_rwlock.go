package harness

import (
	"atomicsmodel/internal/apps"
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/sim"
)

func init() {
	Register(&Experiment{
		ID:    "F20",
		Title: "Design decision: central vs distributed (per-reader-slot) reader-writer locks",
		Claim: "read-mostly synchronization wants per-thread lines: a central RW word turns every read into a bounce",
		Run: figure[apps.Spec, *apps.RunResult, float64]{
			kind:  appKind,
			title: "F20 (%s): RW-lock sections/s (M), 16 threads, 20ns sections",
			cols:  columns("read fraction", "central (Mops)", "distributed (Mops)", "speedup", "violations"),
			fits:  fitsThreads(16),
			rows: func(o Options, _ *machine.Machine) []float64 {
				return pick(o, []float64{0.50, 0.90, 0.98, 1.00}, []float64{0.50, 0.98})
			},
			// Two cells per row: central and distributed. The
			// mutual-exclusion violation count rides in the RunResult, so
			// the cells survive the manifest cache's JSON round trip
			// without a wrapper.
			cells: func(o Options, _ *machine.Machine, rf float64) []apps.Spec {
				central, dist := appKind.fixed(o, 16), appKind.fixed(o, 16)
				central.Structure, dist.Structure, dist.Slots = "rwlock-central", "rwlock-distributed", 16
				for _, sp := range []*apps.Spec{&central, &dist} {
					sp.ReadFraction, sp.CritPS = rf, 20*sim.Nanosecond
				}
				return []apps.Spec{central, dist}
			},
			row: func(t *Table, _ *machine.Machine, rf float64, res appResults) error {
				central, dist := res[0], res[1]
				t.AddRow(f2(rf), f2(central.ThroughputMops), f2(dist.ThroughputMops),
					f2(dist.ThroughputMops/central.ThroughputMops),
					itoa(central.Violations+dist.Violations))
				return nil
			},
			note: "violations column is the in-simulator mutual-exclusion check (must be 0)",
		}.run,
	})
}
