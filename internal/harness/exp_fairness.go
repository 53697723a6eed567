package harness

import (
	"atomicsmodel/internal/atomics"
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/workload"
)

func init() {
	// Per row: one FAA cell per arbitration policy plus the trailing
	// CAS/fifo cell.
	arbs := []arbiter{{"fifo", "fifo", 0}, {"random", "random", 0}, {"locality", "locality", 0}, {"loc-bounded", "locality", 64}}
	cols := []string{"threads"}
	for _, a := range arbs {
		cols = append(cols, "FAA/"+a.name)
	}
	Register(&Experiment{
		ID:    "F5",
		Title: "Fairness (Jain's index) vs thread count under different arbitration policies",
		Claim: "fairness of atomics depends on hardware arbitration; locality-biased arbitration starves distant cores",
		Run: figure[workload.Spec, *workload.Result, int]{
			kind:  workloadKind,
			title: "F5 (%s): Jain fairness index, high contention",
			cols:  columns(append(cols, "FAA min/max (loc)", "CAS/fifo")...),
			rows:  contended,
			cells: func(o Options, _ *machine.Machine, n int) []workload.Spec {
				var out []workload.Spec
				for _, a := range arbs {
					out = append(out, a.faa(workloadKind.at(o, n)))
				}
				sp := workloadKind.at(o, n)
				sp.Primitive = atomics.CAS.String()
				return append(out, sp)
			},
			row: func(t *Table, _ *machine.Machine, n int, res wlResults) error {
				row := []string{itoa(n)}
				var locMinMax float64
				for i, a := range arbs {
					row = append(row, f3(res[i].Jain))
					if a.name == "locality" {
						locMinMax = res[i].MinMax
					}
				}
				t.AddRow(append(row, f3(locMinMax), f3(res[len(arbs)].Jain))...)
				return nil
			},
			note: "CAS/fifo Jain -> 1/N: the round winner keeps the freshest expected value",
		}.run,
	})
}
