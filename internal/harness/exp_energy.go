package harness

import (
	"atomicsmodel/internal/atomics"
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/workload"
)

func init() {
	Register(&Experiment{
		ID:    "F6",
		Title: "Energy per operation vs thread count (high and low contention)",
		Claim: "contention wastes energy: J/op grows with threads when the line serializes, stays flat when it does not",
		Run: figure[workload.Spec, *workload.Result, int]{
			kind:  workloadKind,
			title: "F6 (%s): energy per successful op (nJ)",
			cols:  columns("threads", "FAA high", "model FAA high", "CAS high", "FAA low", "avg power high (W)"),
			rows:  Options.threadSweep,
			// Three cells per row: FAA high, CAS high, FAA low.
			cells: func(o Options, _ *machine.Machine, n int) []workload.Spec {
				var out []workload.Spec
				for _, c := range []struct {
					p    atomics.Primitive
					mode workload.Mode
				}{
					{atomics.FAA, workload.HighContention},
					{atomics.CAS, workload.HighContention},
					{atomics.FAA, workload.LowContention},
				} {
					sp := workloadKind.at(o, n)
					sp.Primitive, sp.Mode = c.p.String(), c.mode.String()
					out = append(out, sp)
				}
				return out
			},
			row: func(t *Table, m *machine.Machine, n int, res wlResults) error {
				pred, err := predictHigh(m, atomics.FAA, n, 0)
				if err != nil {
					return err
				}
				faaHigh, casHigh, faaLow := res[0], res[1], res[2]
				t.AddRow(itoa(n),
					f1(faaHigh.Energy.PerOpNJ), f1(pred.EnergyPerOpNJ),
					f1(casHigh.Energy.PerOpNJ), f1(faaLow.Energy.PerOpNJ),
					f1(faaHigh.Energy.AvgPowerW))
				return nil
			},
			note: fixedNote("high contention: threads spin while one op progresses, so J/op grows ~linearly"),
		}.run,
	})
}
