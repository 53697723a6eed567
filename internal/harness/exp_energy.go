package harness

import (
	"atomicsmodel/internal/atomics"
	"atomicsmodel/internal/core"
	"atomicsmodel/internal/workload"
)

func init() {
	Register(&Experiment{
		ID:    "F6",
		Title: "Energy per operation vs thread count (high and low contention)",
		Claim: "contention wastes energy: J/op grows with threads when the line serializes, stays flat when it does not",
		Run:   runF6,
	})
}

func runF6(o Options) ([]*Table, error) {
	machines := o.machines()
	// Three cells per row: FAA high, CAS high, FAA low.
	cells := []struct {
		p    atomics.Primitive
		mode workload.Mode
	}{
		{atomics.FAA, workload.HighContention},
		{atomics.CAS, workload.HighContention},
		{atomics.FAA, workload.LowContention},
	}
	wcells := workloadKind.newCells()
	for _, m := range machines {
		for _, n := range o.threadSweep(m) {
			for _, c := range cells {
				sp := workloadKind.base(o)
				sp.Primitive = c.p.String()
				sp.Mode = c.mode.String()
				sp.Threads = n
				sp.Seed = o.Seed + uint64(n)
				wcells.add(m, sp)
			}
		}
	}
	results, err := wcells.run(o)
	if err != nil {
		return nil, err
	}

	var tables []*Table
	k := 0
	for _, m := range machines {
		md := core.NewDetailed(m)
		t := NewTable("F6 ("+m.Name+"): energy per successful op (nJ)",
			"threads", "FAA high", "model FAA high", "CAS high", "FAA low", "avg power high (W)")
		for _, n := range o.threadSweep(m) {
			cores, err := coresFor(m, nil, n)
			if err != nil {
				return nil, err
			}
			faaHigh, casHigh, faaLow := results[k], results[k+1], results[k+2]
			k += 3
			pred := md.PredictHigh(atomics.FAA, cores, 0)
			t.AddRow(itoa(n),
				f1(faaHigh.Energy.PerOpNJ), f1(pred.EnergyPerOpNJ),
				f1(casHigh.Energy.PerOpNJ), f1(faaLow.Energy.PerOpNJ),
				f1(faaHigh.Energy.AvgPowerW))
		}
		t.AddNote("high contention: threads spin while one op progresses, so J/op grows ~linearly")
		tables = append(tables, t)
	}
	return tables, nil
}
