package harness

import (
	"atomicsmodel/internal/atomics"
)

func init() {
	Register(&Experiment{
		ID:    "F5",
		Title: "Fairness (Jain's index) vs thread count under different arbitration policies",
		Claim: "fairness of atomics depends on hardware arbitration; locality-biased arbitration starves distant cores",
		Run:   runF5,
	})
}

func runF5(o Options) ([]*Table, error) {
	// Per row: one FAA cell per arbitration policy plus the trailing
	// CAS/fifo cell. Arbiters resolve by name inside each cell's spec so
	// every engine gets its own instance (they can be stateful); the
	// random arbiter's stream is seeded from the cell seed.
	arbs := []struct {
		name  string // display name
		arb   string // spec policy name
		skips int
	}{
		{"fifo", "fifo", 0},
		{"random", "random", 0},
		{"locality", "locality", 0},
		{"loc-bounded", "locality", 64},
	}
	machines := o.machines()
	cells := workloadKind.newCells()
	for _, m := range machines {
		for _, n := range o.threadSweep(m) {
			if n < 2 {
				continue
			}
			for _, a := range arbs {
				sp := workloadKind.base(o)
				sp.Primitive = atomics.FAA.String()
				sp.Arbiter = a.arb
				sp.ArbiterSkips = a.skips
				sp.Threads = n
				sp.Seed = o.Seed + uint64(n)
				cells.add(m, sp)
			}
			sp := workloadKind.base(o)
			sp.Primitive = atomics.CAS.String()
			sp.Threads = n
			sp.Seed = o.Seed + uint64(n)
			cells.add(m, sp)
		}
	}
	results, err := cells.run(o)
	if err != nil {
		return nil, err
	}

	var tables []*Table
	k := 0
	for _, m := range machines {
		cols := []string{"threads"}
		for _, a := range arbs {
			cols = append(cols, "FAA/"+a.name)
		}
		cols = append(cols, "FAA min/max (loc)", "CAS/fifo")
		t := NewTable("F5 ("+m.Name+"): Jain fairness index, high contention", cols...)
		for _, n := range o.threadSweep(m) {
			if n < 2 {
				continue
			}
			row := []string{itoa(n)}
			var locMinMax float64
			for _, a := range arbs {
				res := results[k]
				k++
				row = append(row, f3(res.Jain))
				if a.name == "locality" {
					locMinMax = res.MinMax
				}
			}
			row = append(row, f3(locMinMax))
			cas := results[k]
			k++
			row = append(row, f3(cas.Jain))
			t.AddRow(row...)
		}
		t.AddNote("CAS/fifo Jain -> 1/N: the round winner keeps the freshest expected value")
		tables = append(tables, t)
	}
	return tables, nil
}
