package harness

import (
	"atomicsmodel/internal/atomics"
	"atomicsmodel/internal/machine"
)

func init() {
	Register(&Experiment{
		ID:    "F21",
		Title: "Latency distribution under contention: arbitration decides the tail",
		Claim: "mean latency hides the story: FIFO serves everyone at ~N*s with no tail, random arbitration stretches p99, locality starves the losers outright",
		Run:   runF21,
	})
}

func runF21(o Options) ([]*Table, error) {
	const threads = 16
	// The random arbiter's stream is seeded from the cell seed (o.Seed),
	// matching the hand-built arbiters this runner used before specs.
	arbs := []struct {
		name  string // display name
		arb   string // spec policy name
		skips int
	}{
		{"fifo", "fifo", 0},
		{"random", "random", 0},
		{"loc-skip64", "locality", 64},
	}
	var eligible []*machine.Machine
	for _, m := range o.machines() {
		if threads <= m.NumHWThreads() {
			eligible = append(eligible, m)
		}
	}
	cells := workloadKind.newCells()
	for _, m := range eligible {
		for _, a := range arbs {
			sp := workloadKind.base(o)
			sp.Primitive = atomics.FAA.String()
			sp.Arbiter = a.arb
			sp.ArbiterSkips = a.skips
			sp.Threads = threads
			sp.Seed = o.Seed
			cells.add(m, sp)
		}
	}
	results, err := cells.run(o)
	if err != nil {
		return nil, err
	}

	var tables []*Table
	k := 0
	for _, m := range eligible {
		t := NewTable("F21 ("+m.Name+"): FAA attempt-latency distribution, 16 threads",
			"arbitration", "p50 (ns)", "p95 (ns)", "p99 (ns)", "max (ns)", "p99/p50")
		for _, a := range arbs {
			res := results[k]
			k++
			p50 := res.Latency.Quantile(0.5)
			p99 := res.Latency.Quantile(0.99)
			ratio := 0.0
			if p50 > 0 {
				ratio = float64(p99) / float64(p50)
			}
			t.AddRow(a.name, ns(p50), ns(res.Latency.Quantile(0.95)), ns(p99),
				ns(res.Latency.Max()), f2(ratio))
		}
		t.AddNote("FIFO's round-robin makes contended latency nearly deterministic (p99/p50 ~ 1)")
		tables = append(tables, t)
	}
	return tables, nil
}
