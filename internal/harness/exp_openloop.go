package harness

import (
	"atomicsmodel/internal/atomics"
	"atomicsmodel/internal/core"
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/sim"
)

func init() {
	Register(&Experiment{
		ID:    "F19",
		Title: "Open-loop saturation: offered load vs achieved throughput and latency",
		Claim: "the line is a server with rate 1/s: offered load below it is absorbed at flat latency, above it the queue explodes exactly where the model says",
		Run:   runF19,
	})
}

func runF19(o Options) ([]*Table, error) {
	const threads = 16
	// Offered load as a fraction of the model's predicted saturation
	// throughput.
	fractions := []float64{0.25, 0.5, 0.75, 0.9, 1.1, 1.5}
	if o.Quick {
		fractions = []float64{0.5, 0.9, 1.5}
	}
	var eligible []*machine.Machine
	for _, m := range o.machines() {
		if threads <= m.NumHWThreads() {
			eligible = append(eligible, m)
		}
	}
	saturation := func(m *machine.Machine) (core.Prediction, error) {
		cores, err := coresFor(m, nil, threads)
		if err != nil {
			return core.Prediction{}, err
		}
		return core.NewDetailed(m).PredictHigh(atomics.FAA, cores, 0), nil
	}
	cells := workloadKind.newCells()
	for _, m := range eligible {
		sat, err := saturation(m)
		if err != nil {
			return nil, err
		}
		for _, f := range fractions {
			offered := f * sat.ThroughputMops // total Mops
			// Per-thread mean inter-arrival = threads / offered. The spec
			// carries it as exact integer picoseconds, so the digest (and
			// the cell's identity) is stable across runs.
			inter := sim.Time(float64(threads) / (offered * 1e6) * 1e12)
			sp := workloadKind.base(o)
			sp.Primitive = atomics.FAA.String()
			sp.Threads = threads
			sp.OpenLoop = true
			sp.OpenLoopInterarrivalPS = inter
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
		sat, err := saturation(m)
		if err != nil {
			return nil, err
		}
		t := NewTable("F19 ("+m.Name+"): open-loop FAA, 16 arrival streams",
			"offered/saturation", "offered (Mops)", "achieved (Mops)", "mean latency (ns)", "p99 (ns)")
		for _, f := range fractions {
			res := results[k]
			k++
			offered := f * sat.ThroughputMops
			t.AddRow(f2(f), f2(offered), f2(res.ThroughputMops),
				ns(res.Latency.Mean()), ns(res.Latency.Quantile(0.99)))
		}
		t.AddNote("model saturation: %.2f Mops (service time %v)", sat.ThroughputMops, sat.ServiceTime)
		tables = append(tables, t)
	}
	return tables, nil
}
