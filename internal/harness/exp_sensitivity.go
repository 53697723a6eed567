package harness

import (
	"atomicsmodel/internal/atomics"
	"atomicsmodel/internal/core"
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/sim"
)

func init() {
	Register(&Experiment{
		ID:    "T3",
		Title: "Model sensitivity: which machine constant moves contended throughput",
		Claim: "the model makes the cost structure inspectable: elasticities show contended atomics are a directory-and-wire story, not an execution story",
		Run:   runT3,
	})
}

// runT3 perturbs each latency constant by +10% and reports the
// resulting change in model-predicted contended throughput (elasticity
// = %ΔX / %Δparam) at 2 and 16 threads, plus the uncontended case.
func runT3(o Options) ([]*Table, error) {
	type knob struct {
		name string
		set  func(l *machine.Latencies, f float64)
	}
	knobs := []knob{
		{"L1Hit", func(l *machine.Latencies, f float64) { l.L1Hit = scale(l.L1Hit, f) }},
		{"DirLookup", func(l *machine.Latencies, f float64) { l.DirLookup = scale(l.DirLookup, f) }},
		{"HopLatency", func(l *machine.Latencies, f float64) { l.HopLatency = scale(l.HopLatency, f) }},
		{"CrossSocketPenalty", func(l *machine.Latencies, f float64) { l.CrossSocketPenalty = scale(l.CrossSocketPenalty, f) }},
		{"ExecFAA", func(l *machine.Latencies, f float64) { l.ExecFAA = scale(l.ExecFAA, f) }},
		{"LLCHit", func(l *machine.Latencies, f float64) { l.LLCHit = scale(l.LLCHit, f) }},
		{"DRAM", func(l *machine.Latencies, f float64) { l.DRAM = scale(l.DRAM, f) }},
	}
	threads := []int{1, 2, 16, 36}
	var tables []*Table
	for _, base := range o.machines() {
		t := NewTable("T3 ("+base.Name+"): elasticity of FAA throughput to +10% in each constant",
			"constant", "uncontended", "2 threads", "16 threads", "36 threads")
		// Every knob's row compares against the same unperturbed
		// predictions. A thread count that fits cannot fail to predict.
		baseX := make([]core.Prediction, len(threads))
		for i, n := range threads {
			if n <= base.NumCores() {
				baseX[i], _ = predictHigh(base, atomics.FAA, n, 0)
			}
		}
		for _, k := range knobs {
			row := []string{k.name}
			for i, n := range threads {
				if n > base.NumCores() {
					row = append(row, "-")
					continue
				}
				pert := *base
				k.set(&pert.Lat, 1.10)
				pertX, _ := predictHigh(&pert, atomics.FAA, n, 0)
				x := baseX[i].ThroughputMops
				elasticity := (pertX.ThroughputMops - x) / x / 0.10 * 100
				row = append(row, pct(elasticity))
			}
			t.AddRow(row...)
		}
		t.AddNote("cells: %%ΔX per %%Δparam (x100); -100%% means the constant fully prices the bottleneck")
		tables = append(tables, t)
	}
	return tables, nil
}

func scale(v sim.Time, f float64) sim.Time { return sim.Time(float64(v) * f) }
