package harness

import (
	"math"

	"atomicsmodel/internal/atomics"
	"atomicsmodel/internal/core"
	"atomicsmodel/internal/stats"
)

func init() {
	Register(&Experiment{
		ID:    "F7",
		Title: "Model validation: predicted vs simulated throughput and latency",
		Claim: "the cache-line bouncing model captures the behaviour of atomics accurately",
		Run:   runF7,
	})
	Register(&Experiment{
		ID:    "T2",
		Title: "Fitted model parameters per machine",
		Claim: "the model is very simple to use in practice: three measured constants",
		Run:   runT2,
	})
}

func runF7(o Options) ([]*Table, error) {
	prims := []atomics.Primitive{atomics.FAA, atomics.CAS, atomics.SWAP, atomics.TAS}
	machines := o.machines()
	cells := workloadKind.newCells()
	for _, m := range machines {
		for _, p := range prims {
			for _, n := range o.threadSweep(m) {
				sp := workloadKind.base(o)
				sp.Primitive = p.String()
				sp.Threads = n
				sp.Seed = o.Seed + uint64(n)
				cells.add(m, sp)
			}
		}
	}
	results, err := cells.run(o)
	if err != nil {
		return nil, err
	}

	var tables []*Table
	summary := NewTable("F7 summary: mean absolute percentage error of throughput predictions",
		"machine", "primitive", "detailed MAPE", "simple MAPE")
	k := 0
	for _, m := range machines {
		det := core.NewDetailed(m)
		simp, _, err := core.Calibrate(m)
		if err != nil {
			return nil, err
		}
		t := NewTable("F7 ("+m.Name+"): model vs simulation, high contention",
			"primitive", "threads", "sim (Mops)", "detailed (Mops)", "err",
			"simple (Mops)", "err", "sim lat (ns)", "detailed lat (ns)")
		for _, p := range prims {
			var simX, detX, simpX []float64
			for _, n := range o.threadSweep(m) {
				res := results[k]
				k++
				cores, err := coresFor(m, nil, n)
				if err != nil {
					return nil, err
				}
				pd := det.PredictHigh(p, cores, 0)
				ps := simp.PredictHigh(p, cores, 0)
				simX = append(simX, res.ThroughputMops)
				detX = append(detX, pd.ThroughputMops)
				simpX = append(simpX, ps.ThroughputMops)
				t.AddRow(p.String(), itoa(n), f2(res.ThroughputMops),
					f2(pd.ThroughputMops), pct(relErr(pd.ThroughputMops, res.ThroughputMops)),
					f2(ps.ThroughputMops), pct(relErr(ps.ThroughputMops, res.ThroughputMops)),
					ns(res.Latency.Mean()), ns(pd.AttemptLatency))
			}
			summary.AddRow(m.Name, p.String(),
				pct(stats.MeanAbsPctError(detX, simX)), pct(stats.MeanAbsPctError(simpX, simX)))
		}
		tables = append(tables, t)
	}
	tables = append(tables, summary)
	return tables, nil
}

func relErr(pred, meas float64) float64 {
	if meas == 0 {
		return 0
	}
	return math.Abs(pred-meas) / meas * 100
}

func runT2(o Options) ([]*Table, error) {
	t := NewTable("T2: calibrated simple-model constants (three probe runs per machine)",
		"machine", "t_local (ns)", "t_same (ns)", "t_cross (ns)",
		"derived service s(2) FAA (ns)", "derived s(16) FAA (ns)")
	for _, m := range o.machines() {
		md, cal, err := core.Calibrate(m)
		if err != nil {
			return nil, err
		}
		c2, err := coresFor(m, nil, min(2, m.NumCores()))
		if err != nil {
			return nil, err
		}
		n16 := 16
		if n16 > m.NumCores() {
			n16 = m.NumCores()
		}
		c16, err := coresFor(m, nil, n16)
		if err != nil {
			return nil, err
		}
		t.AddRow(m.Name, ns(cal.TLocal), ns(cal.TSame), ns(cal.TCross),
			ns(md.ServiceTime(atomics.FAA, c2)), ns(md.ServiceTime(atomics.FAA, c16)))
	}
	t.AddNote("t_local: FAA on an owned line; t_same/t_cross: FAA on a line dirty in a remote cache")
	return []*Table{t}, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
