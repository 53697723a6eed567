package harness

import (
	"math"

	"atomicsmodel/internal/atomics"
	"atomicsmodel/internal/core"
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/stats"
	"atomicsmodel/internal/workload"
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
	summary := NewTable("F7 summary: mean absolute percentage error of throughput predictions",
		"machine", "primitive", "detailed MAPE", "simple MAPE")
	// One row per primitive, its cells the machine's thread sweep; each
	// renders a table row per thread count and a summary row. The simple
	// model is calibrated once per machine, on its table's first row.
	var simp *core.Model
	tables, err := figure[workload.Spec, *workload.Result, atomics.Primitive]{
		kind:  workloadKind,
		title: "F7 (%s): model vs simulation, high contention",
		cols: columns("primitive", "threads", "sim (Mops)", "detailed (Mops)", "err",
			"simple (Mops)", "err", "sim lat (ns)", "detailed lat (ns)"),
		rows: func(Options, *machine.Machine) []atomics.Primitive { return prims },
		cells: func(o Options, m *machine.Machine, p atomics.Primitive) []workload.Spec {
			var out []workload.Spec
			for _, n := range o.threadSweep(m) {
				sp := workloadKind.at(o, n)
				sp.Primitive = p.String()
				out = append(out, sp)
			}
			return out
		},
		row: func(t *Table, m *machine.Machine, p atomics.Primitive, res wlResults) error {
			if p == prims[0] {
				var err error
				if simp, _, err = core.Calibrate(m); err != nil {
					return err
				}
			}
			det := core.NewDetailed(m)
			var simX, detX, simpX []float64
			for i, n := range o.threadSweep(m) {
				r := res[i]
				cores, err := machine.PlaceCores(m, nil, n)
				if err != nil {
					return err
				}
				pd := det.PredictHigh(p, cores, 0)
				ps := simp.PredictHigh(p, cores, 0)
				simX = append(simX, r.ThroughputMops)
				detX = append(detX, pd.ThroughputMops)
				simpX = append(simpX, ps.ThroughputMops)
				t.AddRow(p.String(), itoa(n), f2(r.ThroughputMops),
					f2(pd.ThroughputMops), pct(relErr(pd.ThroughputMops, r.ThroughputMops)),
					f2(ps.ThroughputMops), pct(relErr(ps.ThroughputMops, r.ThroughputMops)),
					ns(r.Latency.Mean()), ns(pd.AttemptLatency))
			}
			summary.AddRow(m.Name, p.String(),
				pct(stats.MeanAbsPctError(detX, simX)), pct(stats.MeanAbsPctError(simpX, simX)))
			return nil
		},
	}.run(o)
	if err != nil {
		return nil, err
	}
	return append(tables, summary), nil
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
		c2, err := machine.PlaceCores(m, nil, min(2, m.NumCores()))
		if err != nil {
			return nil, err
		}
		c16, err := machine.PlaceCores(m, nil, min(16, m.NumCores()))
		if err != nil {
			return nil, err
		}
		t.AddRow(m.Name, ns(cal.TLocal), ns(cal.TSame), ns(cal.TCross),
			ns(md.ServiceTime(atomics.FAA, c2)), ns(md.ServiceTime(atomics.FAA, c16)))
	}
	t.AddNote("t_local: FAA on an owned line; t_same/t_cross: FAA on a line dirty in a remote cache")
	return []*Table{t}, nil
}
