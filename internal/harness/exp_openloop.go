package harness

import (
	"atomicsmodel/internal/atomics"
	"atomicsmodel/internal/core"
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/sim"
	"atomicsmodel/internal/workload"
)

func init() {
	Register(&Experiment{
		ID:    "F19",
		Title: "Open-loop saturation: offered load vs achieved throughput and latency",
		Claim: "the line is a server with rate 1/s: offered load below it is absorbed at flat latency, above it the queue explodes exactly where the model says",
		Run: figure[workload.Spec, *workload.Result, load]{
			kind:  workloadKind,
			title: "F19 (%s): open-loop FAA, 16 arrival streams",
			cols:  columns("offered/saturation", "offered (Mops)", "achieved (Mops)", "mean latency (ns)", "p99 (ns)"),
			fits:  fitsThreads(16),
			rows: func(o Options, m *machine.Machine) []load {
				// fits guarantees the 16-thread placement, so the
				// prediction cannot fail.
				sat, _ := predictHigh(m, atomics.FAA, 16, 0)
				var out []load
				for _, f := range pick(o, []float64{0.25, 0.5, 0.75, 0.9, 1.1, 1.5}, []float64{0.5, 0.9, 1.5}) {
					out = append(out, load{f, sat})
				}
				return out
			},
			cells: func(o Options, _ *machine.Machine, l load) []workload.Spec {
				// Per-thread mean inter-arrival = threads / offered. The
				// spec carries it as exact integer picoseconds, so the
				// digest (and the cell's identity) is stable across runs.
				sp := workloadKind.fixed(o, 16)
				sp.Primitive = atomics.FAA.String()
				sp.OpenLoop = true
				sp.OpenLoopInterarrivalPS = sim.Time(16 / (l.frac * l.sat.ThroughputMops * 1e6) * 1e12)
				return []workload.Spec{sp}
			},
			row: func(t *Table, _ *machine.Machine, l load, res wlResults) error {
				t.AddRow(f2(l.frac), f2(l.frac*l.sat.ThroughputMops), f2(res[0].ThroughputMops),
					ns(res[0].Latency.Mean()), ns(res[0].Latency.Quantile(0.99)))
				if len(t.Notes) == 0 {
					t.AddNote("model saturation: %.2f Mops (service time %v)", l.sat.ThroughputMops, l.sat.ServiceTime)
				}
				return nil
			},
		}.run,
	})
}

// load is one F19 row: offered load as a fraction of the model's
// saturation point on the row's machine.
type load struct {
	frac float64
	sat  core.Prediction
}
