package harness

import (
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/workload"
)

func init() {
	Register(&Experiment{
		ID:    "F21",
		Title: "Latency distribution under contention: arbitration decides the tail",
		Claim: "mean latency hides the story: FIFO serves everyone at ~N*s with no tail, random arbitration stretches p99, locality starves the losers outright",
		Run: figure[workload.Spec, *workload.Result, arbiter]{
			kind:  workloadKind,
			title: "F21 (%s): FAA attempt-latency distribution, 16 threads",
			cols:  columns("arbitration", "p50 (ns)", "p95 (ns)", "p99 (ns)", "max (ns)", "p99/p50"),
			fits:  fitsThreads(16),
			rows: func(Options, *machine.Machine) []arbiter {
				return []arbiter{{"fifo", "fifo", 0}, {"random", "random", 0}, {"loc-skip64", "locality", 64}}
			},
			cells: func(o Options, _ *machine.Machine, a arbiter) []workload.Spec {
				return []workload.Spec{a.faa(workloadKind.fixed(o, 16))}
			},
			row: func(t *Table, _ *machine.Machine, a arbiter, res wlResults) error {
				lat := res[0].Latency
				p50, p99 := lat.Quantile(0.5), lat.Quantile(0.99)
				ratio := 0.0
				if p50 > 0 {
					ratio = float64(p99) / float64(p50)
				}
				t.AddRow(a.name, ns(p50), ns(lat.Quantile(0.95)), ns(p99), ns(lat.Max()), f2(ratio))
				return nil
			},
			note: "FIFO's round-robin makes contended latency nearly deterministic (p99/p50 ~ 1)",
		}.run,
	})
}
