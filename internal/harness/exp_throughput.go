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
		ID:    "F3",
		Title: "High-contention throughput vs thread count",
		Claim: "throughput in the high-contention setting: FAA/SWAP/TAS saturate; CAS decays with retries",
		Run: primitiveFigure("F3 (%s): successful-op throughput under high contention", " (Mops)",
			func(r *workload.Result) string { return f2(r.ThroughputMops) },
			"CAS column counts successful swaps only; its attempts run at the FAA rate").run,
	})
	Register(&Experiment{
		ID:    "F4",
		Title: "CAS success rate and retries vs thread count",
		Claim: "why CAS loses: failed attempts still pay a full line transfer",
		Run: figure[workload.Spec, *workload.Result, int]{
			kind:  workloadKind,
			title: "F4 (%s): CAS under high contention",
			cols: columns("threads", "attempts (Mops)", "successes (Mops)", "success rate",
				"retries/success", "model rate (fifo)", "model rate (random)"),
			rows: Options.threadSweep,
			cells: func(o Options, _ *machine.Machine, n int) []workload.Spec {
				sp := workloadKind.at(o, n)
				sp.Primitive = atomics.CAS.String()
				return []workload.Spec{sp}
			},
			row: func(t *Table, _ *machine.Machine, n int, res wlResults) error {
				r := res[0]
				retries := 0.0
				if r.Ops > 0 {
					retries = float64(r.Failures) / float64(r.Ops)
				}
				t.AddRow(itoa(n),
					f2(float64(r.Attempts)/r.MeasuredFor.Seconds()/1e6), f2(r.ThroughputMops),
					f3(r.SuccessRate()), f2(retries),
					f3(core.CASSuccessRateFIFO(n)), f3(core.CASSuccessRateRandom(n)))
				return nil
			},
			note: "FIFO arbitration makes the last winner's expected value fresh: one success per round",
		}.run,
	})
	Register(&Experiment{
		ID:    "F8",
		Title: "Throughput vs local work (contention crossover)",
		Claim: "local work moves the workload from the server-bound to the population-bound regime",
		Run: figure[workload.Spec, *workload.Result, sim.Time]{
			kind:  workloadKind,
			title: "F8 (%s): FAA throughput vs local work, 16 threads",
			cols:  columns("work (ns)", "sim (Mops)", "model (Mops)", "sim latency (ns)", "model latency (ns)"),
			fits:  fitsThreads(16),
			rows: func(o Options, _ *machine.Machine) []sim.Time {
				const nsec = sim.Nanosecond
				return pick(o, []sim.Time{0, 50 * nsec, 100 * nsec, 200 * nsec, 400 * nsec, 800 * nsec, 1600 * nsec, 3200 * nsec, 6400 * nsec},
					[]sim.Time{0, 200 * nsec, 1600 * nsec, 6400 * nsec})
			},
			cells: func(o Options, _ *machine.Machine, w sim.Time) []workload.Spec {
				sp := workloadKind.fixed(o, 16)
				sp.Primitive = atomics.FAA.String()
				sp.LocalWorkPS = w
				return []workload.Spec{sp}
			},
			row: func(t *Table, m *machine.Machine, w sim.Time, res wlResults) error {
				pred, err := predictHigh(m, atomics.FAA, 16, w)
				if err != nil {
					return err
				}
				t.AddRow(ns(w), f2(res[0].ThroughputMops), f2(pred.ThroughputMops),
					ns(res[0].Latency.Mean()), ns(pred.AttemptLatency))
				return nil
			},
			note: "crossover where 16/(s+w) < 1/s: beyond it the line is no longer the bottleneck",
		}.run,
	})
	Register(&Experiment{
		ID:    "F12",
		Title: "Throughput vs read fraction on a shared line",
		Claim: "reads scale (shared copies); every added RMW share drags throughput to the bounce rate",
		Run: figure[workload.Spec, *workload.Result, float64]{
			kind:  workloadKind,
			title: "F12 (%s): FAA/Load mix on one shared line, 16 threads",
			cols:  columns("read fraction", "throughput (Mops)", "local-hit rate", "remote transfers/op"),
			fits:  fitsThreads(16),
			rows: func(Options, *machine.Machine) []float64 {
				return []float64{0, 0.5, 0.9, 0.99, 1.0}
			},
			cells: func(o Options, _ *machine.Machine, rf float64) []workload.Spec {
				sp := workloadKind.fixed(o, 16)
				sp.Primitive = atomics.FAA.String()
				sp.Mode = workload.ReadWriteMix.String()
				sp.ReadFraction = rf
				return []workload.Spec{sp}
			},
			row: func(t *Table, _ *machine.Machine, rf float64, res wlResults) error {
				r := res[0]
				localRate, remotePerOp := 0.0, 0.0
				if r.Coh.Accesses > 0 {
					localRate = float64(r.Coh.LocalHits) / float64(r.Coh.Accesses)
				}
				if r.Ops > 0 {
					remotePerOp = float64(r.Coh.RemoteXfers) / float64(r.Ops)
				}
				t.AddRow(f2(rf), f2(r.ThroughputMops), f3(localRate), f3(remotePerOp))
				return nil
			},
			note: "pure loads leave the line shared: all but the first access per epoch hit locally",
		}.run,
	})
}

// primitiveFigure is the grid F2 and F3 share: every primitive at every
// thread count of the machine's sweep, one column per primitive.
func primitiveFigure(title, unit string, cell func(*workload.Result) string, note string) figure[workload.Spec, *workload.Result, int] {
	prims := atomics.All()
	cols := []string{"threads"}
	for _, p := range prims {
		cols = append(cols, p.String()+unit)
	}
	return figure[workload.Spec, *workload.Result, int]{
		kind:  workloadKind,
		title: title,
		cols:  columns(cols...),
		rows:  Options.threadSweep,
		cells: func(o Options, _ *machine.Machine, n int) []workload.Spec {
			var out []workload.Spec
			for _, p := range prims {
				sp := workloadKind.at(o, n)
				sp.Primitive = p.String()
				out = append(out, sp)
			}
			return out
		},
		row: func(t *Table, _ *machine.Machine, n int, res wlResults) error {
			row := []string{itoa(n)}
			for _, r := range res {
				row = append(row, cell(r))
			}
			t.AddRow(row...)
			return nil
		},
		note: note,
	}
}
