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
		Run:   runF3,
	})
	Register(&Experiment{
		ID:    "F4",
		Title: "CAS success rate and retries vs thread count",
		Claim: "why CAS loses: failed attempts still pay a full line transfer",
		Run:   runF4,
	})
	Register(&Experiment{
		ID:    "F8",
		Title: "Throughput vs local work (contention crossover)",
		Claim: "local work moves the workload from the server-bound to the population-bound regime",
		Run:   runF8,
	})
	Register(&Experiment{
		ID:    "F12",
		Title: "Throughput vs read fraction on a shared line",
		Claim: "reads scale (shared copies); every added RMW share drags throughput to the bounce rate",
		Run:   runF12,
	})
}

func runF3(o Options) ([]*Table, error) {
	prims := atomics.All()
	machines := o.machines()
	cells := workloadKind.newCells()
	for _, m := range machines {
		for _, n := range o.threadSweep(m) {
			for _, p := range prims {
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
	k := 0
	for _, m := range machines {
		cols := []string{"threads"}
		for _, p := range prims {
			cols = append(cols, p.String()+" (Mops)")
		}
		t := NewTable("F3 ("+m.Name+"): successful-op throughput under high contention", cols...)
		for _, n := range o.threadSweep(m) {
			row := []string{itoa(n)}
			for range prims {
				row = append(row, f2(results[k].ThroughputMops))
				k++
			}
			t.AddRow(row...)
		}
		t.AddNote("CAS column counts successful swaps only; its attempts run at the FAA rate")
		tables = append(tables, t)
	}
	return tables, nil
}

func runF4(o Options) ([]*Table, error) {
	machines := o.machines()
	cells := workloadKind.newCells()
	for _, m := range machines {
		for _, n := range o.threadSweep(m) {
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
		t := NewTable("F4 ("+m.Name+"): CAS under high contention",
			"threads", "attempts (Mops)", "successes (Mops)", "success rate",
			"retries/success", "model rate (fifo)", "model rate (random)")
		for _, n := range o.threadSweep(m) {
			res := results[k]
			k++
			retries := 0.0
			if res.Ops > 0 {
				retries = float64(res.Failures) / float64(res.Ops)
			}
			t.AddRow(itoa(n),
				f2(stMops(res.Attempts, res)), f2(res.ThroughputMops),
				f3(res.SuccessRate()), f2(retries),
				f3(core.CASSuccessRateFIFO(n)), f3(core.CASSuccessRateRandom(n)))
		}
		t.AddNote("FIFO arbitration makes the last winner's expected value fresh: one success per round")
		tables = append(tables, t)
	}
	return tables, nil
}

func stMops(count uint64, res *workload.Result) float64 {
	return float64(count) / res.MeasuredFor.Seconds() / 1e6
}

func runF8(o Options) ([]*Table, error) {
	works := []sim.Time{0, 50 * sim.Nanosecond, 100 * sim.Nanosecond, 200 * sim.Nanosecond,
		400 * sim.Nanosecond, 800 * sim.Nanosecond, 1600 * sim.Nanosecond,
		3200 * sim.Nanosecond, 6400 * sim.Nanosecond}
	if o.Quick {
		works = []sim.Time{0, 200 * sim.Nanosecond, 1600 * sim.Nanosecond, 6400 * sim.Nanosecond}
	}
	const threads = 16
	var eligible []*machine.Machine
	for _, m := range o.machines() {
		if threads <= m.NumHWThreads() {
			eligible = append(eligible, m)
		}
	}
	cells := workloadKind.newCells()
	for _, m := range eligible {
		for _, w := range works {
			sp := workloadKind.base(o)
			sp.Primitive = atomics.FAA.String()
			sp.Threads = threads
			sp.LocalWorkPS = w
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
		md := core.NewDetailed(m)
		cores, err := coresFor(m, nil, threads)
		if err != nil {
			return nil, err
		}
		t := NewTable("F8 ("+m.Name+"): FAA throughput vs local work, 16 threads",
			"work (ns)", "sim (Mops)", "model (Mops)", "sim latency (ns)", "model latency (ns)")
		for _, w := range works {
			res := results[k]
			k++
			pred := md.PredictHigh(atomics.FAA, cores, w)
			t.AddRow(ns(w), f2(res.ThroughputMops), f2(pred.ThroughputMops),
				ns(res.Latency.Mean()), ns(pred.AttemptLatency))
		}
		t.AddNote("crossover where 16/(s+w) < 1/s: beyond it the line is no longer the bottleneck")
		tables = append(tables, t)
	}
	return tables, nil
}

func runF12(o Options) ([]*Table, error) {
	fracs := []float64{0, 0.5, 0.9, 0.99, 1.0}
	const threads = 16
	var eligible []*machine.Machine
	for _, m := range o.machines() {
		if threads <= m.NumHWThreads() {
			eligible = append(eligible, m)
		}
	}
	cells := workloadKind.newCells()
	for _, m := range eligible {
		for _, rf := range fracs {
			sp := workloadKind.base(o)
			sp.Primitive = atomics.FAA.String()
			sp.Mode = workload.ReadWriteMix.String()
			sp.ReadFraction = rf
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
		t := NewTable("F12 ("+m.Name+"): FAA/Load mix on one shared line, 16 threads",
			"read fraction", "throughput (Mops)", "local-hit rate", "remote transfers/op")
		for _, rf := range fracs {
			res := results[k]
			k++
			localRate, remotePerOp := 0.0, 0.0
			if res.Coh.Accesses > 0 {
				localRate = float64(res.Coh.LocalHits) / float64(res.Coh.Accesses)
			}
			if res.Ops > 0 {
				remotePerOp = float64(res.Coh.RemoteXfers) / float64(res.Ops)
			}
			t.AddRow(f2(rf), f2(res.ThroughputMops), f3(localRate), f3(remotePerOp))
		}
		t.AddNote("pure loads leave the line shared: all but the first access per epoch hit locally")
		tables = append(tables, t)
	}
	return tables, nil
}
