package harness

import (
	"atomicsmodel/internal/atomics"
	"atomicsmodel/internal/core"
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/sim"
)

func init() {
	Register(&Experiment{
		ID:    "F9",
		Title: "Design decision: FAA counter vs CAS-loop counter",
		Claim: "the model facilitates algorithmic design decisions: it predicts the FAA/CAS throughput gap",
		Run:   runF9,
	})
	Register(&Experiment{
		ID:    "F10",
		Title: "Design decision: TAS vs TTAS vs backoff vs ticket spinlocks",
		Claim: "lock design choices follow from how each primitive bounces the lock line",
		Run:   runF10,
	})
}

func runF9(o Options) ([]*Table, error) {
	machines := o.machines()
	// Two cells per row: the FAA counter and the CAS-loop counter.
	cells := appKind.newCells()
	for _, m := range machines {
		for _, n := range o.threadSweep(m) {
			for _, structure := range []string{"counter-faa", "counter-cas"} {
				sp := appKind.base(o)
				sp.Structure = structure
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
		md := core.NewDetailed(m)
		t := NewTable("F9 ("+m.Name+"): shared counter throughput (M increments/s)",
			"threads", "FAA counter", "CAS counter", "sim ratio", "model ratio")
		for _, n := range o.threadSweep(m) {
			faa, cas := results[k], results[k+1]
			k += 2
			cores, err := coresFor(m, nil, n)
			if err != nil {
				return nil, err
			}
			pf := md.PredictHigh(atomics.FAA, cores, 0)
			pc := md.PredictHigh(atomics.CAS, cores, 0)
			simRatio, modelRatio := 0.0, 0.0
			if cas.ThroughputMops > 0 {
				simRatio = faa.ThroughputMops / cas.ThroughputMops
			}
			if pc.ThroughputMops > 0 {
				modelRatio = pf.ThroughputMops / pc.ThroughputMops
			}
			t.AddRow(itoa(n), f2(faa.ThroughputMops), f2(cas.ThroughputMops),
				f2(simRatio), f2(modelRatio))
		}
		t.AddNote("model ratio ~ N: every CAS success pays N-1 failed-but-full-cost attempts")
		tables = append(tables, t)
	}
	return tables, nil
}

func runF10(o Options) ([]*Table, error) {
	crit := 50 * sim.Nanosecond
	variants := []struct {
		name      string
		structure string
	}{
		{"tas", "lock-tas"},
		{"ttas", "lock-ttas"},
		{"ttas-backoff", "lock-ttas-backoff"},
		{"ticket", "lock-ticket"},
		{"cohort", "lock-cohort"}, // multi-socket machines only
	}
	variantsFor := func(m *machine.Machine) []struct {
		name      string
		structure string
	} {
		if m.Sockets <= 1 {
			return variants[:4]
		}
		return variants
	}
	machines := o.machines()
	cells := appKind.newCells()
	for _, m := range machines {
		for _, n := range o.threadSweep(m) {
			if n < 2 {
				continue
			}
			for _, v := range variantsFor(m) {
				sp := appKind.base(o)
				sp.Structure = v.structure
				sp.Threads = n
				sp.CritPS = crit
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
		machineVariants := variantsFor(m)
		cols := []string{"threads"}
		for _, v := range machineVariants {
			cols = append(cols, v.name+" (Mops)", v.name+" Jain")
		}
		t := NewTable("F10 ("+m.Name+"): lock acquire-release cycles (50ns critical section)", cols...)
		for _, n := range o.threadSweep(m) {
			if n < 2 {
				continue
			}
			row := []string{itoa(n)}
			for range machineVariants {
				res := results[k]
				k++
				row = append(row, f2(res.ThroughputMops), f3(res.Jain))
			}
			t.AddRow(row...)
		}
		t.AddNote("ticket: FIFO-fair by construction; backoff: fewest bounces per handoff; cohort (NUMA machines): global lock crosses sockets once per cohort")
		tables = append(tables, t)
	}
	return tables, nil
}
