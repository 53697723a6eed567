package harness

import (
	"atomicsmodel/internal/atomics"
	"atomicsmodel/internal/coherence"
	"atomicsmodel/internal/core"
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/sim"
	"atomicsmodel/internal/workload"
)

func init() {
	Register(&Experiment{
		ID:    "F13",
		Title: "Arbitration ablation: throughput vs fairness trade-off",
		Claim: "locality-biased arbitration shortens transfers (higher throughput) at the price of starvation; a skip bound recovers fairness",
		Run:   runF13,
	})
	Register(&Experiment{
		ID:    "F14",
		Title: "Protocol and topology ablation: MESIF forwarding and ideal crossbar",
		Claim: "the model decomposes contention cost into protocol serialization and topology distance; ablations isolate each term",
		Run:   runF14,
	})
	Register(&Experiment{
		ID:    "F15",
		Title: "Contention spreading: striped counters vs one hot line",
		Claim: "the model's remedy for a hot line is to split it; striping converts the high-contention setting into the low-contention one",
		Run:   runF15,
	})
}

func runF13(o Options) ([]*Table, error) {
	// All four policies are stateless (fifo and the locality variants),
	// so the spec seed only feeds the workload's own streams, exactly as
	// before the spec port.
	arbs := []struct {
		name  string // display name
		arb   string // spec policy name
		skips int
	}{
		{"fifo", "fifo", 0},
		{"locality", "locality", 0},
		{"loc-skip16", "locality", 16},
		{"loc-skip256", "locality", 256},
	}
	sweep := []int{8, 16, 24, 36}
	if o.Quick {
		sweep = []int{8, 16}
	}
	machines := o.machines()
	cells := workloadKind.newCells()
	for _, m := range machines {
		for _, n := range sweep {
			if n > m.NumHWThreads() {
				continue
			}
			for _, a := range arbs {
				sp := workloadKind.base(o)
				sp.Primitive = atomics.FAA.String()
				sp.Arbiter = a.arb
				sp.ArbiterSkips = a.skips
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
		cols := []string{"threads"}
		for _, a := range arbs {
			cols = append(cols, a.name+" Mops", a.name+" Jain")
		}
		cols = append(cols, "locality model Mops", "locality model Jain")
		t := NewTable("F13 ("+m.Name+"): FAA under different line arbitration policies", cols...)
		for _, n := range sweep {
			if n > m.NumHWThreads() {
				continue
			}
			row := []string{itoa(n)}
			for range arbs {
				res := results[k]
				k++
				row = append(row, f2(res.ThroughputMops), f3(res.Jain))
			}
			cores, err := coresFor(m, nil, n)
			if err != nil {
				return nil, err
			}
			pred := md.PredictHighArb(atomics.FAA, cores, 0, core.ArbLocality)
			row = append(row, f2(pred.ThroughputMops), f3(pred.Jain))
			t.AddRow(row...)
		}
		t.AddNote("locality grants the nearest requester: shorter transfers, starved far cores; the model predicts the resulting monopoly")
		tables = append(tables, t)
	}
	return tables, nil
}

func runF14(o Options) ([]*Table, error) {
	machines := o.machines()
	fracs := []float64{0.9, 0.99}

	// This runner mixes cell shapes (latency probes, mix runs, the
	// crossbar table), so it issues three keyed fan-outs: every cell gets
	// a stable config key and participates in the manifest/resume cache.
	type pair struct{ base, mesif *machine.Machine }
	pairs := make([]pair, len(machines))
	for i, base := range machines {
		pairs[i] = pair{base, cloneWithForwarding(base)}
	}

	// Cold read of a Shared line, one probe per protocol variant. The
	// MESIF clone's Name carries a "+F" suffix, so it keys distinctly.
	var latMachines []*machine.Machine
	for _, p := range pairs {
		latMachines = append(latMachines, p.base, p.mesif)
	}
	lats, err := FanoutKeyed(o, latMachines, func(m *machine.Machine) string {
		return "sharedlat/" + m.Key()
	}, func(_ int, m *machine.Machine) (sim.Time, error) {
		return sharedReadLatency(m)
	})
	if err != nil {
		return nil, err
	}

	mixCells := workloadKind.newCells()
	mixCells.keyPrefix = "mix/"
	for _, p := range pairs {
		for _, rf := range fracs {
			for _, m := range []*machine.Machine{p.base, p.mesif} {
				sp := workloadKind.base(o)
				sp.Primitive = atomics.FAA.String()
				sp.Mode = workload.ReadWriteMix.String()
				sp.ReadFraction = rf
				sp.Threads = 16
				sp.Seed = o.Seed
				mixCells.add(m, sp)
			}
		}
	}
	mixes, err := mixCells.run(o)
	if err != nil {
		return nil, err
	}

	// Topology ablation: same core count and latencies on an ideal
	// 1-hop crossbar, isolating distance effects from serialization.
	ideal := machine.Ideal(16)
	var topoMachines []*machine.Machine
	for _, m := range append(append([]*machine.Machine{}, machines...), ideal) {
		if m.NumHWThreads() < 16 {
			continue
		}
		topoMachines = append(topoMachines, m)
	}
	topoCells := workloadKind.newCells()
	topoCells.keyPrefix = "topo/"
	for _, m := range topoMachines {
		sp := workloadKind.base(o)
		sp.Primitive = atomics.FAA.String()
		sp.Threads = 16
		sp.Seed = o.Seed
		topoCells.add(m, sp)
	}
	topoRes, err := topoCells.run(o)
	if err != nil {
		return nil, err
	}

	var tables []*Table
	for i, base := range machines {
		t := NewTable("F14 ("+base.Name+"): protocol ablation (MESI vs MESIF forwarding)",
			"measurement", "MESI", "MESIF", "delta")
		a, b := lats[2*i], lats[2*i+1]
		t.AddRow("cold read of S line (ns)", ns(a), ns(b),
			pct((b.Nanoseconds()-a.Nanoseconds())/a.Nanoseconds()*100))
		for fi, rf := range fracs {
			ra, rb := mixes[(i*len(fracs)+fi)*2], mixes[(i*len(fracs)+fi)*2+1]
			delta := 0.0
			if ra.ThroughputMops > 0 {
				delta = (rb.ThroughputMops - ra.ThroughputMops) / ra.ThroughputMops * 100
			}
			t.AddRow(fmtReadMix(rf)+" x16 (Mops)", f2(ra.ThroughputMops), f2(rb.ThroughputMops), pct(delta))
		}
		t.AddNote("forwarding shortens cold reads of Shared lines; RMW-heavy mixes purge sharers before forwarding can help")
		tables = append(tables, t)
	}

	t := NewTable("F14 (topology): 16-thread FAA, real topology vs ideal crossbar",
		"machine", "high contention (Mops)", "mean latency (ns)")
	for i, m := range topoMachines {
		t.AddRow(m.Name, f2(topoRes[i].ThroughputMops), ns(topoRes[i].Latency.Mean()))
	}
	t.AddNote("what remains on the crossbar is pure protocol serialization (the model's s term)")
	tables = append(tables, t)
	return tables, nil
}

// cloneWithForwarding copies a machine description and enables MESIF.
func cloneWithForwarding(m *machine.Machine) *machine.Machine {
	c := *m
	c.Name = m.Name + "+F"
	c.ForwardSharer = true
	return &c
}

func fmtReadMix(rf float64) string {
	return f2(rf*100) + "% reads"
}

// sharedReadLatency stages a line Shared in two mid-machine caches and
// measures a cold read from an adjacent core: the access MESIF
// accelerates (the sharer sits next door; the home slice does not).
func sharedReadLatency(m *machine.Machine) (sim.Time, error) {
	eng := sim.NewEngine()
	mem, err := atomics.NewMemory(eng, m, nil)
	if err != nil {
		return 0, err
	}
	// A line whose home is node 0, shared by two mid-socket cores, read
	// by their neighbour.
	line := coherence.LineID(uint64(m.Topo.Nodes()))
	sharerA := m.CoresPerSocket / 2
	sharerB := sharerA + 1
	reader := sharerA + 2
	var out sim.Time
	step := func(f func(done func())) {
		f(func() {})
		eng.Drain()
	}
	step(func(done func()) { mem.StoreOp(sharerA, line, 1, func(atomics.Result) { done() }) })
	step(func(done func()) { mem.LoadOp(sharerB, line, func(atomics.Result) { done() }) })
	mem.LoadOp(reader, line, func(r atomics.Result) { out = r.Latency })
	eng.Drain()
	return out, nil
}

func runF15(o Options) ([]*Table, error) {
	stripeCounts := []int{1, 2, 4, 8, 16, 32}
	if o.Quick {
		stripeCounts = []int{1, 4, 16}
	}
	const threads = 16
	var eligible []*machine.Machine
	for _, m := range o.machines() {
		if threads <= m.NumHWThreads() {
			eligible = append(eligible, m)
		}
	}
	cells := appKind.newCells()
	for _, m := range eligible {
		for _, sc := range stripeCounts {
			for _, reads := range []float64{0, 0.05} {
				sp := appKind.base(o)
				sp.Structure = "counter-striped"
				sp.Threads = threads
				sp.Stripes = sc
				sp.ReadFraction = reads
				sp.Seed = o.Seed
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
	for _, m := range eligible {
		t := NewTable("F15 ("+m.Name+"): striped counter, 16 writers",
			"stripes", "increments (Mops)", "speedup vs 1", "with 5% reads (Mops)")
		var base float64
		for _, sc := range stripeCounts {
			writeOnly, withReads := results[k], results[k+1]
			k += 2
			if sc == 1 {
				base = writeOnly.ThroughputMops
			}
			t.AddRow(itoa(sc), f2(writeOnly.ThroughputMops),
				f2(writeOnly.ThroughputMops/base), f2(withReads.ThroughputMops))
		}
		t.AddNote("16 stripes for 16 writers = private lines = the low-contention setting")
		tables = append(tables, t)
	}
	return tables, nil
}
