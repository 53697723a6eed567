package harness

import (
	"atomicsmodel/internal/apps"
	"atomicsmodel/internal/atomics"
	"atomicsmodel/internal/coherence"
	"atomicsmodel/internal/core"
	"atomicsmodel/internal/faults"
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/sim"
	"atomicsmodel/internal/workload"
)

func init() {
	// F13's policies are all stateless, so the spec seed only feeds the
	// workload's own streams.
	f13Arbs := []arbiter{{"fifo", "fifo", 0}, {"locality", "locality", 0}, {"loc-skip16", "locality", 16}, {"loc-skip256", "locality", 256}}
	f13Cols := []string{"threads"}
	for _, a := range f13Arbs {
		f13Cols = append(f13Cols, a.name+" Mops", a.name+" Jain")
	}
	Register(&Experiment{
		ID:    "F13",
		Title: "Arbitration ablation: throughput vs fairness trade-off",
		Claim: "locality-biased arbitration shortens transfers (higher throughput) at the price of starvation; a skip bound recovers fairness",
		Run: figure[workload.Spec, *workload.Result, int]{
			kind:  workloadKind,
			title: "F13 (%s): FAA under different line arbitration policies",
			cols:  columns(append(f13Cols, "locality model Mops", "locality model Jain")...),
			rows: func(o Options, m *machine.Machine) []int {
				return fitting(m, pick(o, []int{8, 16, 24, 36}, []int{8, 16}))
			},
			cells: func(o Options, _ *machine.Machine, n int) []workload.Spec {
				var out []workload.Spec
				for _, a := range f13Arbs {
					out = append(out, a.faa(workloadKind.at(o, n)))
				}
				return out
			},
			row: func(t *Table, m *machine.Machine, n int, res wlResults) error {
				row := []string{itoa(n)}
				for _, r := range res {
					row = append(row, f2(r.ThroughputMops), f3(r.Jain))
				}
				cores, err := machine.PlaceCores(m, nil, n)
				if err != nil {
					return err
				}
				pred := core.NewDetailed(m).PredictHighArb(atomics.FAA, cores, 0, core.ArbLocality)
				t.AddRow(append(row, f2(pred.ThroughputMops), f3(pred.Jain))...)
				return nil
			},
			note: fixedNote("locality grants the nearest requester: shorter transfers, starved far cores; the model predicts the resulting monopoly"),
		}.run,
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
		Run: func(o Options) ([]*Table, error) {
			var base float64 // the 1-stripe write-only rate, each table's first row
			return figure[apps.Spec, *apps.RunResult, int]{
				kind:  appKind,
				title: "F15 (%s): striped counter, 16 writers",
				cols:  columns("stripes", "increments (Mops)", "speedup vs 1", "with 5% reads (Mops)"),
				fits:  fitsThreads(16),
				rows: func(o Options, _ *machine.Machine) []int {
					return pick(o, []int{1, 2, 4, 8, 16, 32}, []int{1, 4, 16})
				},
				cells: func(o Options, _ *machine.Machine, stripes int) []apps.Spec {
					var out []apps.Spec
					for _, reads := range []float64{0, 0.05} {
						sp := appKind.fixed(o, 16)
						sp.Structure = "counter-striped"
						sp.Stripes, sp.ReadFraction = stripes, reads
						out = append(out, sp)
					}
					return out
				},
				row: func(t *Table, _ *machine.Machine, stripes int, res appResults) error {
					writeOnly, withReads := res[0], res[1]
					if stripes == 1 {
						base = writeOnly.ThroughputMops
					}
					t.AddRow(itoa(stripes), f2(writeOnly.ThroughputMops),
						f2(writeOnly.ThroughputMops/base), f2(withReads.ThroughputMops))
					return nil
				},
				note: fixedNote("16 stripes for 16 writers = private lines = the low-contention setting"),
			}.run(o)
		},
	})
}

func runF14(o Options) ([]*Table, error) {
	machines := o.machines()

	// F14 stays code on specCells, not a figure: one of its tables
	// mixes two cell kinds, and another has a row per machine.
	// The 16-thread mix rows (and the crossbar row) drop on machines too
	// small for them; the cold-read probe runs everywhere.
	const threads = 16
	type pair struct {
		base, mesif *machine.Machine
		fracs       []float64 // the mix rows the machine fits
	}
	pairs := make([]pair, len(machines))
	for i, base := range machines {
		pairs[i] = pair{base: base, mesif: cloneWithForwarding(base)}
		if threads <= base.NumHWThreads() {
			pairs[i].fracs = []float64{0.9, 0.99}
		}
	}

	// Cold read of a Shared line, one probe per protocol variant. The
	// MESIF clone's Name carries a "+F" suffix, so it keys distinctly.
	latCells := sharedReadKind.newCells()
	for _, p := range pairs {
		latCells.add(p.base, struct{}{})
		latCells.add(p.mesif, struct{}{})
	}
	lats, err := latCells.run(o)
	if err != nil {
		return nil, err
	}

	mixCells := workloadKind.prefixed("mix/").newCells()
	for _, p := range pairs {
		for _, rf := range p.fracs {
			for _, m := range []*machine.Machine{p.base, p.mesif} {
				sp := workloadKind.fixed(o, threads)
				sp.Primitive = atomics.FAA.String()
				sp.Mode = workload.ReadWriteMix.String()
				sp.ReadFraction = rf
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
		if m.NumHWThreads() < threads {
			continue
		}
		topoMachines = append(topoMachines, m)
	}
	topoCells := workloadKind.prefixed("topo/").newCells()
	for _, m := range topoMachines {
		sp := workloadKind.fixed(o, threads)
		sp.Primitive = atomics.FAA.String()
		topoCells.add(m, sp)
	}
	topoRes, err := topoCells.run(o)
	if err != nil {
		return nil, err
	}

	var tables []*Table
	for i, p := range pairs {
		t := NewTable("F14 ("+p.base.Name+"): protocol ablation (MESI vs MESIF forwarding)",
			"measurement", "MESI", "MESIF", "delta")
		a, b := lats[2*i], lats[2*i+1]
		t.AddRow("cold read of S line (ns)", ns(a), ns(b),
			pct((b.Nanoseconds()-a.Nanoseconds())/a.Nanoseconds()*100))
		for _, rf := range p.fracs {
			ra, rb := mixes[0], mixes[1]
			mixes = mixes[2:]
			delta := 0.0
			if ra.ThroughputMops > 0 {
				delta = (rb.ThroughputMops - ra.ThroughputMops) / ra.ThroughputMops * 100
			}
			t.AddRow(f2(rf*100)+"% reads x16 (Mops)", f2(ra.ThroughputMops), f2(rb.ThroughputMops), pct(delta))
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

// sharedReadKind runs F14's cold-read probe, keyed "sharedlat/M".
var sharedReadKind = specKind[struct{}, sim.Time]{
	key: func(m *machine.Machine, _ *struct{}) (string, error) { return "sharedlat/" + m.Key(), nil },
	run: func(o Options, ci int, m *machine.Machine, _ *struct{}) (sim.Time, error) {
		return sharedReadLatency(m, o.CheckOn(), o.CellFaults(ci))
	},
}

// sharedReadLatency stages a line Shared in two mid-machine caches and
// measures a cold read from an adjacent core: the access MESIF
// accelerates (the sharer sits next door; the home slice does not).
// check and fp audit and fault the probe (see workload.NewProbe).
func sharedReadLatency(m *machine.Machine, check bool, fp *faults.CellPlan) (sim.Time, error) {
	eng, mem, audit, err := workload.NewProbe(m, check, fp)
	if err != nil {
		return 0, err
	}
	// A line whose home is node 0, shared by two mid-socket cores, read
	// by their neighbour.
	line := mem.Handle(coherence.LineID(uint64(m.Topo.Nodes())))
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
	return out, audit()
}
