package harness

import (
	"fmt"

	"atomicsmodel/internal/atomics"
	"atomicsmodel/internal/core"
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/workload"
)

func init() {
	Register(&Experiment{
		ID:    "F11",
		Title: "Thread placement effect on contended atomics (compact vs scatter vs single-socket)",
		Claim: "the model's transfer costs are placement-dependent: cross-socket bouncing dominates on NUMA",
		Run:   runF11,
	})
	Register(&Experiment{
		ID:    "T1",
		Title: "Evaluated machine configurations",
		Claim: "the two state-of-the-art architectures under study",
		Run:   runT1,
	})
}

func runF11(o Options) ([]*Table, error) {
	placements := []machine.Placement{
		machine.Compact{}, machine.Scatter{}, machine.SingleSocket{Socket: 0}, machine.SMTFirst{},
	}
	sweep := []int{2, 4, 8, 16}
	if o.Quick {
		sweep = []int{2, 8}
	}
	var eligible []*machine.Machine
	for _, m := range o.machines() {
		if m.Sockets < 2 && m.ThreadsPerCore < 2 {
			continue // placement is immaterial
		}
		eligible = append(eligible, m)
	}
	// Only placements that can place n threads become cells; the others
	// render as "-". cell records each decision in assembly order: the
	// index of the (machine, n, placement) cell, or -1 for a "-".
	type spec struct {
		m     *machine.Machine
		n     int
		p     machine.Placement
		cores []int
	}
	var specs []spec
	var cell []int
	for _, m := range eligible {
		for _, n := range sweep {
			for _, p := range placements {
				cores, err := machine.PlaceCores(m, p, n)
				if err != nil {
					cell = append(cell, -1)
					continue
				}
				cell = append(cell, len(specs))
				specs = append(specs, spec{m, n, p, cores})
			}
		}
	}
	results, err := FanoutKeyed(o, specs, func(s spec) string {
		return fmt.Sprintf("%s/n=%d/%s", s.m.Key(), s.n, s.p.Name())
	}, func(ci int, s spec) (*workload.Result, error) {
		return workload.Run(workload.Config{
			Machine: s.m, Threads: s.n, Primitive: atomics.FAA,
			Mode: workload.HighContention, Placement: s.p,
			Warmup: o.warmup(), Duration: o.duration(), Seed: o.Seed + uint64(s.n),
			Metrics: o.MetricsOn(), Check: o.CheckOn(), Faults: o.CellFaults(ci),
		})
	})
	if err != nil {
		return nil, err
	}

	var tables []*Table
	k := 0
	for _, m := range eligible {
		md := core.NewDetailed(m)
		cols := []string{"threads"}
		for _, p := range placements {
			cols = append(cols, p.Name()+" (Mops)", p.Name()+" model")
		}
		t := NewTable("F11 ("+m.Name+"): FAA throughput by placement, high contention", cols...)
		for _, n := range sweep {
			row := []string{itoa(n)}
			for range placements {
				i := cell[k]
				k++
				if i < 0 {
					row = append(row, "-", "-")
					continue
				}
				pred := md.PredictHigh(atomics.FAA, specs[i].cores, 0)
				row = append(row, f2(results[i].ThroughputMops), f2(pred.ThroughputMops))
			}
			t.AddRow(row...)
		}
		t.AddNote("scatter forces cross-socket transfers on every handoff; smt-first shares L1s")
		tables = append(tables, t)
	}
	return tables, nil
}

func runT1(o Options) ([]*Table, error) {
	t := NewTable("T1: machine configurations",
		"machine", "sockets x cores x SMT", "freq (GHz)", "topology",
		"L1 (ns)", "LLC (ns)", "DRAM (ns)", "FAA exec (ns)", "cross-socket pen. (ns)")
	for _, m := range o.machines() {
		t.AddRow(m.Name,
			itoa(m.Sockets)+"x"+itoa(m.CoresPerSocket)+"x"+itoa(m.ThreadsPerCore),
			f1(m.FreqGHz), m.Topo.Name(),
			ns(m.Lat.L1Hit), ns(m.Lat.LLCHit), ns(m.Lat.DRAM),
			ns(m.Lat.ExecFAA), ns(m.Lat.CrossSocketPenalty))
	}
	t.AddNote("latency constants calibrated to publicly reported figures for these parts (see DESIGN.md)")
	return []*Table{t}, nil
}
