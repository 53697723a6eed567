package harness

import (
	"atomicsmodel/internal/atomics"
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/sim"
	"atomicsmodel/internal/workload"
)

func init() {
	Register(&Experiment{
		ID:    "F1",
		Title: "Low-contention latency of atomic primitives by initial cache-line state",
		Claim: "latency in the low-contention setting; atomics cost like plain accesses on owned lines and pay the transfer otherwise",
		Run:   runF1,
	})
	Register(&Experiment{
		ID:    "F2",
		Title: "High-contention per-operation latency vs thread count",
		Claim: "latency in the high-contention setting grows linearly with threads (serialized line ownership)",
		Run:   runF2,
	})
}

func runF1(o Options) ([]*Table, error) {
	machines := o.machines()
	statesFor := func(m *machine.Machine) []workload.LineState {
		var states []workload.LineState
		for _, st := range workload.AllLineStates() {
			if st == workload.StateRemoteOtherSocket && m.Sockets < 2 {
				continue
			}
			states = append(states, st)
		}
		return states
	}
	type spec struct {
		m  *machine.Machine
		p  atomics.Primitive
		st workload.LineState
	}
	var specs []spec
	for _, m := range machines {
		for _, p := range atomics.All() {
			for _, st := range statesFor(m) {
				specs = append(specs, spec{m, p, st})
			}
		}
	}
	lats, err := FanoutKeyed(o, specs, func(s spec) string {
		return s.m.Key() + "/" + s.p.String() + "/" + s.st.String()
	}, func(ci int, s spec) (sim.Time, error) {
		return workload.MeasureStateLatencyChecked(s.m, s.p, s.st, o.CheckOn())
	})
	if err != nil {
		return nil, err
	}

	var tables []*Table
	k := 0
	for _, m := range machines {
		states := statesFor(m)
		cols := []string{"primitive"}
		for _, st := range states {
			cols = append(cols, st.String()+" (ns)")
		}
		t := NewTable("F1 ("+m.Name+"): single-op latency by line state", cols...)
		for _, p := range atomics.All() {
			row := []string{p.String()}
			for range states {
				row = append(row, ns(lats[k]))
				k++
			}
			t.AddRow(row...)
		}
		t.AddNote("machine: %s", m.String())
		tables = append(tables, t)
	}
	return tables, nil
}

func runF2(o Options) ([]*Table, error) {
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
			cols = append(cols, p.String()+" (ns)")
		}
		t := NewTable("F2 ("+m.Name+"): mean per-op latency under high contention", cols...)
		for _, n := range o.threadSweep(m) {
			row := []string{itoa(n)}
			for range prims {
				row = append(row, ns(results[k].Latency.Mean()))
				k++
			}
			t.AddRow(row...)
		}
		t.AddNote("per-attempt latency; loads are near-flat (shared copies), RMWs serialize on the line")
		tables = append(tables, t)
	}
	return tables, nil
}
