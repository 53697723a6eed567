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
		Run: primitiveFigure("F2 (%s): mean per-op latency under high contention", " (ns)",
			func(r *workload.Result) string { return ns(r.Latency.Mean()) },
			"per-attempt latency; loads are near-flat (shared copies), RMWs serialize on the line").run,
	})
}

func runF1(o Options) ([]*Table, error) {
	machines := o.machines()
	type spec struct {
		m  *machine.Machine
		p  atomics.Primitive
		st workload.LineState
	}
	var specs []spec
	// states[i] lists the line states machine i has, decided once for
	// its cells and its table's columns.
	states := make([][]workload.LineState, len(machines))
	for i, m := range machines {
		for _, st := range workload.AllLineStates() {
			if st == workload.StateRemoteOtherSocket && m.Sockets < 2 {
				continue
			}
			states[i] = append(states[i], st)
		}
		for _, p := range atomics.All() {
			for _, st := range states[i] {
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
	for i, m := range machines {
		cols := []string{"primitive"}
		for _, st := range states[i] {
			cols = append(cols, st.String()+" (ns)")
		}
		t := NewTable("F1 ("+m.Name+"): single-op latency by line state", cols...)
		for _, p := range atomics.All() {
			row := []string{p.String()}
			for range states[i] {
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
