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
		Run: figure[stateProbe, sim.Time, atomics.Primitive]{
			kind:  stateProbeKind,
			title: "F1 (%s): single-op latency by line state",
			cols: func(m *machine.Machine) []string {
				cols := []string{"primitive"}
				for _, st := range lineStates(m) {
					cols = append(cols, st.String()+" (ns)")
				}
				return cols
			},
			rows: func(Options, *machine.Machine) []atomics.Primitive { return atomics.All() },
			cells: func(_ Options, m *machine.Machine, p atomics.Primitive) []stateProbe {
				var out []stateProbe
				for _, st := range lineStates(m) {
					out = append(out, stateProbe{p, st})
				}
				return out
			},
			row: func(t *Table, _ *machine.Machine, p atomics.Primitive, lats []sim.Time) error {
				row := []string{p.String()}
				for _, l := range lats {
					row = append(row, ns(l))
				}
				t.AddRow(row...)
				return nil
			},
			note: func(m *machine.Machine) string { return "machine: " + m.String() },
		}.run,
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

// stateProbe is one F1 cell: a single op of p on a line staged in
// state st.
type stateProbe struct {
	p  atomics.Primitive
	st workload.LineState
}

// stateProbeKind runs F1's single-op latency probes, keyed
// "M/CAS/M-local".
var stateProbeKind = specKind[stateProbe, sim.Time]{
	key: func(m *machine.Machine, s *stateProbe) (string, error) {
		return m.Key() + "/" + s.p.String() + "/" + s.st.String(), nil
	},
	run: func(o Options, ci int, m *machine.Machine, s *stateProbe) (sim.Time, error) {
		return workload.MeasureStateLatencyChecked(m, s.p, s.st, o.CheckOn(), o.CellFaults(ci))
	},
}

// lineStates lists the line states machine m can stage: a one-socket
// machine has no other socket to stage a line on.
func lineStates(m *machine.Machine) []workload.LineState {
	var out []workload.LineState
	for _, st := range workload.AllLineStates() {
		if st != workload.StateRemoteOtherSocket || m.Sockets >= 2 {
			out = append(out, st)
		}
	}
	return out
}
