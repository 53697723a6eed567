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
		Run: figure[workload.Spec, *workload.Result, placedRow]{
			// F11's FAA cells are keyed by placement, "M/n=8/compact",
			// not by spec digest, so existing run directories and the
			// pinned cell keys stay valid.
			kind: specKind[workload.Spec, *workload.Result]{
				key: func(m *machine.Machine, s *workload.Spec) (string, error) {
					return fmt.Sprintf("%s/n=%d/%s", m.Key(), s.Threads, s.Placement), nil
				},
				run: workloadKind.run,
			},
			title: "F11 (%s): FAA throughput by placement, high contention",
			cols:  columns(f11Cols...),
			// placement is immaterial on one socket without SMT
			fits: func(m *machine.Machine) bool { return m.Sockets >= 2 || m.ThreadsPerCore >= 2 },
			rows: func(o Options, m *machine.Machine) []placedRow {
				var rows []placedRow
				for _, n := range pick(o, []int{2, 4, 8, 16}, []int{2, 8}) {
					r := placedRow{n: n}
					for _, p := range f11Placements {
						cores, _ := machine.PlaceCores(m, p, n) // nil: cannot place n
						r.cores = append(r.cores, cores)
					}
					rows = append(rows, r)
				}
				return rows
			},
			cells: func(o Options, _ *machine.Machine, r placedRow) []workload.Spec {
				var out []workload.Spec
				for i, p := range f11Placements {
					if r.cores[i] != nil {
						sp := workloadKind.at(o, r.n)
						sp.Primitive, sp.Placement = atomics.FAA.String(), p.Name()
						out = append(out, sp)
					}
				}
				return out
			},
			row: func(t *Table, m *machine.Machine, r placedRow, res wlResults) error {
				md := core.NewDetailed(m)
				row := []string{itoa(r.n)}
				for _, cores := range r.cores {
					if cores == nil {
						row = append(row, "-", "-")
						continue
					}
					pred := md.PredictHigh(atomics.FAA, cores, 0)
					row = append(row, f2(res[0].ThroughputMops), f2(pred.ThroughputMops))
					res = res[1:]
				}
				t.AddRow(row...)
				return nil
			},
			note: fixedNote("scatter forces cross-socket transfers on every handoff; smt-first shares L1s"),
		}.run,
	})
	Register(&Experiment{
		ID:    "T1",
		Title: "Evaluated machine configurations",
		Claim: "the two state-of-the-art architectures under study",
		Run:   runT1,
	})
}

// f11Placements are F11's placements, in column order.
var f11Placements = []machine.Placement{
	machine.Compact{}, machine.Scatter{}, machine.SingleSocket{Socket: 0}, machine.SMTFirst{},
}

var f11Cols = func() []string {
	cols := []string{"threads"}
	for _, p := range f11Placements {
		cols = append(cols, p.Name()+" (Mops)", p.Name()+" model")
	}
	return cols
}()

// placedRow is one F11 row: a thread count and, per placement, the
// cores it places them on, or nil where it cannot place them (the row
// renders "-" there, and no cell is built).
type placedRow struct {
	n     int
	cores [][]int
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
