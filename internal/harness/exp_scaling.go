package harness

import (
	"atomicsmodel/internal/atomics"
	"atomicsmodel/internal/core"
	"atomicsmodel/internal/machine"
)

func init() {
	Register(&Experiment{
		ID:    "F17",
		Title: "Socket-count extrapolation: contended FAA on 1, 2 and 4 Xeon-class sockets",
		Claim: "the calibrated model extrapolates beyond the measured machines: more sockets mean more cross-socket handoffs, not more throughput",
		Run:   runF17,
	})
}

func runF17(o Options) ([]*Table, error) {
	socketCounts := []int{1, 2, 4}
	threadRows := []int{8, 16, 32, 64}
	if o.Quick {
		threadRows = []int{8, 32}
	}
	cols := []string{"threads"}
	for _, s := range socketCounts {
		cols = append(cols, itoa(s)+"S sim (Mops)", itoa(s)+"S model", itoa(s)+"S xsock")
	}
	// Scatter placement spreads contenders across every socket: the
	// worst case the extrapolation warns about. The machine key inside
	// each cell key distinguishes the socket counts (Xeon1S/2S/4S build
	// from distinct specs).
	cells := workloadKind.newCells()
	for _, n := range threadRows {
		for _, s := range socketCounts {
			m := machine.XeonMultiSocket(s)
			if n > m.NumHWThreads() {
				continue
			}
			sp := workloadKind.base(o)
			sp.Primitive = atomics.FAA.String()
			sp.Placement = "scatter"
			sp.Threads = n
			sp.Seed = o.Seed + uint64(n)
			cells.add(m, sp)
		}
	}
	results, err := cells.run(o)
	if err != nil {
		return nil, err
	}

	t := NewTable("F17: FAA high contention, scatter placement across socket counts", cols...)
	k := 0
	for _, n := range threadRows {
		row := []string{itoa(n)}
		for _, s := range socketCounts {
			m := machine.XeonMultiSocket(s)
			if n > m.NumHWThreads() {
				row = append(row, "-", "-", "-")
				continue
			}
			res := results[k]
			k++
			slots, err := (machine.Scatter{}).Place(m, n)
			if err != nil {
				return nil, err
			}
			cores := make([]int, n)
			for i, sl := range slots {
				cores[i] = m.CoreOf(sl)
			}
			pred := core.NewDetailed(m).PredictHigh(atomics.FAA, cores, 0)
			xsock := 0.0
			if res.Ops > 0 {
				xsock = float64(res.Coh.CrossSocket) / float64(res.Ops)
			}
			row = append(row, f2(res.ThroughputMops), f2(pred.ThroughputMops), f2(xsock))
		}
		t.AddRow(row...)
	}
	t.AddNote("same per-socket silicon; only the socket count changes. xsock = cross-socket transfers per op")
	return []*Table{t}, nil
}
