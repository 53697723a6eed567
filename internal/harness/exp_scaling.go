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
	// Built once: each machine tabulates its node pairs on first use.
	machines := make([]*machine.Machine, len(socketCounts))
	models := make([]*core.Model, len(socketCounts))
	for i, s := range socketCounts {
		machines[i] = machine.XeonMultiSocket(s)
		models[i] = core.NewDetailed(machines[i])
	}
	// Scatter placement spreads contenders across every socket: the
	// worst case the extrapolation warns about. The machine key inside
	// each cell key distinguishes the socket counts (Xeon1S/2S/4S build
	// from distinct specs). cell[r][i] is the index of thread row r's
	// result on machines[i], or -1 where the row outnumbers the
	// machine's hardware threads.
	cells := workloadKind.newCells()
	cell := make([][]int, len(threadRows))
	for r, n := range threadRows {
		cell[r] = make([]int, len(machines))
		for i, m := range machines {
			cell[r][i] = -1
			if n > m.NumHWThreads() {
				continue
			}
			sp := workloadKind.at(o, n)
			sp.Primitive = atomics.FAA.String()
			sp.Placement = "scatter"
			cell[r][i] = len(cells.cells)
			cells.add(m, sp)
		}
	}
	results, err := cells.run(o)
	if err != nil {
		return nil, err
	}

	t := NewTable("F17: FAA high contention, scatter placement across socket counts", cols...)
	for r, n := range threadRows {
		row := []string{itoa(n)}
		for i, m := range machines {
			if cell[r][i] < 0 {
				row = append(row, "-", "-", "-")
				continue
			}
			res := results[cell[r][i]]
			cores, err := machine.PlaceCores(m, machine.Scatter{}, n)
			if err != nil {
				return nil, err
			}
			pred := models[i].PredictHigh(atomics.FAA, cores, 0)
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
