package harness

func init() {
	Register(&Experiment{
		ID:    "F18",
		Title: "Design decision: Treiber stack vs elimination-backoff stack vs MS queue",
		Claim: "the model's remedy for a contended top pointer: route colliding pairs around the hot line entirely",
		Run:   runF18,
	})
}

func runF18(o Options) ([]*Table, error) {
	sweep := []int{4, 8, 16, 32}
	if o.Quick {
		sweep = []int{8, 16}
	}
	machines := o.machines()
	// Four cells per row: treiber, elim-4, elim-16, ms-queue. The
	// elimination counts ride in the RunResult, so the cells survive the
	// manifest cache's JSON round trip without a wrapper.
	variants := []struct {
		structure string
		slots     int
	}{
		{"treiber-stack", 0},
		{"elimination-stack", 4},
		{"elimination-stack", 16},
		{"ms-queue", 0},
	}
	cells := appKind.newCells()
	for _, m := range machines {
		for _, n := range sweep {
			if n > m.NumHWThreads() {
				continue
			}
			for _, v := range variants {
				sp := appKind.base(o)
				sp.Structure = v.structure
				sp.Threads = n
				sp.Depth = 256
				sp.Slots = v.slots
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
		t := NewTable("F18 ("+m.Name+"): concurrent stack/queue ops (50/50 push-pop mix)",
			"threads", "treiber (Mops)", "elim-4slot (Mops)", "elim-16slot (Mops)",
			"elim rate (16)", "ms-queue (Mops)")
		for _, n := range sweep {
			if n > m.NumHWThreads() {
				continue
			}
			treiber, e4, e16, queue := results[k], results[k+1], results[k+2], results[k+3]
			k += 4
			elimRate := 0.0
			if e16.TotalOps > 0 {
				elimRate = float64(e16.Eliminations) / float64(e16.TotalOps)
			}
			t.AddRow(itoa(n), f2(treiber.ThroughputMops), f2(e4.ThroughputMops),
				f2(e16.ThroughputMops), f3(elimRate), f2(queue.ThroughputMops))
		}
		t.AddNote("elim rate = fraction of ops completed in the collision array instead of on the top pointer")
		tables = append(tables, t)
	}
	return tables, nil
}
