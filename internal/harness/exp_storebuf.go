package harness

import (
	"atomicsmodel/internal/atomics"
	"atomicsmodel/internal/coherence"
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/sim"
	"atomicsmodel/internal/workload"
)

func init() {
	Register(&Experiment{
		ID:    "F22",
		Title: "Store buffering (TSO): stores retire locally; atomics pay the implicit fence",
		Claim: "the asymmetry behind the paper's tables — a plain store looks ~free to its thread while an atomic on the same machine costs tens of cycles — is the store buffer plus the lock prefix's fence",
		Run:   runF22,
	})
}

func runF22(o Options) ([]*Table, error) {
	machines := o.machines()
	// Four independent simulations per machine: the store workload and
	// the burst probe, each on the synchronous and buffered variants.
	// The buffered clone's Name carries "+SB", so every cell keys
	// distinctly; fields are exported for the manifest cache.
	type cell struct {
		LatNs, Mops    float64 // store workload
		FAANs, FenceNs float64 // burst probe
	}
	// Store cells are spec-built and keyed by spec digest like every
	// workload cell; the burst probes are custom simulations and keep
	// their machine-keyed probe keys.
	type probe struct {
		m     *machine.Machine
		burst bool
		spec  workload.Spec // store probes only
		key   string
	}
	var specs []probe
	for _, base := range machines {
		buffered := cloneWithStoreBuffer(base, 42)
		for _, m := range []*machine.Machine{base, buffered} {
			sp := storeSpec(o)
			wc, err := workloadKind.cell(m, sp)
			if err != nil {
				return nil, err
			}
			specs = append(specs, probe{m: m, spec: sp, key: "store/" + wc.key})
		}
		specs = append(specs,
			probe{m: base, burst: true, key: "burst/" + base.Key()},
			probe{m: buffered, burst: true, key: "burst/" + buffered.Key()})
	}
	results, err := FanoutKeyed(o, specs, func(s probe) string {
		return s.key
	}, func(ci int, s probe) (cell, error) {
		var c cell
		var err error
		if s.burst {
			c.FAANs, c.FenceNs, err = burstThenOrder(s.m)
		} else {
			c.LatNs, c.Mops, err = storeWorkload(s.m, s.spec, o, ci)
		}
		return c, err
	})
	if err != nil {
		return nil, err
	}

	var tables []*Table
	for i, base := range machines {
		sStore, bStore := results[4*i], results[4*i+1]
		sBurst, bBurst := results[4*i+2], results[4*i+3]
		t := NewTable("F22 ("+base.Name+"): synchronous stores vs TSO store buffer",
			"measurement", "synchronous", "buffered (depth 42)")
		t.AddRow("store latency seen by thread, 16t (ns)", f1(sStore.LatNs), f1(bStore.LatNs))
		t.AddRow("store throughput, 16t (Mops)", f2(sStore.Mops), f2(bStore.Mops))
		t.AddRow("FAA elapsed after 8-store burst (ns)", f1(sBurst.FAANs), f1(bBurst.FAANs))
		t.AddRow("Fence elapsed after 8-store burst (ns)", f1(sBurst.FenceNs), f1(bBurst.FenceNs))
		t.AddNote("buffered stores retire at L1 speed; the line still bounds throughput via the drain; locked RMWs inherit the burst's drain time")
		tables = append(tables, t)
	}
	return tables, nil
}

func cloneWithStoreBuffer(m *machine.Machine, depth int) *machine.Machine {
	c := *m
	c.Name = m.Name + "+SB"
	c.StoreBufferDepth = depth
	return &c
}

// storeSpec describes the 16-thread contended-store workload cell.
func storeSpec(o Options) workload.Spec {
	sp := workloadKind.base(o)
	sp.Primitive = atomics.Store.String()
	sp.Threads = 16
	sp.Seed = o.Seed
	return sp
}

// storeWorkload measures mean thread-visible store latency (ns) and
// successful store throughput (Mops) at 16 threads on one line. ci is
// the calling cell's index, for fault targeting.
func storeWorkload(m *machine.Machine, sp workload.Spec, o Options, ci int) (latNs, mops float64, err error) {
	res, err := workloadKind.run(o, ci, m, &sp)
	if err != nil {
		return 0, 0, err
	}
	return res.Latency.Mean().Nanoseconds(), res.ThroughputMops, nil
}

// burstThenOrder issues 8 stores to private lines then one FAA on a hot
// line, and separately 8 stores then a fence; it reports the elapsed
// simulated time from the FAA/fence issue to its completion.
func burstThenOrder(m *machine.Machine) (faaNs, fenceNs float64, err error) {
	measure := func(op func(mem *atomics.Memory, eng *sim.Engine, done func())) (float64, error) {
		eng := sim.NewEngine()
		mem, err := atomics.NewMemory(eng, m, nil)
		if err != nil {
			return 0, err
		}
		// Warm the hot line on the issuing core so the RFO itself is
		// local: the measured cost is ordering, not transfer.
		mem.FetchAndAdd(0, 7, 0, nil)
		eng.Drain()
		for i := 0; i < 8; i++ {
			mem.StoreOp(0, coherence.LineID(1000+i*64), 1, nil)
		}
		start := eng.Now()
		var elapsed sim.Time
		op(mem, eng, func() { elapsed = eng.Now() - start })
		eng.Drain()
		return elapsed.Nanoseconds(), nil
	}
	faaNs, err = measure(func(mem *atomics.Memory, eng *sim.Engine, done func()) {
		mem.FetchAndAdd(0, 7, 1, func(atomics.Result) { done() })
	})
	if err != nil {
		return 0, 0, err
	}
	fenceNs, err = measure(func(mem *atomics.Memory, eng *sim.Engine, done func()) {
		mem.FenceOp(0, func(atomics.Result) { done() })
	})
	return faaNs, fenceNs, err
}
