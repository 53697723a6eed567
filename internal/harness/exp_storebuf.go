package harness

import (
	"atomicsmodel/internal/atomics"
	"atomicsmodel/internal/coherence"
	"atomicsmodel/internal/faults"
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/metrics"
	"atomicsmodel/internal/sim"
	"atomicsmodel/internal/workload"
)

func init() {
	Register(&Experiment{
		ID:    "F22",
		Title: "Store buffering (TSO): stores retire locally; atomics pay the implicit fence",
		Claim: "the asymmetry behind the paper's tables — a plain store looks ~free to its thread while an atomic on the same machine costs tens of cycles — is the store buffer plus the lock prefix's fence",
		// Each table has two halves, each run on the synchronous
		// machine and its buffered clone: the 16-thread store workload,
		// which drops on machines too small for it, and the
		// single-thread burst probe, which runs everywhere.
		Run: figure[storeBufProbe, storeBufCell, storeBufRow]{
			kind:  storeBufKind,
			title: "F22 (%s): synchronous stores vs TSO store buffer",
			cols:  columns("measurement", "synchronous", "buffered (depth 42)"),
			rows: func(_ Options, m *machine.Machine) []storeBufRow {
				sb := cloneWithStoreBuffer(m, 42)
				return []storeBufRow{{sb: sb}, {burst: true, sb: sb}}
			},
			cells: func(o Options, m *machine.Machine, r storeBufRow) []storeBufProbe {
				if r.burst {
					return []storeBufProbe{{on: m}, {on: r.sb}}
				}
				sp := workloadKind.fixed(o, 16)
				sp.Primitive = atomics.Store.String()
				if sp.Threads > m.NumHWThreads() {
					return nil
				}
				return []storeBufProbe{{on: m, store: &sp}, {on: r.sb, store: &sp}}
			},
			row: func(t *Table, _ *machine.Machine, r storeBufRow, res []storeBufCell) error {
				switch {
				case len(res) == 0: // the store rows did not fit
				case r.burst:
					t.AddRow("FAA elapsed after 8-store burst (ns)", f1(res[0].FAANs), f1(res[1].FAANs))
					t.AddRow("Fence elapsed after 8-store burst (ns)", f1(res[0].FenceNs), f1(res[1].FenceNs))
				default:
					t.AddRow("store latency seen by thread, 16t (ns)", f1(res[0].LatNs), f1(res[1].LatNs))
					t.AddRow("store throughput, 16t (Mops)", f2(res[0].Mops), f2(res[1].Mops))
				}
				return nil
			},
			note: fixedNote("buffered stores retire at L1 speed; the line still bounds throughput via the drain; locked RMWs inherit the burst's drain time"),
		}.run,
	})
}

// storeBufRow is one half of an F22 table, the store rows or the burst
// rows, with the machine's buffered clone, built once per table.
type storeBufRow struct {
	burst bool
	sb    *machine.Machine
}

// storeBufProbe is one F22 cell: the store workload store, or the burst
// probe when store is nil, on machine on (the base or its "+SB" clone).
type storeBufProbe struct {
	on    *machine.Machine
	store *workload.Spec
}

// storeBufCell is one F22 cell's result: the store workload fills the
// first pair of fields and, with metrics on, its snapshot; the burst
// probe fills the second pair.
type storeBufCell struct {
	LatNs, Mops    float64 // store workload
	FAANs, FenceNs float64 // burst probe
	// Metrics is the store workload's snapshot (nil unless metrics were
	// on), delivered to the collector like a workload cell's.
	Metrics *metrics.Snapshot `json:"metrics,omitempty"`
}

// MetricsSnapshot exposes a store cell's snapshot to the harness.
func (c storeBufCell) MetricsSnapshot() *metrics.Snapshot { return c.Metrics }

// storeBufKind runs F22's cells. Store cells are spec-built workload
// cells keyed "store/" + their digest key; burst probes are custom
// simulations keyed "burst/M". The clone's Name carries "+SB", so the
// two machines' cells key apart.
var storeBufKind = specKind[storeBufProbe, storeBufCell]{
	key: func(_ *machine.Machine, s *storeBufProbe) (string, error) {
		if s.store == nil {
			return "burst/" + s.on.Key(), nil
		}
		k, err := workloadKind.key(s.on, s.store)
		return "store/" + k, err
	},
	run: func(o Options, ci int, _ *machine.Machine, s *storeBufProbe) (storeBufCell, error) {
		if s.store == nil {
			return burstThenOrder(s.on, o.CheckOn(), o.CellFaults(ci))
		}
		// Mean thread-visible store latency and successful store
		// throughput at 16 threads on one line.
		res, err := workloadKind.run(o, ci, s.on, s.store)
		if err != nil {
			return storeBufCell{}, err
		}
		return storeBufCell{LatNs: res.Latency.Mean().Nanoseconds(), Mops: res.ThroughputMops, Metrics: res.Metrics}, nil
	},
}

func cloneWithStoreBuffer(m *machine.Machine, depth int) *machine.Machine {
	c := *m
	c.Name = m.Name + "+SB"
	c.StoreBufferDepth = depth
	return &c
}

// burstThenOrder issues 8 stores to private lines then one FAA on a hot
// line, and separately 8 stores then a fence; it reports the elapsed
// simulated time from the FAA/fence issue to its completion in the
// burst fields of a storeBufCell. check and fp audit and fault both
// probes (see workload.NewProbe).
func burstThenOrder(m *machine.Machine, check bool, fp *faults.CellPlan) (c storeBufCell, err error) {
	measure := func(op func(mem *atomics.Memory, eng *sim.Engine, done func())) (float64, error) {
		eng, mem, audit, err := workload.NewProbe(m, check, fp)
		if err != nil {
			return 0, err
		}
		// Warm the hot line on the issuing core so the RFO itself is
		// local: the measured cost is ordering, not transfer.
		mem.FetchAndAdd(0, mem.Handle(7), 0, nil)
		eng.Drain()
		for i := 0; i < 8; i++ {
			mem.StoreOp(0, mem.Handle(coherence.LineID(1000+i*64)), 1, nil)
		}
		start := eng.Now()
		var elapsed sim.Time
		op(mem, eng, func() { elapsed = eng.Now() - start })
		eng.Drain()
		return elapsed.Nanoseconds(), audit()
	}
	c.FAANs, err = measure(func(mem *atomics.Memory, eng *sim.Engine, done func()) {
		mem.FetchAndAdd(0, mem.Handle(7), 1, func(atomics.Result) { done() })
	})
	if err != nil {
		return c, err
	}
	c.FenceNs, err = measure(func(mem *atomics.Memory, eng *sim.Engine, done func()) {
		mem.FenceOp(0, func(atomics.Result) { done() })
	})
	return c, err
}
