package harness

import (
	"fmt"

	"atomicsmodel/internal/atomics"
	"atomicsmodel/internal/coherence"
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/sim"
	"atomicsmodel/internal/workload"
)

func init() {
	Register(&Experiment{
		ID:    "F16",
		Title: "Interconnect bandwidth: an atomic storm slows unrelated traffic",
		Claim: "with finite link bandwidth, contended atomics pollute the interconnect: victims on other lines stall behind the storm's messages",
		// Each row is one storm-and-victim simulation at one link
		// occupancy (cycles per link per message); occupancy 0 is the
		// infinite-bandwidth baseline every other experiment uses.
		// Machines without room for the storm and both victims sit out.
		Run: func(o Options) ([]*Table, error) {
			var baseline float64 // the victim's latency at occupancy 0, each table's first row
			return figure[float64, stormCell, float64]{
				kind:  stormKind,
				title: "F16 (%s): 12-thread FAA storm vs 2-thread victim on another line",
				cols:  columns("link occupancy (cyc)", "storm (Mops)", "victim latency (ns)", "victim slowdown", "stall share"),
				fits:  fitsThreads(stormThreads + 2),
				rows: func(o Options, _ *machine.Machine) []float64 {
					return pick(o, []float64{0, 1, 2, 4, 8}, []float64{0, 2, 8})
				},
				cells: func(_ Options, _ *machine.Machine, occ float64) []float64 { return []float64{occ} },
				row: func(t *Table, _ *machine.Machine, occ float64, res []stormCell) error {
					c := res[0]
					if occ == 0 {
						baseline = c.VictimLat
					}
					t.AddRow(f1(occ), f2(c.Storm), f1(c.VictimLat), f2(c.VictimLat/baseline), f3(c.StallShare))
					return nil
				},
				note: fixedNote("victim cores sit across the machine from each other; their transfers share links with the storm"),
			}.run(o)
		},
	})
}

// stormThreads is F16's storm size; two victim threads run beside it.
const stormThreads = 12

// stormCell is one F16 cell's result.
type stormCell struct{ Storm, VictimLat, StallShare float64 }

// stormKind runs a 12-thread FAA storm on one hot line concurrently
// with a 2-thread ping-pong victim on an unrelated line, on a copy of
// the machine whose links take the cell's occupancy in cycles per
// message. Cells are keyed "M/occ=2".
var stormKind = specKind[float64, stormCell]{
	key: func(m *machine.Machine, occ *float64) (string, error) {
		return fmt.Sprintf("%s/occ=%v", m.Key(), *occ), nil
	},
	run: func(o Options, ci int, m *machine.Machine, occ *float64) (stormCell, error) {
		c := *m
		c.LinkOccupancy = m.Cycles(*occ)
		return stormAndVictim(&c, o, ci)
	},
}

// stormAndVictim returns the storm's throughput (Mops), the victim's
// mean per-op latency (ns), and the fraction of total simulated time
// messages spent stalled on links, as cell ci.
func stormAndVictim(m *machine.Machine, o Options, ci int) (stormCell, error) {
	eng, mem, audit, err := workload.NewProbe(m, o.CheckOn(), o.CellFaults(ci))
	if err != nil {
		return stormCell{}, err
	}
	const (
		stormLine  coherence.LineID = 1
		victimLine coherence.LineID = 2
	)
	storm, victim := mem.Handle(stormLine), mem.Handle(victimLine)
	slots, err := (machine.Compact{}).Place(m, stormThreads+2)
	if err != nil {
		return stormCell{}, err
	}
	warm, end := o.warmup(), o.warmup()+o.duration()

	var stormOps uint64
	measuring := false
	for i := 0; i < stormThreads; i++ {
		core := m.CoreOf(slots[i])
		var issue func()
		issue = func() {
			if eng.Now() >= end {
				return
			}
			mem.FetchAndAdd(core, storm, 1, func(atomics.Result) {
				if measuring && eng.Now() <= end {
					stormOps++
				}
				issue()
			})
		}
		eng.Schedule(sim.Time(i)*sim.Nanosecond, issue)
	}

	// Victim: the two remaining placed cores ping-pong their own line
	// with a little think time (they are latency-, not
	// throughput-bound — the paper's "innocent bystander").
	victimA := m.CoreOf(slots[stormThreads])
	victimB := m.CoreOf(slots[stormThreads+1])
	var victimSum sim.Time
	var victimN uint64
	var ping func(core int)
	ping = func(core int) {
		if eng.Now() >= end {
			return
		}
		mem.FetchAndAdd(core, victim, 1, func(r atomics.Result) {
			if measuring && eng.Now() <= end {
				victimSum += r.Latency
				victimN++
			}
			next := victimA
			if core == victimA {
				next = victimB
			}
			eng.Schedule(50*sim.Nanosecond, func() { ping(next) })
		})
	}
	eng.Schedule(0, func() { ping(victimA) })

	var stallAtWarm sim.Time
	eng.At(warm, func() {
		measuring = true
		stallAtWarm = mem.System().Stats().LinkStall
	})
	eng.Run(end)
	if err := audit(); err != nil {
		return stormCell{}, err
	}
	if victimN == 0 {
		return stormCell{}, nil
	}
	stall := mem.System().Stats().LinkStall - stallAtWarm
	return stormCell{
		Storm:      float64(stormOps) / o.duration().Seconds() / 1e6,
		VictimLat:  (victimSum / sim.Time(victimN)).Nanoseconds(),
		StallShare: stall.Seconds() / o.duration().Seconds(),
	}, nil
}
