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
		Run:   runF16,
	})
}

// stormThreads is F16's storm size; two victim threads run beside it.
const stormThreads = 12

// runF16 runs, for each machine and link occupancy, a 12-thread FAA
// storm on one hot line concurrently with a 2-thread ping-pong victim
// on an unrelated line, and reports how the victim's latency degrades
// as bandwidth tightens. Occupancy 0 is the infinite-bandwidth baseline
// every other experiment uses.
func runF16(o Options) ([]*Table, error) {
	occupancies := []float64{0, 1, 2, 4, 8} // cycles per link per message
	if o.Quick {
		occupancies = []float64{0, 2, 8}
	}
	// Each storm-and-victim run is one custom simulation — one cell.
	// Machines without room for the storm and both victims sit out.
	var machines []*machine.Machine
	for _, m := range o.machines() {
		if stormThreads+2 <= m.NumHWThreads() {
			machines = append(machines, m)
		}
	}
	type spec struct {
		base *machine.Machine
		occ  float64
	}
	type cell struct{ Storm, VictimLat, StallShare float64 }
	var specs []spec
	for _, base := range machines {
		for _, occ := range occupancies {
			specs = append(specs, spec{base, occ})
		}
	}
	results, err := FanoutKeyed(o, specs, func(s spec) string {
		return fmt.Sprintf("%s/occ=%v", s.base.Key(), s.occ)
	}, func(ci int, s spec) (cell, error) {
		m := *s.base
		m.LinkOccupancy = m.Cycles(s.occ)
		storm, victimLat, stallShare, err := stormAndVictim(&m, o)
		return cell{storm, victimLat, stallShare}, err
	})
	if err != nil {
		return nil, err
	}

	var tables []*Table
	k := 0
	for _, base := range machines {
		t := NewTable("F16 ("+base.Name+"): 12-thread FAA storm vs 2-thread victim on another line",
			"link occupancy (cyc)", "storm (Mops)", "victim latency (ns)", "victim slowdown", "stall share")
		baselineLat := 0.0
		for _, occ := range occupancies {
			c := results[k]
			k++
			if occ == 0 {
				baselineLat = c.VictimLat
			}
			t.AddRow(f1(occ), f2(c.Storm), f1(c.VictimLat), f2(c.VictimLat/baselineLat), f3(c.StallShare))
		}
		t.AddNote("victim cores sit across the machine from each other; their transfers share links with the storm")
		tables = append(tables, t)
	}
	return tables, nil
}

// stormAndVictim returns the storm's throughput (Mops), the victim's
// mean per-op latency (ns), and the fraction of total simulated time
// messages spent stalled on links.
func stormAndVictim(m *machine.Machine, o Options) (stormMops, victimLatNs, stallShare float64, err error) {
	eng, mem, audit, err := workload.NewProbe(m, o.CheckOn())
	if err != nil {
		return 0, 0, 0, err
	}
	const (
		stormLine  coherence.LineID = 1
		victimLine coherence.LineID = 2
	)
	storm, victim := mem.Handle(stormLine), mem.Handle(victimLine)
	slots, err := (machine.Compact{}).Place(m, stormThreads+2)
	if err != nil {
		return 0, 0, 0, err
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
		return 0, 0, 0, err
	}
	if victimN == 0 {
		return 0, 0, 0, nil
	}
	stall := mem.System().Stats().LinkStall - stallAtWarm
	return float64(stormOps) / o.duration().Seconds() / 1e6,
		(victimSum / sim.Time(victimN)).Nanoseconds(),
		stall.Seconds() / o.duration().Seconds(),
		nil
}
