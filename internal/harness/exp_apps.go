package harness

import (
	"atomicsmodel/internal/apps"
	"atomicsmodel/internal/atomics"
	"atomicsmodel/internal/core"
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/sim"
)

// lock is one F10 spinlock variant: its display name and structure.
type lock struct{ name, structure string }

// locksFor lists F10's locks on m; the cohort lock needs several sockets.
func locksFor(m *machine.Machine) []lock {
	locks := []lock{{"tas", "lock-tas"}, {"ttas", "lock-ttas"}, {"ttas-backoff", "lock-ttas-backoff"}, {"ticket", "lock-ticket"}}
	if m.Sockets > 1 {
		locks = append(locks, lock{"cohort", "lock-cohort"})
	}
	return locks
}

func init() {
	Register(&Experiment{
		ID:    "F9",
		Title: "Design decision: FAA counter vs CAS-loop counter",
		Claim: "the model facilitates algorithmic design decisions: it predicts the FAA/CAS throughput gap",
		Run: figure[apps.Spec, *apps.RunResult, int]{
			kind:  appKind,
			title: "F9 (%s): shared counter throughput (M increments/s)",
			cols:  columns("threads", "FAA counter", "CAS counter", "sim ratio", "model ratio"),
			rows:  Options.threadSweep,
			cells: func(o Options, _ *machine.Machine, n int) []apps.Spec {
				faa, cas := appKind.at(o, n), appKind.at(o, n)
				faa.Structure, cas.Structure = "counter-faa", "counter-cas"
				return []apps.Spec{faa, cas}
			},
			row: func(t *Table, m *machine.Machine, n int, res appResults) error {
				faa, cas := res[0], res[1]
				cores, err := machine.PlaceCores(m, nil, n)
				if err != nil {
					return err
				}
				md := core.NewDetailed(m)
				pf, pc := md.PredictHigh(atomics.FAA, cores, 0), md.PredictHigh(atomics.CAS, cores, 0)
				simRatio, modelRatio := 0.0, 0.0
				if cas.ThroughputMops > 0 {
					simRatio = faa.ThroughputMops / cas.ThroughputMops
				}
				if pc.ThroughputMops > 0 {
					modelRatio = pf.ThroughputMops / pc.ThroughputMops
				}
				t.AddRow(itoa(n), f2(faa.ThroughputMops), f2(cas.ThroughputMops),
					f2(simRatio), f2(modelRatio))
				return nil
			},
			note: fixedNote("model ratio ~ N: every CAS success pays N-1 failed-but-full-cost attempts"),
		}.run,
	})
	Register(&Experiment{
		ID:    "F10",
		Title: "Design decision: TAS vs TTAS vs backoff vs ticket spinlocks",
		Claim: "lock design choices follow from how each primitive bounces the lock line",
		Run: figure[apps.Spec, *apps.RunResult, int]{
			kind:  appKind,
			title: "F10 (%s): lock acquire-release cycles (50ns critical section)",
			cols: func(m *machine.Machine) []string {
				cols := []string{"threads"}
				for _, l := range locksFor(m) {
					cols = append(cols, l.name+" (Mops)", l.name+" Jain")
				}
				return cols
			},
			rows: contended,
			cells: func(o Options, m *machine.Machine, n int) []apps.Spec {
				var out []apps.Spec
				for _, l := range locksFor(m) {
					sp := appKind.at(o, n)
					sp.Structure, sp.CritPS = l.structure, 50*sim.Nanosecond
					out = append(out, sp)
				}
				return out
			},
			row: func(t *Table, _ *machine.Machine, n int, res appResults) error {
				row := []string{itoa(n)}
				for _, r := range res {
					row = append(row, f2(r.ThroughputMops), f3(r.Jain))
				}
				t.AddRow(row...)
				return nil
			},
			note: fixedNote("ticket: FIFO-fair by construction; backoff: fewest bounces per handoff; cohort (NUMA machines): global lock crosses sockets once per cohort"),
		}.run,
	})
}
