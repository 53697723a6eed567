package harness

import (
	"atomicsmodel/internal/apps"
	"atomicsmodel/internal/machine"
)

func init() {
	Register(&Experiment{
		ID:    "F18",
		Title: "Design decision: Treiber stack vs elimination-backoff stack vs MS queue",
		Claim: "the model's remedy for a contended top pointer: route colliding pairs around the hot line entirely",
		Run: figure[apps.Spec, *apps.RunResult, int]{
			kind:  appKind,
			title: "F18 (%s): concurrent stack/queue ops (50/50 push-pop mix)",
			cols: columns("threads", "treiber (Mops)", "elim-4slot (Mops)", "elim-16slot (Mops)",
				"elim rate (16)", "ms-queue (Mops)"),
			rows: func(o Options, m *machine.Machine) []int {
				return fitting(m, pick(o, []int{4, 8, 16, 32}, []int{8, 16}))
			},
			// Four cells per row: treiber, elim-4, elim-16, ms-queue. The
			// elimination counts ride in the RunResult, so the cells
			// survive the manifest cache's JSON round trip without a
			// wrapper.
			cells: func(o Options, _ *machine.Machine, n int) []apps.Spec {
				var out []apps.Spec
				for _, v := range []struct {
					structure string
					slots     int
				}{{"treiber-stack", 0}, {"elimination-stack", 4}, {"elimination-stack", 16}, {"ms-queue", 0}} {
					sp := appKind.at(o, n)
					sp.Structure, sp.Depth, sp.Slots = v.structure, 256, v.slots
					out = append(out, sp)
				}
				return out
			},
			row: func(t *Table, _ *machine.Machine, n int, res appResults) error {
				treiber, e4, e16, queue := res[0], res[1], res[2], res[3]
				elimRate := 0.0
				if e16.TotalOps > 0 {
					elimRate = float64(e16.Eliminations) / float64(e16.TotalOps)
				}
				t.AddRow(itoa(n), f2(treiber.ThroughputMops), f2(e4.ThroughputMops),
					f2(e16.ThroughputMops), f3(elimRate), f2(queue.ThroughputMops))
				return nil
			},
			note: fixedNote("elim rate = fraction of ops completed in the collision array instead of on the top pointer"),
		}.run,
	})
}
