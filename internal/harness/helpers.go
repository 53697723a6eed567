package harness

import (
	"fmt"

	"atomicsmodel/internal/atomics"
	"atomicsmodel/internal/invariant"
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/sim"
)

// newProbe builds the private engine and memory of a hand-driven probe
// cell. With check set (-check) it installs an invariant checker, and
// audit runs the checker's final audit; otherwise audit runs the
// directory's own invariant check.
func newProbe(m *machine.Machine, check bool) (eng *sim.Engine, mem *atomics.Memory, audit func() error, err error) {
	eng = sim.NewEngine()
	if mem, err = atomics.NewMemory(eng, m, nil); err != nil {
		return nil, nil, nil, err
	}
	audit = mem.System().CheckInvariants
	if check {
		audit = invariant.Install(eng, mem.System()).Finalize
	}
	return eng, mem, audit, nil
}

func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func ns(t sim.Time) string { return fmt.Sprintf("%.1f", t.Nanoseconds()) }
func itoa(n int) string    { return fmt.Sprintf("%d", n) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", v) }
