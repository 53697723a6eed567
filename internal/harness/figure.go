package harness

import (
	"fmt"

	"atomicsmodel/internal/apps"
	"atomicsmodel/internal/atomics"
	"atomicsmodel/internal/core"
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/sim"
	"atomicsmodel/internal/workload"
)

// figure is one grid-shaped experiment as a value: for every selected
// machine that fits, one table whose rows each run a few cells.
// Most of the paper's figures are this shape — a row axis (thread
// counts, read fractions, local work, ...) crossed with a handful of
// variants (primitives, arbiters, structures, line states, probe
// settings) — so they are written as figure values and run by one
// walker. A figure's cells are values of one cell kind (spec_cells.go):
// workload or app specs, or a probe's own values.
type figure[S, R, X any] struct {
	kind specKind[S, R]
	// title is the table title; %s takes the machine name.
	title string
	cols  func(m *machine.Machine) []string
	// fits filters the selected machines; nil keeps them all.
	fits func(m *machine.Machine) bool
	// rows is the row axis on one machine.
	rows func(o Options, m *machine.Machine) []X
	// cells are the row's cells: spec variants built on kind.at or
	// kind.fixed, or a probe kind's values.
	cells func(o Options, m *machine.Machine, x X) []S
	// row renders one row (or several) from that row's results only,
	// in the order cells returned them.
	row func(t *Table, m *machine.Machine, x X, res []R) error
	// note is the table's note on one machine; nil adds none.
	note func(m *machine.Machine) string
}

// wlResults and appResults are the result slices row renderers take.
type (
	wlResults  = []*workload.Result
	appResults = []*apps.RunResult
)

// run builds every table's cells in one pass, recording how many each
// row added, runs them as one keyed fan-out, and hands each row
// renderer its own slice of the results. Cell order (machine, row,
// variant) sets the manifest cell index and the -faults …@CELL targets;
// since assembly replays the recorded counts it never re-derives a skip
// decision, so a row that was not built can never shift a column.
func (f figure[S, R, X]) run(o Options) ([]*Table, error) {
	type sheet struct {
		m     *machine.Machine
		rows  []X
		cells []int // cells each row added
	}
	var sheets []sheet
	cells := f.kind.newCells()
	for _, m := range o.machines() {
		if f.fits != nil && !f.fits(m) {
			continue
		}
		sh := sheet{m: m, rows: f.rows(o, m)}
		for _, x := range sh.rows {
			specs := f.cells(o, m, x)
			for _, s := range specs {
				cells.add(m, s)
			}
			sh.cells = append(sh.cells, len(specs))
		}
		sheets = append(sheets, sh)
	}
	results, err := cells.run(o)
	if err != nil {
		return nil, err
	}

	var tables []*Table
	for _, sh := range sheets {
		t := NewTable(fmt.Sprintf(f.title, sh.m.Name), f.cols(sh.m)...)
		for i, x := range sh.rows {
			n := sh.cells[i]
			if err := f.row(t, sh.m, x, results[:n]); err != nil {
				return nil, err
			}
			results = results[n:]
		}
		if f.note != nil {
			t.AddNote("%s", f.note(sh.m))
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// columns returns fixed column headings for a figure.
func columns(cols ...string) func(*machine.Machine) []string {
	return func(*machine.Machine) []string { return cols }
}

// fixedNote returns the same table note for every machine.
func fixedNote(note string) func(*machine.Machine) string {
	return func(*machine.Machine) string { return note }
}

// fitsThreads keeps the machines with at least n hardware threads, for
// figures that run every cell at a fixed thread count.
func fitsThreads(n int) func(*machine.Machine) bool {
	return func(m *machine.Machine) bool { return n <= m.NumHWThreads() }
}

// pick returns the quick sweep under Options.Quick and the full one
// otherwise.
func pick[T any](o Options, full, quick []T) []T {
	if o.Quick {
		return quick
	}
	return full
}

// fitting keeps the thread counts of ns that machine m can place.
func fitting(m *machine.Machine, ns []int) []int {
	var out []int
	for _, n := range ns {
		if n <= m.NumHWThreads() {
			out = append(out, n)
		}
	}
	return out
}

// contended is the machine's thread sweep without its 1-thread row,
// for figures (fairness, locks) that mean nothing uncontended.
func contended(o Options, m *machine.Machine) []int {
	var out []int
	for _, n := range o.threadSweep(m) {
		if n >= 2 {
			out = append(out, n)
		}
	}
	return out
}

// arbiter is one line-arbitration policy as a swept variant: its
// display name and the spec knobs that select it. Arbiters resolve by
// name inside each cell's spec, so every engine gets its own instance
// (they can be stateful); the random arbiter's stream is seeded from
// the cell seed.
type arbiter struct {
	name  string
	arb   string // spec policy name
	skips int
}

// faa returns an FAA spec on top of sp under this arbiter.
func (a arbiter) faa(sp workload.Spec) workload.Spec {
	sp.Primitive = atomics.FAA.String()
	sp.Arbiter, sp.ArbiterSkips = a.arb, a.skips
	return sp
}

// predictHigh is the detailed model's high-contention prediction for
// primitive p on n compactly placed threads with local work w.
func predictHigh(m *machine.Machine, p atomics.Primitive, n int, w sim.Time) (core.Prediction, error) {
	cores, err := machine.PlaceCores(m, nil, n)
	if err != nil {
		return core.Prediction{}, err
	}
	return core.NewDetailed(m).PredictHigh(p, cores, w), nil
}
