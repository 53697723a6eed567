package harness

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"atomicsmodel/internal/faults"
	"atomicsmodel/internal/machine"
)

func quickOpts() Options {
	return Options{Machines: []*machine.Machine{machine.XeonE5()}, Quick: true, Seed: 1}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("demo", "a", "longer-column")
	tb.AddRow("1", "2")
	tb.AddRow("333", "4")
	tb.AddNote("a note with %d", 42)
	var sb strings.Builder
	if err := tb.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"demo", "longer-column", "333", "note: a note with 42"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Header and rows align: all data lines equal length.
	if len(lines) < 5 {
		t.Fatalf("unexpected line count %d", len(lines))
	}
}

func TestTableRowPadding(t *testing.T) {
	tb := NewTable("t", "a", "b", "c")
	tb.AddRow("1")                // short: padded
	tb.AddRow("1", "2", "3", "4") // long: truncated
	if len(tb.Rows[0]) != 3 || len(tb.Rows[1]) != 3 {
		t.Fatal("rows not normalized to column count")
	}
	if tb.Rows[1][2] != "3" {
		t.Fatal("truncation kept wrong cells")
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("csv demo", "x", "y")
	tb.AddRow(`va"l`, "with,comma")
	tb.AddNote("footer")
	var sb strings.Builder
	if err := tb.CSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "# csv demo") {
		t.Error("missing title comment")
	}
	if !strings.Contains(out, `"va""l"`) {
		t.Errorf("quote escaping wrong: %s", out)
	}
	if !strings.Contains(out, `"with,comma"`) {
		t.Errorf("comma quoting wrong: %s", out)
	}
	if !strings.Contains(out, "# footer") {
		t.Error("missing note comment")
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"T1", "F1", "F2", "F3", "F4", "F5", "F6", "F7", "F8", "F9", "F10", "F11", "F12", "F13", "F14", "F15", "F16", "F17", "F18", "F19", "F20", "F21", "F22", "T2", "T3"}
	ids := IDs()
	if len(ids) != len(want) {
		t.Fatalf("registered %v, want %v", ids, want)
	}
	for i, id := range want {
		if ids[i] != id {
			t.Fatalf("order: got %v, want %v", ids, want)
		}
	}
	for _, e := range All() {
		if e.Title == "" || e.Claim == "" {
			t.Errorf("%s: missing title or claim", e.ID)
		}
	}
}

func TestByID(t *testing.T) {
	e, err := ByID("F3")
	if err != nil || e.ID != "F3" {
		t.Fatalf("ByID(F3) = %v, %v", e, err)
	}
	if _, err := ByID("F99"); err == nil {
		t.Fatal("unknown ID accepted")
	}
}

// TestEveryExperimentRunsQuick executes every registered experiment in
// quick mode on the Xeon machine and sanity-checks the output tables.
// This is the integration test for the whole stack.
func TestEveryExperimentRunsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments take a few seconds")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tables, err := e.Run(quickOpts())
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(tables) == 0 {
				t.Fatalf("%s produced no tables", e.ID)
			}
			for _, tb := range tables {
				if len(tb.Rows) == 0 {
					t.Errorf("%s: table %q has no rows", e.ID, tb.Title)
				}
				if len(tb.Columns) < 2 {
					t.Errorf("%s: table %q has too few columns", e.ID, tb.Title)
				}
				var sb strings.Builder
				if err := tb.Render(&sb); err != nil {
					t.Errorf("%s: render: %v", e.ID, err)
				}
			}
		})
	}
}

func TestExperimentsRunOnKNL(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments take a few seconds")
	}
	opts := Options{Machines: []*machine.Machine{machine.KNL()}, Quick: true, Seed: 2}
	for _, id := range []string{"F1", "F3", "F7"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		tables, err := e.Run(opts)
		if err != nil {
			t.Fatalf("%s on KNL: %v", id, err)
		}
		if len(tables) == 0 {
			t.Fatalf("%s on KNL produced no tables", id)
		}
	}
}

func TestOptionsSweeps(t *testing.T) {
	o := Options{}
	x := machine.XeonE5()
	full := o.threadSweep(x)
	if full[len(full)-1] != 72 {
		t.Errorf("full Xeon sweep should reach 72 HW threads: %v", full)
	}
	oq := Options{Quick: true}
	q := oq.threadSweep(x)
	if len(q) >= len(full) {
		t.Error("quick sweep should be shorter")
	}
	small := machine.Ideal(4)
	for _, n := range oq.threadSweep(small) {
		if n > 4 {
			t.Errorf("sweep exceeds machine capacity: %d", n)
		}
	}
	if o.duration() <= oq.duration() {
		t.Error("full duration should exceed quick")
	}
}

func TestRegisterValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty experiment accepted")
		}
	}()
	Register(&Experiment{})
}

// TestCellKeyMatchesSprintf: cellKey's prefix, built with strconv,
// spells the key exactly as the fmt.Sprintf form every cache on disk
// was written with, for the seed's edges, both Quick values, and each
// optional suffix.
func TestCellKeyMatchesSprintf(t *testing.T) {
	plan, err := faults.Parse("seed=3,jitter=5,casfail=2")
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{0, 42, math.MaxUint64} {
		for _, quick := range []bool{false, true} {
			for _, edit := range []func(*Options){
				func(*Options) {},
				func(o *Options) { o.Metrics = &MetricsCollector{} },
				func(o *Options) { o.Check = true },
				func(o *Options) { o.Faults = plan },
				func(o *Options) { o.Metrics, o.Check, o.Faults = &MetricsCollector{}, true, plan },
			} {
				o := Options{Exp: "F3", Seed: seed, Quick: quick}
				edit(&o)
				want := fmt.Sprintf("%s|seed=%d|quick=%v", o.Exp, o.Seed, o.Quick)
				if o.Metrics != nil {
					want += "|metrics=on"
				}
				if o.Check {
					want += "|check=on"
				}
				if o.Faults != nil {
					want += "|faults=" + o.Faults.Signature()
				}
				want += "|XeonE5/n=2/FAA"
				if got := o.cellKey("XeonE5/n=2/FAA"); got != want {
					t.Fatalf("cellKey = %q, want %q", got, want)
				}
			}
		}
	}
}
