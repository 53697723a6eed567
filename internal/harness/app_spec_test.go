package harness

import (
	"strings"
	"testing"

	"atomicsmodel/internal/apps"
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/runlog"
	"atomicsmodel/internal/sim"
)

// TestAppSpecDistinctCacheNamespace is the acceptance test for
// digest-based app cell keys — the regression test for the
// under-keyed sprintf fragments the spec port removed (the old F10/F20
// keys omitted the critical-section length, read fraction and seed, so
// two differently parameterized cells could alias one cache entry).
// Two specs that differ in any effective knob must land in distinct
// resume-cache namespaces; a second resume with either original must
// replay all of its cells.
func TestAppSpecDistinctCacheNamespace(t *testing.T) {
	dir := t.TempDir()
	m := machine.Ideal(8)

	base := &apps.Spec{
		Name: "probe", Structure: "lock-tas", ThreadLadder: []int{2, 4},
	}
	tweaked := base.Clone()
	tweaked.CritPS = 100 * sim.Nanosecond // same name, different content

	db, err := base.Digest()
	if err != nil {
		t.Fatal(err)
	}
	dt, err := tweaked.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if db == dt {
		t.Fatalf("tweaked spec shares digest %s with the original", db)
	}

	run := func(s *apps.Spec, resume bool) (cells, cached int) {
		open := runlog.Create
		if resume {
			open = runlog.Append
		}
		w, err := open(dir)
		if err != nil {
			t.Fatal(err)
		}
		c, err := runlog.OpenCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		o := Options{Machines: []*machine.Machine{m}, Quick: true, Seed: 42, Par: 4}
		o.Manifest, o.Cache = w, c
		if _, err := RunExperiment(AppExperiment([]*apps.Spec{s}), o); err != nil {
			t.Fatal(err)
		}
		cells, cached, failed := w.Totals()
		if failed != 0 {
			t.Fatalf("%d failed cells", failed)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return cells, cached
	}

	cells, cached := run(base, false)
	if cells == 0 || cached != 0 {
		t.Fatalf("seed run: cells=%d cached=%d", cells, cached)
	}
	// Same-named tweaked spec: zero cache hits allowed.
	if _, cached := run(tweaked, true); cached != 0 {
		t.Fatalf("tweaked spec replayed %d cells of the original from cache", cached)
	}
	// The original again: every cell replays.
	if cells2, cached := run(base, true); cached != cells2 || cells2 != cells {
		t.Fatalf("original resume: cells=%d cached=%d, want all %d cached", cells2, cached, cells)
	}
	// And the tweaked spec again: its own cells replay too.
	if cells3, cached := run(tweaked, true); cached != cells3 {
		t.Fatalf("tweaked resume: cells=%d cached=%d, want all cached", cells3, cached)
	}
}

// TestAppCellKeyCarriesDigest pins the key shape the runners rely on:
// machine key, the "/app@" marker, then the spec's content digest —
// and that the app and workload namespaces cannot collide.
func TestAppCellKeyCarriesDigest(t *testing.T) {
	m := machine.Ideal(8)
	sp := apps.Spec{Structure: "treiber-stack", Threads: 4, Seed: 7}
	key, err := appKind.key(m, &sp)
	if err != nil {
		t.Fatal(err)
	}
	d, err := sp.Digest()
	if err != nil {
		t.Fatal(err)
	}
	want := m.Key() + "/app@" + d
	if key != want {
		t.Fatalf("cell key = %q, want %q", key, want)
	}
	if !strings.Contains(key, "/app@") {
		t.Fatalf("cell key %q lacks the app digest marker", key)
	}
	if strings.Contains(key, "/wl@") {
		t.Fatalf("cell key %q strays into the workload namespace", key)
	}
}

// TestAppSuiteTables runs the A-suite end to end on a quick option set
// and checks the prediction column is populated for every row.
func TestAppSuiteTables(t *testing.T) {
	o := Options{Machines: []*machine.Machine{machine.XeonE5()}, Quick: true, Seed: 7}
	specs := []*apps.Spec{
		{Name: "t", Structure: "treiber-stack", ThreadLadder: []int{2, 8}},
		{Name: "c", Structure: "lock-cohort", Threads: 4},
		{Name: "d", Structure: "ws-deque", Threads: 4},
	}
	tables, err := runAppSuite(o, specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 3 {
		t.Fatalf("got %d tables, want 3", len(tables))
	}
	for _, tb := range tables {
		if len(tb.Rows) == 0 {
			t.Fatalf("table %q has no rows", tb.Title)
		}
		for _, row := range tb.Rows {
			if len(row) != 6 {
				t.Fatalf("table %q row %v: want 6 columns", tb.Title, row)
			}
			if row[2] == "" || row[2] == "0.00" {
				t.Errorf("table %q row %v: empty model prediction", tb.Title, row)
			}
		}
	}

	// The cohort spec on a single-socket machine is skipped with a
	// note, not failed.
	o1 := Options{Machines: []*machine.Machine{machine.Ideal(8)}, Quick: true, Seed: 7}
	tables, err = runAppSuite(o1, []*apps.Spec{{Name: "c", Structure: "lock-cohort", Threads: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || len(tables[0].Rows) != 0 {
		t.Fatalf("incompatible machine not skipped: %+v", tables)
	}
}
