package harness

import (
	"strings"
	"testing"

	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/runlog"
	"atomicsmodel/internal/workload"
)

// TestWorkloadSpecDistinctCacheNamespace is the acceptance test for
// digest-based workload cell keys (the analog of the machine-spec
// namespace test): two specs that differ in any effective knob must
// land in distinct resume-cache namespaces. A crashed run on one spec,
// resumed with a same-named but differently parameterized spec, must
// recompute every cell — and a second resume with either original must
// replay all of them.
func TestWorkloadSpecDistinctCacheNamespace(t *testing.T) {
	dir := t.TempDir()
	m := machine.Ideal(8)

	base := &workload.Spec{
		Name: "probe", Primitive: "FAA", ThreadLadder: []int{1, 2, 4},
	}
	tweaked := base.Clone()
	tweaked.LocalWorkPS = 100000 // same name, different content

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

	run := func(s *workload.Spec, resume bool) (cells, cached int) {
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
		if _, err := RunExperiment(WorkloadExperiment([]*workload.Spec{s}), o); err != nil {
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

// TestWorkloadCellKeyCarriesDigest pins the key shape the runners rely
// on: machine key, the "/wl@" marker, then the spec's content digest.
func TestWorkloadCellKeyCarriesDigest(t *testing.T) {
	m := machine.Ideal(8)
	sp := workload.Spec{Primitive: "FAA", Threads: 4, Seed: 7}
	key, err := workloadKind.key(m, &sp)
	if err != nil {
		t.Fatal(err)
	}
	d, err := sp.Digest()
	if err != nil {
		t.Fatal(err)
	}
	want := m.Key() + "/wl@" + d
	if key != want {
		t.Fatalf("cell key = %q, want %q", key, want)
	}
	if !strings.Contains(key, "/wl@") {
		t.Fatalf("cell key %q lacks the workload digest marker", key)
	}
}
