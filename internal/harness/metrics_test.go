package harness

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"

	"atomicsmodel/internal/runlog"
)

// The tests in this file pin down the observability layer's two
// determinism guarantees: collected snapshots are independent of the
// scheduler's parallelism, and a resumed run replays byte-identical
// snapshots from the cell cache.

// collectMetricsStr runs experiment id with a collector attached and
// returns the rendered result tables plus the collected cells encoded
// as JSON (the byte-exact comparison form).
func collectMetricsStr(t *testing.T, id string, o Options) (string, string) {
	t.Helper()
	o.Metrics = &MetricsCollector{}
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	tables, err := RunExperiment(e, o)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(o.Metrics.Cells())
	if err != nil {
		t.Fatal(err)
	}
	return renderTables(t, tables), string(raw)
}

// TestMetricsDeterministicAcrossPar covers F3 and F14, whose several
// fan-outs reuse cell indices.
func TestMetricsDeterministicAcrossPar(t *testing.T) {
	for _, id := range []string{"F3", "F14"} {
		o1 := quickOpts()
		o1.Par = 1
		t1, m1 := collectMetricsStr(t, id, o1)

		o8 := quickOpts()
		o8.Par = 8
		t8, m8 := collectMetricsStr(t, id, o8)

		if t1 != t8 {
			t.Fatalf("%s: result tables differ between par=1 and par=8 with metrics on", id)
		}
		if m1 != m8 {
			t.Fatalf("%s: metrics snapshots differ between par=1 and par=8:\n--- par=1 ---\n%s\n--- par=8 ---\n%s", id, m1, m8)
		}
		if len(m1) == 0 || m1 == "null" {
			t.Fatalf("%s: no metrics collected", id)
		}
	}
}

// TestMetricsCellsKeepFanoutOrder records three fan-outs of one
// experiment that reuse the same cell indices, each delivered in a
// shuffled completion order: Cells must list every index's cells in
// fan-out order.
func TestMetricsCellsKeepFanoutOrder(t *testing.T) {
	const n = 24
	var mc MetricsCollector
	for f, seed := range []uint64{1, 2, 3} {
		order := rand.New(rand.NewPCG(seed, 0)).Perm(n)
		for _, c := range order {
			mc.record(CellMetrics{Exp: "F14", Cell: c, Label: fmt.Sprintf("fanout%d/%d", f, c)})
		}
	}
	cells := mc.Cells()
	if len(cells) != 3*n {
		t.Fatalf("got %d cells, want %d", len(cells), 3*n)
	}
	for i, cm := range cells {
		if want := fmt.Sprintf("fanout%d/%d", i%3, i/3); cm.Label != want {
			t.Fatalf("cell %d is %s, want %s", i, cm.Label, want)
		}
	}
}

func TestMetricsDoNotPerturbResults(t *testing.T) {
	o := quickOpts()
	o.Par = 4
	e, err := ByID("F3")
	if err != nil {
		t.Fatal(err)
	}
	plain, err := RunExperiment(e, o)
	if err != nil {
		t.Fatal(err)
	}
	withMetrics, _ := collectMetricsStr(t, "F3", o)
	if renderTables(t, plain) != withMetrics {
		t.Fatal("enabling metrics changed the rendered result tables")
	}
}

func TestMetricsSurviveResume(t *testing.T) {
	dir := t.TempDir()

	// Fresh run with manifest+cache+metrics.
	w, err := runlog.Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	c, err := runlog.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	o := quickOpts()
	o.Par = 4
	o.Manifest, o.Cache = w, c
	freshTables, freshMetrics := collectMetricsStr(t, "F3", o)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Resumed run: every cell must replay from cache, and the replayed
	// snapshots must be byte-identical to the fresh ones.
	w2, err := runlog.Append(dir)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := runlog.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Loaded() == 0 {
		t.Fatal("no cells cached by the fresh metrics run")
	}
	o2 := quickOpts()
	o2.Par = 4
	o2.Manifest, o2.Cache = w2, c2
	resumedTables, resumedMetrics := collectMetricsStr(t, "F3", o2)
	cells, cached, failed := w2.Totals()
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	if cached != cells || failed != 0 {
		t.Fatalf("resume totals: cells=%d cached=%d failed=%d — every cell must replay from cache", cells, cached, failed)
	}
	if resumedTables != freshTables {
		t.Fatal("resumed run rendered different tables")
	}
	if resumedMetrics != freshMetrics {
		t.Fatalf("resumed run collected different metrics:\n--- fresh ---\n%s\n--- resumed ---\n%s", freshMetrics, resumedMetrics)
	}
}

// TestMetricsKeyedSeparatelyFromPlainCache ensures a metrics-off run's
// cache is never replayed into a metrics-on run (whose cached results
// would lack snapshots) and vice versa: the cell keys differ.
func TestMetricsKeyedSeparatelyFromPlainCache(t *testing.T) {
	o := quickOpts()
	o.Exp = "F3"
	plainKey := o.cellKey("XeonE5/n=2/FAA")
	o.Metrics = &MetricsCollector{}
	metKey := o.cellKey("XeonE5/n=2/FAA")
	if plainKey == metKey {
		t.Fatalf("metrics-on and metrics-off cells share the cache key %q", plainKey)
	}
}

func TestMetricsCollectorTables(t *testing.T) {
	o := quickOpts()
	o.Par = 4
	o.Metrics = &MetricsCollector{}
	e, err := ByID("F3")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunExperiment(e, o); err != nil {
		t.Fatal(err)
	}
	tables := o.Metrics.Tables()
	if len(tables) != 1 {
		t.Fatalf("got %d metrics tables, want 1 (one experiment ran)", len(tables))
	}
	out := renderTables(t, tables)
	for _, want := range []string{"metrics (F3)", "coh.transfer.remote-cache", "work.thread_ops.sum", "coh.queue_depth.mean"} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics table lacks %q:\n%s", want, out)
		}
	}
}
