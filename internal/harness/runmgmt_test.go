package harness

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"atomicsmodel/internal/runlog"
)

// The tests in this file cover the run-management layer: crash
// isolation (panics become deterministic per-cell errors), the
// structured manifest, and resume (cached cells replay byte-identically).

// TestRunCellsRecoversPanicDeterministically covers both panic guards:
// a panic in a cell's compute (recovered where the manifest can still
// attribute it to the cell's key) and one in the scheduler's own
// bookkeeping around it, here the key function (recovered by the
// worker loop). Either way the process survives and the failure is a
// deterministic *CellPanicError.
func TestRunCellsRecoversPanicDeterministically(t *testing.T) {
	for _, where := range []string{"compute", "key"} {
		var msgs []string
		for _, par := range []int{1, 8} {
			specs := make([]int, 16)
			for i := range specs {
				specs[i] = i
			}
			_, err := FanoutKeyed(Options{Par: par}, specs, func(s int) string {
				if where == "key" && s == 3 {
					panic("kaboom")
				}
				return itoa(s)
			}, func(i, _ int) (int, error) {
				switch {
				case where == "compute" && i == 3:
					panic("kaboom")
				case i == 9:
					return 0, errors.New("cell 9 failed")
				}
				return i, nil
			})
			if err == nil {
				t.Fatalf("%s par=%d: panic swallowed", where, par)
			}
			var pe *CellPanicError
			if !errors.As(err, &pe) {
				t.Fatalf("%s par=%d: got %T, want *CellPanicError", where, par, err)
			}
			if pe.Cell != 3 || pe.Stack == "" {
				t.Fatalf("%s par=%d: cell=%d stack=%d bytes", where, par, pe.Cell, len(pe.Stack))
			}
			msgs = append(msgs, err.Error())
		}
		// The error text must be identical on the serial and parallel
		// schedulers (so it excludes the stack), and the lowest-index
		// failure must win over the later plain error.
		if msgs[0] != msgs[1] {
			t.Fatalf("%s: par=1 and par=8 disagree:\n%s\n%s", where, msgs[0], msgs[1])
		}
		if want := "cell 3 panicked: kaboom"; msgs[0] != want {
			t.Fatalf("%s: got %q, want %q", where, msgs[0], want)
		}
	}
}

func TestErrorCellDeterministicAcrossPar(t *testing.T) {
	run := func(par int) string {
		o := quickOpts()
		o.Par = par
		_, err := fanout(o, 32, func(i int) (int, error) {
			if i >= 5 {
				return 0, fmt.Errorf("cell %d: simulated mid-experiment failure", i)
			}
			return i, nil
		})
		if err == nil {
			t.Fatalf("par=%d: error swallowed", par)
		}
		return err.Error()
	}
	serial, parallel := run(1), run(8)
	if serial != parallel {
		t.Fatalf("error output differs:\npar=1: %s\npar=8: %s", serial, parallel)
	}
	if want := "cell 5: simulated mid-experiment failure"; serial != want {
		t.Fatalf("got %q, want %q (lowest index must win)", serial, want)
	}
}

// workCell is a keyed-cell result type for the resume tests.
type workCell struct{ Value int }

// panicExperiment builds an (unregistered) experiment whose cell 2
// panics while *boom is set. It also counts fresh (non-cached) cell
// executions through *fresh.
func panicExperiment(boom *atomic.Bool, fresh *atomic.Int64) *Experiment {
	return &Experiment{
		ID:    "FX",
		Title: "panic/resume fixture",
		Claim: "test",
		Run: func(o Options) ([]*Table, error) {
			specs := []int{10, 11, 12, 13}
			res, err := FanoutKeyed(o, specs, func(s int) string {
				return fmt.Sprintf("cell=%d", s)
			}, func(i int, s int) (workCell, error) {
				fresh.Add(1)
				if i == 2 && boom.Load() {
					panic("boom")
				}
				return workCell{Value: s * s}, nil
			})
			if err != nil {
				return nil, err
			}
			tb := NewTable("FX", "spec", "value")
			for i, r := range res {
				tb.AddRow(itoa(specs[i]), itoa(r.Value))
			}
			return []*Table{tb}, nil
		},
	}
}

// TestPanicManifestAndResume is the acceptance test for the tentpole: a
// panicking cell does not crash the run, the manifest records the
// failure (with key, panic flag, and stack), and a resumed run re-runs
// only that cell, rendering tables byte-identical to an all-fresh run.
func TestPanicManifestAndResume(t *testing.T) {
	dir := t.TempDir()
	var boom atomic.Bool
	var fresh atomic.Int64
	boom.Store(true)
	exp := panicExperiment(&boom, &fresh)

	// Crashing run, serial scheduler so the outcome is deterministic:
	// cells 0 and 1 complete and reach the cache, cell 2 panics (which
	// surfaces as the experiment error instead of crashing the process),
	// cell 3 is never claimed.
	w, err := runlog.Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	c, err := runlog.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	o := quickOpts()
	o.Par = 1
	o.Manifest, o.Cache = w, c
	_, err = RunExperiment(exp, o)
	if err == nil || !strings.Contains(err.Error(), "cell 2 panicked: boom") {
		t.Fatalf("first run: got err %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if fresh.Load() != 3 {
		t.Fatalf("first run executed %d cells, want 3 (up to and including the panic)", fresh.Load())
	}
	if _, err := runlog.Validate(dir); err != nil {
		t.Fatalf("manifest after crash: %v", err)
	}
	manifest, err := os.ReadFile(filepath.Join(dir, "manifest.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(manifest), `"panic":true`) ||
		!strings.Contains(string(manifest), `"stack":"goroutine`) {
		t.Fatalf("manifest lacks the panic record:\n%s", manifest)
	}

	// Resumed run with the fault cleared: only the failed cell and the
	// never-claimed one re-run; the completed cells replay from cache.
	boom.Store(false)
	fresh.Store(0)
	w2, err := runlog.Append(dir)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := runlog.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Loaded() != 2 {
		t.Fatalf("cache holds %d cells after crash, want 2", c2.Loaded())
	}
	o2 := quickOpts()
	o2.Par = 8
	o2.Manifest, o2.Cache = w2, c2
	tables, err := RunExperiment(exp, o2)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if fresh.Load() != 2 {
		t.Fatalf("resume re-ran %d cells, want exactly the failed and unclaimed ones", fresh.Load())
	}
	cells, cached, failedCells := w2.Totals()
	if cells != 4 || cached != 2 || failedCells != 0 {
		t.Fatalf("resume totals: cells=%d cached=%d failed=%d", cells, cached, failedCells)
	}
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}

	// Byte-identity with an all-fresh, cache-free run.
	fresh.Store(0)
	o3 := quickOpts()
	o3.Par = 8
	want, err := RunExperiment(exp, o3)
	if err != nil {
		t.Fatal(err)
	}
	if got, wanted := renderTables(t, tables), renderTables(t, want); got != wanted {
		t.Fatalf("resumed tables differ from fresh run:\n--- resumed ---\n%s\n--- fresh ---\n%s", got, wanted)
	}
}

func renderTables(t *testing.T, tables []*Table) string {
	t.Helper()
	var sb strings.Builder
	for _, tb := range tables {
		if err := tb.Render(&sb); err != nil {
			t.Fatal(err)
		}
	}
	return sb.String()
}

// renderAllManifest is renderAll through RunExperiment, so cache keys
// are namespaced by experiment ID the way the CLIs run them.
func renderAllManifest(t *testing.T, o Options, ids []string) string {
	t.Helper()
	var sb strings.Builder
	for _, id := range ids {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		tables, err := RunExperiment(e, o)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		for _, tb := range tables {
			if err := tb.Render(&sb); err != nil {
				t.Fatal(err)
			}
		}
	}
	return sb.String()
}

// TestResumeMatchesFreshForAllExperiments runs the whole suite three
// ways — plain, fresh-with-cache, and resumed-from-cache — and demands
// byte-identical tables. This pins down both halves of the resume
// guarantee: attaching a cache must not perturb results (every result
// type survives its JSON round trip), and replaying the cache must
// reproduce the original run exactly.
func TestResumeMatchesFreshForAllExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment several times")
	}
	ids := IDs()

	base := quickOpts()
	base.Par = 8
	plain := renderAllManifest(t, base, ids)

	dir := t.TempDir()
	w, err := runlog.Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	c, err := runlog.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	o := base
	o.Manifest, o.Cache = w, c
	freshRun := renderAllManifest(t, o, ids)
	wantCells, _, _ := w.Totals()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if plain != freshRun {
		t.Fatal("attaching manifest+cache changed rendered tables")
	}
	checkCellKeys(t, dir, filepath.Join("testdata", "quick_cell_keys.txt"))

	w2, err := runlog.Append(dir)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := runlog.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	o2 := base
	o2.Manifest, o2.Cache = w2, c2
	resumed := renderAllManifest(t, o2, ids)
	cells, cached, failedCells := w2.Totals()
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	if resumed != freshRun {
		t.Fatal("resumed run rendered different tables")
	}
	if cells != wantCells || cached != cells || failedCells != 0 {
		t.Fatalf("resume totals: cells=%d (want %d) cached=%d failed=%d — every cell must replay from cache",
			cells, wantCells, cached, failedCells)
	}
	if summary, err := runlog.Validate(dir); err != nil {
		t.Fatalf("Validate: %v", err)
	} else if !strings.Contains(summary, "0 failed") {
		t.Fatalf("Validate: %s", summary)
	}
}

// checkCellKeys compares the (experiment, cell index, key) triples of
// the run manifest in dir, sorted, against the pinned list in golden.
// A cell's index is its -faults …@CELL target and its key is its resume
// cache address, so a refactor that reorders or re-keys cells would
// silently orphan every existing resume cache; this pin makes it loud.
// The pin is only regenerated for an intentional, documented key change.
func checkCellKeys(t *testing.T, dir, golden string) {
	t.Helper()
	recs := readCellRecords(t, dir)
	sort.Slice(recs, func(i, j int) bool {
		if ki, kj := orderKey(recs[i].Exp), orderKey(recs[j].Exp); ki != kj {
			return ki < kj
		}
		if recs[i].Cell != recs[j].Cell {
			return recs[i].Cell < recs[j].Cell
		}
		// Runners with several fan-outs (F14) reuse cell indices.
		return recs[i].Key < recs[j].Key
	})
	var sb strings.Builder
	for _, r := range recs {
		fmt.Fprintf(&sb, "%s %d %s\n", r.Exp, r.Cell, r.Key)
	}
	got := sb.String()
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("cell identities differ from %s at line %d:\n got  %s\n want %s", golden, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("cell identities differ from %s: %d lines, want %d", golden, len(gl), len(wl))
}
