package harness

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"atomicsmodel/internal/runlog"
)

// TestRunCellsContextPreCanceled: a context already dead at entry means
// no cell runs at all — the first claim fails with a CellCanceledError
// that unwraps to the context's own error.
func TestRunCellsContextPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := 0
	_, err := fanoutN(Options{Par: 1, Context: ctx}, 4, func(i int) (int, error) {
		ran++
		return i, nil
	})
	if ran != 0 {
		t.Fatalf("%d cells ran under a dead context", ran)
	}
	var ce *CellCanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CellCanceledError", err)
	}
	if ce.Cell != 0 {
		t.Errorf("canceled cell = %d, want 0 (the first claim)", ce.Cell)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err %v does not unwrap to context.Canceled", err)
	}
}

// TestRunCellsContextDeadline: deadline expiry reads as
// context.DeadlineExceeded through the cell error.
func TestRunCellsContextDeadline(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := fanoutN(Options{Par: 1, Context: ctx}, 1, func(i int) (int, error) { return i, nil })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded through the cell error", err)
	}
}

// TestRunCellsNilContextUnchanged: a nil Options.Context means
// context.Background() — run everything.
func TestRunCellsNilContextUnchanged(t *testing.T) {
	ran := 0
	if _, err := fanoutN(Options{Par: 1}, 3, func(i int) (int, error) { ran++; return i, nil }); err != nil || ran != 3 {
		t.Fatalf("fanout = (%v, %d cells), want (nil, 3)", err, ran)
	}
}

// TestFanoutKeyedContextCancelMidRun cancels the context from inside
// cell 0's compute. With Par 1 the schedule is deterministic: cell 0
// completes normally (cancellation is checked between cells, never
// inside one), cell 1 is canceled before it runs and lands in the
// manifest with canceled=true under its config key, and cell 2 is
// never claimed.
func TestFanoutKeyedContextCancelMidRun(t *testing.T) {
	dir := t.TempDir()
	w, err := runlog.Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	type res struct{ V int }
	o := Options{Par: 1, Exp: "CTX", Manifest: w, Context: ctx}
	specs := []int{10, 20, 30}
	keys := make([]string, len(specs))
	for i, s := range specs {
		keys[i] = "cell" + itoaCtx(s)
	}
	_, ferr := fanout(o, keys, func(i int) (res, error) {
		if i == 0 {
			cancel()
		}
		return res{V: specs[i]}, nil
	})
	if werr := w.Close(); werr != nil {
		t.Fatal(werr)
	}

	var ce *CellCanceledError
	if !errors.As(ferr, &ce) || ce.Cell != 1 {
		t.Fatalf("err = %v, want cell 1 canceled", ferr)
	}

	recs := readCellRecords(t, dir)
	if len(recs) != 2 {
		t.Fatalf("manifest has %d cell records, want 2 (cell 0 ran, cell 1 canceled, cell 2 unclaimed)", len(recs))
	}
	if recs[0].Canceled || recs[0].Error != "" {
		t.Errorf("cell 0 record = %+v, want a clean completed cell", recs[0])
	}
	if !recs[1].Canceled {
		t.Errorf("cell 1 record = %+v, want canceled=true", recs[1])
	}
	if !strings.Contains(recs[1].Key, "cell20") {
		t.Errorf("canceled record key = %q, want the cell's config key", recs[1].Key)
	}
	if recs[1].Digest != "" || recs[1].Cached {
		t.Errorf("canceled record carries a result: %+v", recs[1])
	}
}

// TestFanoutContextHonorsStampedContext: a context stamped on the
// Options handed to RunExperiment (the path the jobs server uses)
// reaches a registered figure's cells: none runs, and the run fails
// with the context's error.
func TestFanoutContextHonorsStampedContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e, err := ByID("F3")
	if err != nil {
		t.Fatal(err)
	}
	o := quickOpts()
	o.Context = ctx
	if _, err := RunExperiment(e, o); !errors.Is(err, context.Canceled) {
		t.Fatalf("stamped-context RunExperiment = %v, want context.Canceled", err)
	}
}

func readCellRecords(t *testing.T, dir string) []runlog.CellRecord {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, "manifest.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var out []runlog.CellRecord
	for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		var c runlog.CellRecord
		if err := json.Unmarshal([]byte(line), &c); err != nil || c.Type != "cell" {
			continue
		}
		out = append(out, c)
	}
	return out
}

func itoaCtx(n int) string {
	return string(rune('0'+n/10)) + string(rune('0'+n%10))
}
