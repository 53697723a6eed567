package harness

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"atomicsmodel/internal/atomics"
	"atomicsmodel/internal/faults"
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/runlog"
	"atomicsmodel/internal/sim"
	"atomicsmodel/internal/workload"
)

// The tests in this file cover the fault-injection path end to end:
// watchdog deadlines, single-run failures, injected simulation panics, and
// the interaction of all of it with the manifest and resume cache.

func TestWatchdogTimesOutHungCell(t *testing.T) {
	o := quickOpts()
	o.Par = 4
	o.CellTimeout = 50 * time.Millisecond
	o.Faults = &faults.Plan{Seed: 1, SleepCell: 1, SleepFor: 5 * time.Second}
	_, err := fanout(o, 4, func(i int) (int, error) { return i, nil })
	if err == nil {
		t.Fatal("hung cell not timed out")
	}
	var te *CellTimeoutError
	if !errors.As(err, &te) || te.Cell != 1 || te.Timeout != o.CellTimeout {
		t.Fatalf("got %v (%T), want CellTimeoutError for cell 1", err, err)
	}
	if want := "cell 1 exceeded its 50ms watchdog deadline"; err.Error() != want {
		t.Fatalf("message %q, want %q", err.Error(), want)
	}
}

func TestWatchdogLeavesFastCellsAlone(t *testing.T) {
	o := quickOpts()
	o.CellTimeout = 10 * time.Second
	res, err := fanout(o, 8, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	if res[7] != 49 {
		t.Fatalf("results corrupted under watchdog: %v", res)
	}
}

// TestFailedCellRunsOnce: a failing cell's compute runs exactly once
// and its error comes back unwrapped. Cells are deterministic, so a
// retry inside the run would only repeat the failure; the retries that
// reuse finished work are -resume and atomicd's job retry.
func TestFailedCellRunsOnce(t *testing.T) {
	o := quickOpts()
	o.Par = 1
	boom := errors.New("one-shot failure")
	calls := 0
	_, err := fanout(o, 2, func(i int) (int, error) {
		if i == 0 {
			calls++
			return 0, boom
		}
		return i, nil
	})
	if err != boom || calls != 1 {
		t.Fatalf("err = %v after %d calls, want the original error after 1", err, calls)
	}
}

// faultableExperiment builds an (unregistered) experiment of four real
// workload cells, wired to the options' fault and check plumbing the
// same way the registered experiments are.
func faultableExperiment() *Experiment {
	return &Experiment{
		ID:    "FY",
		Title: "fault-injection fixture",
		Claim: "test",
		Run: func(o Options) ([]*Table, error) {
			specs := []int{1, 2, 3, 4}
			res, err := FanoutKeyed(o, specs, func(s int) string {
				return fmt.Sprintf("threads=%d", s)
			}, func(ci int, s int) (*workload.Result, error) {
				return workload.Run(workload.Config{
					Machine:   machine.Ideal(8),
					Threads:   s,
					Primitive: atomics.FAA,
					Warmup:    2 * sim.Microsecond,
					Duration:  20 * sim.Microsecond,
					Seed:      o.Seed,
					Check:     o.CheckOn(),
					Faults:    o.CellFaults(ci),
				})
			})
			if err != nil {
				return nil, err
			}
			tb := NewTable("FY", "threads", "mops")
			for i, r := range res {
				tb.AddRow(itoa(specs[i]), f2(r.ThroughputMops))
			}
			return []*Table{tb}, nil
		},
	}
}

// manifestCells parses a manifest.jsonl into its cell records, dropping
// the wall-clock and stack fields that legitimately vary run to run.
func manifestCells(t *testing.T, dir string) map[string]runlog.CellRecord {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, "manifest.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	cells := make(map[string]runlog.CellRecord)
	for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		var c runlog.CellRecord
		if err := json.Unmarshal([]byte(line), &c); err != nil || c.Type != "cell" {
			continue
		}
		if c.Panic && c.Stack == "" {
			t.Fatalf("panic record for %q lost its stack", c.Key)
		}
		c.WallMS, c.Stack = 0, ""
		cells[c.Key] = c
	}
	return cells
}

// TestInjectedPanicDeterministicAcrossPar is the acceptance test for
// simulation-layer panic injection: the same fault plan produces the
// same error and the same manifest records at par 1 and par 8, and a
// resumed run replays the healthy cells from cache while the faulted
// cell fails identically again.
func TestInjectedPanicDeterministicAcrossPar(t *testing.T) {
	plan := &faults.Plan{Seed: 1, PanicAtEvent: 100, PanicCell: 2}
	type outcome struct {
		errMsg string
		cells  map[string]runlog.CellRecord
		dir    string
	}
	run := func(par int) outcome {
		dir := t.TempDir()
		w, err := runlog.Create(dir)
		if err != nil {
			t.Fatal(err)
		}
		c, err := runlog.OpenCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		o := quickOpts()
		o.Par = par
		o.Faults = plan
		o.Manifest, o.Cache = w, c
		_, rerr := RunExperiment(faultableExperiment(), o)
		if rerr == nil {
			t.Fatalf("par=%d: injected panic did not fail the experiment", par)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return outcome{rerr.Error(), manifestCells(t, dir), dir}
	}

	serial, parallel := run(1), run(8)
	want := "cell 2 panicked: faults: injected panic at event 100 (cell 2)"
	if serial.errMsg != want {
		t.Fatalf("error %q, want %q", serial.errMsg, want)
	}
	if parallel.errMsg != serial.errMsg {
		t.Fatalf("par=1 and par=8 errors differ:\n%s\n%s", serial.errMsg, parallel.errMsg)
	}
	// Serial runs stop at the first failure; the parallel manifest must
	// agree on every record both schedules produced — same keys, same
	// digests, same panic attribution.
	for key, sc := range serial.cells {
		pc, ok := parallel.cells[key]
		if !ok {
			t.Fatalf("par=8 manifest lacks cell %q", key)
		}
		if sc != pc {
			t.Fatalf("cell %q differs across par:\npar=1: %+v\npar=8: %+v", key, sc, pc)
		}
	}
	faulted, ok := serial.cells["FY|seed=1|quick=true|faults="+plan.Signature()+"|threads=3"]
	if !ok || !faulted.Panic || faulted.Error == "" {
		t.Fatalf("manifest record for the faulted cell wrong: %+v (present=%v)", faulted, ok)
	}

	// Resume the serial run under the same plan: the cells that finished
	// before the panic (0 and 1) replay from cache, the faulted cell
	// re-runs and fails with the same message.
	w2, err := runlog.Append(serial.dir)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := runlog.OpenCache(serial.dir)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Loaded() != 2 {
		t.Fatalf("cache holds %d cells, want the 2 completed before the panic", c2.Loaded())
	}
	o := quickOpts()
	o.Par = 1
	o.Faults = plan
	o.Manifest, o.Cache = w2, c2
	_, rerr := RunExperiment(faultableExperiment(), o)
	if rerr == nil || rerr.Error() != serial.errMsg {
		t.Fatalf("resumed failure differs: %v, want %q", rerr, serial.errMsg)
	}
	_, cached, _ := w2.Totals()
	if cached != 2 {
		t.Fatalf("resume replayed %d cells from cache, want 2", cached)
	}
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFaultedCacheDoesNotPoisonCleanRuns pins the cache-key namespacing:
// results computed under a fault plan (or with checking on) must never
// replay into a clean run sharing the same run directory.
func TestFaultedCacheDoesNotPoisonCleanRuns(t *testing.T) {
	dir := t.TempDir()
	runWith := func(mutate func(*Options)) string {
		w, err := runlog.Append(dir)
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
		mutate(&o)
		tables, err := RunExperiment(faultableExperiment(), o)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return renderTables(t, tables)
	}

	jittered := runWith(func(o *Options) {
		o.Faults = &faults.Plan{Seed: 9, LatencyJitterPct: 25}
	})
	clean := runWith(func(o *Options) {})
	checked := runWith(func(o *Options) { o.Check = true })

	freshClean, err := RunExperiment(faultableExperiment(), func() Options {
		o := quickOpts()
		o.Par = 4
		return o
	}())
	if err != nil {
		t.Fatal(err)
	}
	want := renderTables(t, freshClean)
	if clean != want {
		t.Fatal("clean run replayed fault-contaminated cache entries")
	}
	if checked != want {
		t.Fatal("checked run diverged from the clean tables")
	}
	if jittered == want {
		t.Fatal("25% jitter left the tables untouched — fault injection inert")
	}
}
