package trace

import (
	"strings"
	"testing"

	"atomicsmodel/internal/atomics"
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/sim"
)

// contendedRun drives a small FAA storm with a recorder attached.
func contendedRun(t *testing.T, threads, opsEach int) *Recorder {
	t.Helper()
	eng := sim.NewEngine()
	mem, err := atomics.NewMemory(eng, machine.XeonE5(), nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(1, 0)
	mem.System().SetTracer(rec.Observe)
	for c := 0; c < threads; c++ {
		c := c
		var issue func(n int)
		issue = func(n int) {
			if n == 0 {
				return
			}
			mem.FetchAndAdd(c, mem.Handle(1), 1, func(atomics.Result) { issue(n - 1) })
		}
		issue(opsEach)
	}
	eng.Drain()
	return rec
}

func TestRecorderCapturesAll(t *testing.T) {
	rec := contendedRun(t, 4, 25)
	if len(rec.Events()) != 100 {
		t.Fatalf("events = %d, want 100", len(rec.Events()))
	}
	s := rec.Summarize()
	if s.RMWs != 100 || s.Accesses != 100 {
		t.Fatalf("summary counts: %+v", s)
	}
	if s.DistinctCores != 4 {
		t.Fatalf("distinct cores = %d", s.DistinctCores)
	}
}

func TestSummaryBouncingRun(t *testing.T) {
	rec := contendedRun(t, 4, 25)
	s := rec.Summarize()
	// Saturated FIFO: the line moves on (almost) every op.
	if s.MeanRun > 1.5 {
		t.Fatalf("mean ownership run = %v, want ~1 under round-robin", s.MeanRun)
	}
	if s.Transfers < 90 {
		t.Fatalf("transfers = %d, want ~99", s.Transfers)
	}
	if s.MeanHops <= 0 {
		t.Fatal("no hops recorded")
	}
	if s.MeanGap <= 0 {
		t.Fatal("no gap computed")
	}
}

func TestSummaryMonopoly(t *testing.T) {
	rec := contendedRun(t, 1, 50)
	s := rec.Summarize()
	if s.Transfers != 0 {
		t.Fatalf("single core transferred %d times", s.Transfers)
	}
	if s.MaxRun != 50 || s.MeanRun != 50 {
		t.Fatalf("runs: mean=%v max=%d, want 50", s.MeanRun, s.MaxRun)
	}
}

func TestOwnershipShares(t *testing.T) {
	rec := contendedRun(t, 4, 25)
	shares := rec.OwnershipShares()
	if len(shares) != 4 {
		t.Fatalf("share entries = %d", len(shares))
	}
	total := 0.0
	for _, sh := range shares {
		total += sh.Share
		if sh.Share < 0.2 || sh.Share > 0.3 {
			t.Errorf("core %d share %.3f, want ~0.25 under FIFO", sh.Core, sh.Share)
		}
	}
	if total < 0.999 || total > 1.001 {
		t.Fatalf("shares sum to %v", total)
	}
	// Sorted descending.
	for i := 1; i < len(shares); i++ {
		if shares[i].Share > shares[i-1].Share {
			t.Fatal("shares not sorted")
		}
	}
}

func TestRecorderCap(t *testing.T) {
	eng := sim.NewEngine()
	mem, err := atomics.NewMemory(eng, machine.Ideal(4), nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(1, 10)
	mem.System().SetTracer(rec.Observe)
	var issue func(n int)
	issue = func(n int) {
		if n == 0 {
			return
		}
		mem.FetchAndAdd(0, mem.Handle(1), 1, func(atomics.Result) { issue(n - 1) })
	}
	issue(50)
	eng.Drain()
	if len(rec.Events()) != 10 {
		t.Fatalf("cap ignored: %d events", len(rec.Events()))
	}
}

func TestRecorderFiltersOtherLines(t *testing.T) {
	eng := sim.NewEngine()
	mem, err := atomics.NewMemory(eng, machine.Ideal(4), nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(1, 0)
	mem.System().SetTracer(rec.Observe)
	mem.FetchAndAdd(0, mem.Handle(2), 1, nil) // different line
	eng.Drain()
	if len(rec.Events()) != 0 {
		t.Fatal("recorded an event for another line")
	}
}

func TestWriteCSV(t *testing.T) {
	rec := contendedRun(t, 2, 5)
	var sb strings.Builder
	if err := rec.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "time_ns,core,kind") {
		t.Errorf("missing header: %s", out[:40])
	}
	if strings.Count(out, "\n") != 11 { // header + 10 events
		t.Errorf("row count wrong:\n%s", out)
	}
}

func TestEmptyRecorder(t *testing.T) {
	rec := NewRecorder(5, 0)
	s := rec.Summarize()
	if s.Accesses != 0 || s.MeanRun != 0 || s.MeanGap != 0 {
		t.Fatalf("empty summary: %+v", s)
	}
	if shares := rec.OwnershipShares(); len(shares) != 0 {
		t.Fatal("empty shares")
	}
}
