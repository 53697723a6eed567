package invariant_test

import (
	"strings"
	"testing"

	"atomicsmodel/internal/coherence"
	"atomicsmodel/internal/invariant"
	"atomicsmodel/internal/sim"
	"atomicsmodel/internal/topology"
)

// checkedSystem builds a small ring system with a checker installed.
func checkedSystem(t *testing.T, arb coherence.Arbiter) (*sim.Engine, *coherence.System, *invariant.Checker) {
	t.Helper()
	eng := sim.NewEngine()
	p := coherence.Params{
		NumCores:       8,
		Topo:           topology.NewRing(8),
		NodeOf:         func(c int) int { return c },
		L1Hit:          1 * sim.Nanosecond,
		DirLookup:      2 * sim.Nanosecond,
		HopLatency:     1 * sim.Nanosecond,
		LLCHit:         10 * sim.Nanosecond,
		DRAM:           60 * sim.Nanosecond,
		InvalidateCost: 3 * sim.Nanosecond,
	}
	sys, err := coherence.NewSystem(eng, p, arb)
	if err != nil {
		t.Fatal(err)
	}
	return eng, sys, invariant.Install(eng, sys)
}

func faa(cur uint64) (uint64, bool) { return cur + 1, true }

func TestCleanRunIsViolationFree(t *testing.T) {
	eng, sys, chk := checkedSystem(t, nil)
	// Contend one line from four cores, several rounds each, so grants,
	// invalidations, and the value chain all get exercised.
	for round := 0; round < 5; round++ {
		for core := 0; core < 4; core++ {
			sys.Access(core, sys.Handle(1), coherence.RFO, 0, faa, func(coherence.AccessResult) {})
		}
		eng.Drain()
	}
	if err := chk.Finalize(); err != nil {
		t.Fatalf("clean contended run reported violations: %v", err)
	}
	if got := sys.Value(1); got != 20 {
		t.Fatalf("line value = %d after 20 FAAs, want 20", got)
	}
}

func TestSeededDoubleOwnerCaught(t *testing.T) {
	run := func() error {
		eng, sys, chk := checkedSystem(t, nil)
		sys.Access(0, sys.Handle(1), coherence.RFO, 0, faa, func(coherence.AccessResult) {})
		eng.Drain()
		sys.BreakLine(1, 2) // ghost sharer alongside owner 0
		return chk.Finalize()
	}
	err := run()
	if err == nil {
		t.Fatal("seeded double owner escaped the checker")
	}
	msg := err.Error()
	if !strings.HasPrefix(msg, "invariant: 1 violation(s)") {
		t.Fatalf("report %q lacks the violation-count prefix", msg)
	}
	if !strings.Contains(msg, "line 1: owner 0 coexists with 1 sharers") {
		t.Fatalf("report %q does not pinpoint the double owner", msg)
	}
	// The report must be deterministic: same seed state, same bytes.
	if second := run(); second == nil || second.Error() != msg {
		t.Fatalf("reports differ across identical runs:\n  %v\n  %v", msg, second)
	}
}

// TestCorruptedParkedLineCaught parks a spinner (an owner re-reading
// its own value) under the checker, as -check runs do, then rewrites
// the line's value behind it with SetValue: the parked re-reads would
// be observing a value the line no longer holds, and Finalize must
// report it.
func TestCorruptedParkedLineCaught(t *testing.T) {
	eng, sys, chk := checkedSystem(t, nil)
	sys.SetParking(true)
	sys.Access(0, sys.Handle(1), coherence.RFO, 0, faa, func(coherence.AccessResult) {})
	eng.Drain()
	var spin func(coherence.AccessResult)
	spin = func(r coherence.AccessResult) { sys.Await(0, sys.Handle(1), 0, 1, 0, nil, spin) }
	spin(coherence.AccessResult{})
	if eng.Parked() != 1 {
		t.Fatalf("%d spinners parked, want 1", eng.Parked())
	}
	eng.Run(eng.Now() + 20*sim.Nanosecond)
	sys.SetValue(1, 9)
	err := chk.Finalize()
	if err == nil || !strings.Contains(err.Error(), "line 1: core 0 parked on value 1, line holds 9") {
		t.Fatalf("Finalize = %v, want the parked-value violation", err)
	}
}

func TestOnlineSingleOwnerAndRangeChecks(t *testing.T) {
	_, _, chk := checkedSystem(t, nil)
	chk.LineGranted(coherence.AuditGrant{
		Line: 7, Core: 1, Kind: coherence.RFO,
		Owner: 2, Sharers: 3, Valid: true,
	})
	chk.LineGranted(coherence.AuditGrant{
		Line: 8, Core: 0, Kind: coherence.Read,
		Owner: 99, Sharers: 0, Valid: true, // out of the 8-core range
	})
	chk.LineGranted(coherence.AuditGrant{
		Line: 9, Core: 0, Kind: coherence.Read,
		Owner: 3, Valid: false, // cached but marked invalid
	})
	v := chk.Violations()
	if len(v) != 3 {
		t.Fatalf("violations = %v, want exactly 3", v)
	}
	if !strings.Contains(v[0], "single-owner: line 7 owned by core 2") ||
		!strings.Contains(v[0], "3 sharers") {
		t.Fatalf("double-owner report: %q", v[0])
	}
	if !strings.Contains(v[1], "owner-range: line 8 owner 99 outside [0,8)") {
		t.Fatalf("owner-range report: %q", v[1])
	}
	if !strings.Contains(v[2], "single-owner: line 9 cached (owner 3, 0 sharers) but marked not valid") {
		t.Fatalf("invalid-but-cached report: %q", v[2])
	}
}

func TestGrantTimeMonotonicity(t *testing.T) {
	_, _, chk := checkedSystem(t, nil)
	chk.LineGranted(coherence.AuditGrant{Line: 1, Core: 0, Owner: 0, Valid: true, At: 100 * sim.Nanosecond})
	chk.LineGranted(coherence.AuditGrant{Line: 1, Core: 1, Owner: 1, Valid: true, At: 50 * sim.Nanosecond})
	v := chk.Violations()
	if len(v) != 1 || !strings.Contains(v[0], "event-monotone: line 1 granted at t=50.000ns after a grant at t=100.000ns") {
		t.Fatalf("violations = %v, want one grant-time regression", v)
	}
	// A different line keeps its own clock: no cross-line false positive.
	chk.LineGranted(coherence.AuditGrant{Line: 2, Core: 0, Owner: 0, Valid: true, At: 60 * sim.Nanosecond})
	if len(chk.Violations()) != 1 {
		t.Fatalf("cross-line grant flagged: %v", chk.Violations())
	}
}

func TestSkipBound(t *testing.T) {
	_, _, chk := checkedSystem(t, &coherence.LocalityArbiter{MaxSkips: 4})
	// Skipped == bound + queue is legal: every queued request could also
	// be at the bound and force-granted first.
	chk.LineGranted(coherence.AuditGrant{Line: 1, Core: 0, Owner: 0, Valid: true, Skipped: 6, QueueLen: 2})
	if v := chk.Violations(); len(v) != 0 {
		t.Fatalf("legal skip count flagged: %v", v)
	}
	chk.LineGranted(coherence.AuditGrant{Line: 1, Core: 0, Owner: 0, Valid: true, Skipped: 10, QueueLen: 2})
	v := chk.Violations()
	if len(v) != 1 || !strings.Contains(v[0], "skip-bound: line 1 granted core 0 after 10 skips (bound 4, queue 2)") {
		t.Fatalf("violations = %v, want one starvation report", v)
	}
}

func TestSkipBoundIgnoredForUnboundedArbiters(t *testing.T) {
	_, _, chk := checkedSystem(t, coherence.FIFOArbiter{})
	chk.LineGranted(coherence.AuditGrant{Line: 1, Core: 0, Owner: 0, Valid: true, Skipped: 1000})
	if v := chk.Violations(); len(v) != 0 {
		t.Fatalf("unbounded arbiter flagged for skips: %v", v)
	}
}

func TestValueConservation(t *testing.T) {
	_, _, chk := checkedSystem(t, nil)
	chk.ValueSeeded(3, 10)
	chk.AccessCompleted(coherence.AuditComplete{Line: 3, Core: 0, Kind: coherence.RFO,
		Observed: 10, Wrote: true, New: 11})
	chk.AccessCompleted(coherence.AuditComplete{Line: 3, Core: 1, Kind: coherence.Read,
		Observed: 11})
	if v := chk.Violations(); len(v) != 0 {
		t.Fatalf("intact value chain flagged: %v", v)
	}
	// A torn/lost update: the next serialized access sees a value nobody
	// wrote.
	chk.AccessCompleted(coherence.AuditComplete{Line: 3, Core: 2, Kind: coherence.RFO,
		Observed: 99, Wrote: true, New: 100})
	v := chk.Violations()
	if len(v) != 1 || !strings.Contains(v[0], "value-conserve: line 3 RFO by core 2 observed 99, last serialized value was 11 (lost update)") {
		t.Fatalf("violations = %v, want one lost update", v)
	}
	// The chain re-anchors on the observed value, so one corruption
	// yields one report, not a cascade.
	chk.AccessCompleted(coherence.AuditComplete{Line: 3, Core: 3, Kind: coherence.Read,
		Observed: 100})
	if len(chk.Violations()) != 1 {
		t.Fatalf("corruption cascaded: %v", chk.Violations())
	}
}

func TestQueueConservation(t *testing.T) {
	_, sys, chk := checkedSystem(t, nil)
	_ = sys
	chk.LineEnqueued(5, 1) // enqueued but never granted and not queued
	err := chk.Finalize()
	if err == nil || !strings.Contains(err.Error(), "queue-conserve: line 5 enqueued 1 requests but granted 0 with 0 still queued") {
		t.Fatalf("lost request not reported: %v", err)
	}
}

func TestViolationCapKeepsCount(t *testing.T) {
	_, _, chk := checkedSystem(t, nil)
	for i := 0; i < 20; i++ {
		chk.LineGranted(coherence.AuditGrant{Line: coherence.LineID(i), Core: 0,
			Owner: 1, Sharers: 1, Valid: true})
	}
	err := chk.Err()
	if err == nil {
		t.Fatal("no error after 20 violations")
	}
	msg := err.Error()
	if !strings.HasPrefix(msg, "invariant: 20 violation(s)") {
		t.Fatalf("report %q lost the true count", msg)
	}
	if !strings.Contains(msg, "(+12 more violations)") {
		t.Fatalf("report %q does not mark truncation", msg)
	}
	if got := len(chk.Violations()); got != 8 {
		t.Fatalf("recorded %d violations, cap is 8", got)
	}
}
