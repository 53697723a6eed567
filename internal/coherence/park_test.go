package coherence

import (
	"fmt"
	"strings"
	"testing"

	"atomicsmodel/internal/sim"
)

// spinner re-issues Await on a line while it observes seen, the way
// atomics.Memory.AwaitChange does, and records the change it ends on.
// With a budget it loads in runs of that many loads, each announced to
// Await as its budget, the way a read mix's runs of loads are (each
// load's budget is what is left of its run): the spin itself is the
// same, only its parked chains are bounded.
type spinner struct {
	s      *System
	core   int
	line   Line
	seen   uint64
	loads  uint64
	woke   sim.Time
	got    uint64
	fn     func(AccessResult)
	budget uint64
	// left is the loads left in the current run, issued counts the
	// loads at the latest issue.
	left, issued uint64
}

func newSpinner(s *System, core int, id LineID, seen, budget uint64) *spinner {
	sp := &spinner{s: s, core: core, line: s.Handle(id), seen: seen, budget: budget, left: budget}
	sp.fn = func(r AccessResult) {
		if sp.budget > 0 {
			// The completed load and every tick of a parked run.
			if sp.left -= 1 + sp.loads - sp.issued; sp.left == 0 {
				sp.left = sp.budget
			}
		}
		if r.Value == sp.seen {
			sp.issue()
			return
		}
		sp.woke, sp.got = s.Engine().Now(), r.Value
	}
	return sp
}

func (sp *spinner) issue() {
	sp.loads++
	sp.issued = sp.loads
	sp.s.Await(sp.core, sp.line, 0, sp.seen, sp.left, &sp.loads, sp.fn)
}

// parkScript runs one spin scenario on line 16 of the test system with
// parking on or off and returns its log: what the spinner saw and when,
// its load count, and at every probe the settled counters, the access
// ledger and the engine's counts — everything parking must leave
// unchanged (a parked spinner's re-reads land in the ledger's class 0
// as they are settled). Core 1 spins on value 1, held as owner (it won a
// TAS, like a TTAS waiter after its failed one) or as a sharer (core 0
// wrote 1, core 1 read it). With parking on, each probe also asserts
// whether the spinner is parked. The script: two other
// cores read the line (for the owner, core 2's read is an M→S
// downgrade; core 3's is a pipelined LLC read adding a sharer), then,
// by trigger, another core's RFO or EvictPrivate removes the
// spinner's copy, or a hyperthread sibling on the spinner's own core
// stores through a long RFO service. An eviction leaves the value in
// place, so the spinner refetches, parks again, and a final store by
// core 0 ends the spin. The sibling's grant wakes the spinner, whose
// next re-read hits the copy its core now owns and parks again; the
// sibling's write, not a grant, must wake it this time. A budget makes
// the spinner load in runs of that many loads (see spinner).
func parkScript(t *testing.T, parking, owner bool, trigger string, budget uint64) []string {
	t.Helper()
	eng, s := testSystem(t, nil)
	const id LineID = 16
	tas := func(uint64) (uint64, bool) { return 1, true }
	if owner {
		access(t, eng, s, 1, id, RFO, 0, tas)
	} else {
		access(t, eng, s, 0, id, RFO, 0, storeApply(1))
		access(t, eng, s, 1, id, Read, 0, nil)
	}
	s.SetParking(parking)
	sp := newSpinner(s, 1, id, 1, budget)
	var log []string
	probe := func(at sim.Time, wantParked bool) {
		eng.At(at, func() {
			st := s.Stats()
			log = append(log, fmt.Sprintf("t=%v loads=%d stats=%+v ledger=%v processed=%d pending=%d",
				eng.Now(), sp.loads, st, ledger(s), eng.Processed(), eng.Pending()))
			if parking && (eng.Parked() == 1) != wantParked {
				t.Errorf("owner=%v %s budget %d: at %v parked=%d, want parked=%v", owner, trigger, budget, eng.Now(), eng.Parked(), wantParked)
			}
			if err := s.CheckInvariants(); err != nil {
				t.Errorf("owner=%v %s budget %d: at %v: %v", owner, trigger, budget, eng.Now(), err)
			}
		})
	}
	t0 := eng.Now()
	eng.At(t0, sp.issue)
	probe(t0+15*sim.Nanosecond, true)
	eng.At(t0+20*sim.Nanosecond, func() { s.Access(2, s.Handle(id), Read, 0, nil, nil) })
	eng.At(t0+30*sim.Nanosecond, func() { s.Access(3, s.Handle(id), Read, 0, nil, nil) })
	probe(t0+55*sim.Nanosecond, true)
	switch trigger {
	case "rfo":
		eng.At(t0+60*sim.Nanosecond, func() { s.Access(4, s.Handle(id), RFO, 5*sim.Nanosecond, storeApply(7), nil) })
	case "sibling":
		eng.At(t0+60*sim.Nanosecond, func() { s.Access(1, s.Handle(id), RFO, 20*sim.Nanosecond, storeApply(3), nil) })
		probe(t0+70*sim.Nanosecond, true)
	case "evict":
		eng.At(t0+60*sim.Nanosecond, func() { s.EvictPrivate(id) })
		probe(t0+60*sim.Nanosecond, false)
		probe(t0+100*sim.Nanosecond, true)
		eng.At(t0+120*sim.Nanosecond, func() { s.Access(0, s.Handle(id), RFO, 0, storeApply(2), nil) })
	}
	probe(t0+200*sim.Nanosecond, false)
	eng.Run(t0 + 300*sim.Nanosecond)
	log = append(log, fmt.Sprintf("woke=%v got=%d loads=%d processed=%d qt=%d peak=%d",
		sp.woke, sp.got, sp.loads, eng.Processed(), eng.QueueTimeIntegral(), eng.MaxPending()))
	return log
}

// ledger renders the non-zero classes of s's access ledger.
func ledger(s *System) string {
	var sb strings.Builder
	for c, n := range s.Classes() {
		if n != 0 {
			fmt.Fprintf(&sb, " %d:%d", c, n)
		}
	}
	return sb.String()
}

// TestParkedSpinnerWakesExactly runs every scenario of parkScript with
// parking on and off and requires identical logs: another core's RFO
// grant, EvictPrivate and a sibling's write wake a parked spinner,
// other cores' reads (an M→S downgrade of the owner's line, a pipelined
// LLC read adding a sharer) do not, a spinner parked as the owner
// behaves like one parked as a sharer, and every counter, ledger class
// and engine count matches the unparked run at each probe — for an
// unbounded spinner and for one whose runs of loads park as budgeted
// chains, which end on their own (runs of 2 and 7 loads) or are woken
// early (runs of 40 span the triggers).
func TestParkedSpinnerWakesExactly(t *testing.T) {
	for _, budget := range []uint64{0, 2, 7, 40} {
		for _, owner := range []bool{false, true} {
			for _, trigger := range []string{"rfo", "evict", "sibling"} {
				ref := parkScript(t, false, owner, trigger, budget)
				got := parkScript(t, true, owner, trigger, budget)
				if strings.Join(ref, "\n") != strings.Join(got, "\n") {
					t.Errorf("owner=%v %s budget %d: parked run diverges\n--- unparked ---\n%s\n--- parked ---\n%s",
						owner, trigger, budget, strings.Join(ref, "\n"), strings.Join(got, "\n"))
				}
			}
		}
	}
}

// TestParkingNeedsLocalCopyOfSeen checks the park condition: a spin
// load that misses, or that hits a copy holding a value other than
// seen, schedules a real completion; and an installed tracer, which
// must see every access, keeps parking off.
func TestParkingNeedsLocalCopyOfSeen(t *testing.T) {
	eng, s := testSystem(t, nil)
	s.SetParking(true)
	access(t, eng, s, 0, 16, RFO, 0, storeApply(1))
	var loads uint64
	s.Await(1, s.Handle(16), 0, 1, 0, &loads, func(AccessResult) {}) // miss: core 1 has no copy
	s.Await(0, s.Handle(16), 0, 2, 0, &loads, func(AccessResult) {}) // hit, but the line holds 1
	if eng.Parked() != 0 {
		t.Fatalf("%d spinners parked, want 0", eng.Parked())
	}
	eng.Drain()
	s.SetTracer(func(TraceEvent) {})
	s.Await(0, s.Handle(16), 0, 1, 0, &loads, func(AccessResult) {})
	if eng.Parked() != 0 {
		t.Fatal("spinner parked with a tracer installed")
	}
	eng.Drain()
	s.SetTracer(nil)
	s.Await(0, s.Handle(16), 0, 1, 0, &loads, func(AccessResult) {})
	if eng.Parked() != 1 {
		t.Fatal("owner re-reading its value did not park")
	}
}

// TestCheckInvariantsAuditsParkedSpinners corrupts a parked spinner's
// line with SetValue — the parked re-reads would then be observing a
// value the line no longer holds — and requires the audit to say so.
func TestCheckInvariantsAuditsParkedSpinners(t *testing.T) {
	eng, s := testSystem(t, nil)
	s.SetParking(true)
	access(t, eng, s, 0, 16, RFO, 0, storeApply(1))
	sp := newSpinner(s, 0, 16, 1, 0)
	sp.issue()
	eng.Run(eng.Now() + 10*sim.Nanosecond)
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("clean parked state rejected: %v", err)
	}
	s.SetValue(16, 5)
	err := s.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), "parked on value 1") {
		t.Fatalf("corrupted parked line: err = %v, want a parked-value report", err)
	}
	s.SetValue(16, 1)
	s.line(16).owner = 3 // the spinner's copy vanishes without a wake
	if err := s.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "without a valid copy") {
		t.Fatalf("parked spinner without a copy: err = %v", err)
	}
}
