package sim

import (
	"testing"
)

// runScript schedules a deterministic pseudo-random event set on e —
// including events that schedule children mid-run, through Schedule
// (which takes the express lane when the child fits it) when express is
// set and through At(now+d) (always the heap) otherwise — and returns
// the order in which event ids executed. The schedule depends only on
// seed, so any two engines given the same seed must replay identically.
func runScript(e *Engine, seed uint64, n int, express bool) []int {
	r := NewRNG(seed)
	var order []int
	id := 0
	for i := 0; i < n; i++ {
		id++
		myID := id
		at := Time(r.Intn(int(50 * Nanosecond)))
		spawn := r.Intn(4) == 0
		childDelay := Time(r.Intn(int(5 * Nanosecond)))
		e.At(at, func() {
			order = append(order, myID)
			if spawn {
				childID := -myID
				fn := func() { order = append(order, childID) }
				if express {
					e.Schedule(childDelay, fn)
				} else {
					e.At(e.Now()+childDelay, fn)
				}
			}
		})
	}
	e.Run(Second)
	return order
}

// laneLen is the number of events waiting on the express lane.
func laneLen(e *Engine) int { return len(e.express) - e.exHead }

// TestExpressLaneEquivalence checks that Schedule routing eligible
// events through the express lane changes nothing about execution order
// against a heap-only replay, with and without a perturbation hook.
func TestExpressLaneEquivalence(t *testing.T) {
	for _, seed := range []uint64{3, 99} {
		plain := runScript(NewEngine(), seed, 400, false)
		express := runScript(NewEngine(), seed, 400, true)
		if !equalInts(plain, express) {
			t.Fatalf("seed %d: express-lane order diverges from heap order", seed)
		}
		// A perturbed engine takes the lane too; the identity hook must
		// leave the order untouched.
		e := NewEngine()
		e.SetPerturb(func(d Time) Time { return d })
		if !equalInts(plain, runScript(e, seed, 400, true)) {
			t.Fatalf("seed %d: perturbed express-lane order diverges from heap order", seed)
		}
	}
}

// TestExpressLaneRejections pins when Schedule takes the lane: during
// dispatch, within the horizon and in the lane's time order. It stays
// on the heap outside Run, past the horizon and out of order, and At
// never takes it. A perturbed engine takes the lane with the perturbed
// delay, consulting the hook once per event.
func TestExpressLaneRejections(t *testing.T) {
	e := NewEngine()
	e.Schedule(0, func() {})
	if laneLen(e) != 0 {
		t.Fatal("Schedule took the lane outside Run")
	}
	e.Schedule(Nanosecond, func() {
		e.Schedule(Nanosecond, func() {})
		if laneLen(e) != 1 {
			t.Error("Schedule kept a plain in-horizon event off the lane")
		}
		// Earlier than the lane tail just scheduled above.
		e.Schedule(0, func() {})
		if laneLen(e) != 1 {
			t.Error("Schedule put an out-of-order event on the lane")
		}
		e.Schedule(Second, func() {})
		if laneLen(e) != 1 {
			t.Error("Schedule put an event past the horizon on the lane")
		}
		e.At(e.Now()+2*Nanosecond, func() {})
		if laneLen(e) != 1 {
			t.Error("At put an event on the lane")
		}
	})
	e.Run(10 * Nanosecond)

	e2 := NewEngine()
	calls := 0
	e2.SetPerturb(func(d Time) Time { calls++; return 2 * d })
	var at Time
	e2.Schedule(0, func() {
		e2.Schedule(Nanosecond, func() { at = e2.Now() })
		if laneLen(e2) != 1 {
			t.Error("Schedule kept a perturbed in-horizon event off the lane")
		}
	})
	e2.Run(Second)
	if calls != 2 || at != 2*Nanosecond {
		t.Fatalf("perturb hook ran %d times and the lane event at %v, want 2 and 2ns", calls, at)
	}
}

// TestExpressLaneBacklogCap verifies Schedule sends overflow to the
// heap once the lane's backlog bound is hit, and that pending/processed
// accounting still matches.
func TestExpressLaneBacklogCap(t *testing.T) {
	e := NewEngine()
	ran, accepted := 0, 0
	e.Schedule(0, func() {
		for i := 0; i < expressBacklog+10; i++ {
			e.Schedule(Nanosecond, func() { ran++ })
		}
		accepted = laneLen(e)
	})
	e.Run(Second)
	if accepted != expressBacklog {
		t.Fatalf("lane accepted %d events, want cap %d", accepted, expressBacklog)
	}
	if ran != expressBacklog+10 {
		t.Fatalf("ran %d events, want %d", ran, expressBacklog+10)
	}
	if e.Pending() != 0 || e.Processed() != uint64(expressBacklog+11) {
		t.Fatalf("pending=%d processed=%d after drain", e.Pending(), e.Processed())
	}
}

// TestPendingAccounting checks Pending/MaxPending span the heap and the
// express lane.
func TestPendingAccounting(t *testing.T) {
	e := NewEngine()
	e.At(0, func() {
		for i := 0; i < 5; i++ {
			e.Schedule(Nanosecond, func() {})
		}
		if laneLen(e) != 5 {
			t.Errorf("lane holds %d in-order events, want 5", laneLen(e))
		}
	})
	for i := 1; i < 10; i++ {
		e.At(Time(i)*Nanosecond, func() {})
	}
	if e.Pending() != 10 || e.MaxPending() != 10 {
		t.Fatalf("pending=%d max=%d, want 10/10", e.Pending(), e.MaxPending())
	}
	e.Run(Second)
	if e.Pending() != 0 || e.MaxPending() != 14 || e.Processed() != 15 {
		t.Fatalf("after run: pending=%d max=%d processed=%d, want 0/14/15", e.Pending(), e.MaxPending(), e.Processed())
	}
}

// TestShiftPendingAndJumpClock exercises the fast-forward hooks: a
// shift translates owned events, preserving their relative order and
// owners, while an unowned marker keeps its time (and so may now run
// first); JumpClock credits skipped events to Processed and queue time
// to the integral, and overtaking a pending event panics.
func TestShiftPendingAndJumpClock(t *testing.T) {
	e := NewEngine()
	var fired []Time
	var owners []int32
	record := func() { fired = append(fired, e.Now()); owners = append(owners, e.Owner()) }
	e.ScheduleAs(1, 10*Nanosecond, record)
	e.ScheduleAs(2, 20*Nanosecond, record)
	e.At(115*Nanosecond, record) // unowned marker
	if !e.ShiftPending(100 * Nanosecond) {
		t.Fatal("ShiftPending declined with no unowned event on the express lane")
	}
	e.JumpClock(105*Nanosecond, 7, 3)
	if e.Processed() != 7 || e.QueueTimeIntegral() != 3 {
		t.Fatalf("processed = %d, queue time = %v after JumpClock credit, want 7 and 3ps", e.Processed(), e.QueueTimeIntegral())
	}
	e.Run(Second)
	want := []Time{110 * Nanosecond, 115 * Nanosecond, 120 * Nanosecond}
	if len(fired) != 3 || fired[0] != want[0] || fired[1] != want[1] || fired[2] != want[2] {
		t.Fatalf("events fired at %v, want %v", fired, want)
	}
	if owners[0] != 1 || owners[1] != NoOwner || owners[2] != 2 {
		t.Fatalf("events ran as owners %v, want [1 -1 2]", owners)
	}
	if e.Processed() != 10 {
		t.Fatalf("processed = %d, want 10", e.Processed())
	}

	defer func() {
		if recover() == nil {
			t.Fatal("JumpClock overtaking a pending event did not panic")
		}
	}()
	e2 := NewEngine()
	e2.At(Nanosecond, func() {})
	e2.JumpClock(2*Nanosecond, 0, 0)
}

// TestEngineReset verifies a reset engine replays a script identically
// to a fresh one — the arena-reuse contract.
func TestEngineReset(t *testing.T) {
	fresh := runScript(NewEngine(), 42, 300, true)
	e := NewEngine()
	_ = runScript(e, 7, 300, true)
	e.Reset()
	if e.Now() != 0 || e.Pending() != 0 || e.Processed() != 0 || e.MaxPending() != 0 {
		t.Fatalf("Reset left state: now=%v pending=%d processed=%d max=%d",
			e.Now(), e.Pending(), e.Processed(), e.MaxPending())
	}
	reused := runScript(e, 42, 300, true)
	if !equalInts(fresh, reused) {
		t.Fatal("reset engine diverges from a fresh engine on the same script")
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// BenchmarkEventHeapPushPop pins the heap's cost: a steady-state
// push/pop mix at a fixed queue depth, the pattern the dispatcher
// produces while a cell is in flight.
func BenchmarkEventHeapPushPop(b *testing.B) {
	var h eventHeap
	r := NewRNG(1)
	const depth = 256
	for i := 0; i < depth; i++ {
		h.push(event{at: Time(r.Intn(1 << 20)), seq: uint64(i)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := h.pop()
		ev.at += Time(r.Intn(1 << 12))
		ev.seq = uint64(depth + i)
		h.push(ev)
	}
}

// TestAppendCycleKey: the queue fingerprint is invariant to translating
// the owned events in time (an unowned marker keeps its absolute time)
// and sensitive to which owner holds which slot.
func TestAppendCycleKey(t *testing.T) {
	key := func(now Time, owners ...int32) string {
		e := NewEngine()
		e.Run(now) // empty queue: just advances the clock
		for i, o := range owners {
			e.ScheduleAs(o, Time(i+1)*Nanosecond, func() {})
		}
		e.At(Second, func() {})
		return string(e.AppendCycleKey(nil))
	}
	if key(0, 3, 5) != key(7*Nanosecond, 3, 5) {
		t.Fatal("translated queues fingerprint differently")
	}
	if key(0, 3, 5) == key(0, 5, 3) {
		t.Fatal("swapped owners fingerprint the same")
	}
}
