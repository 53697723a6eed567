package sim

import (
	"fmt"
	"testing"
)

// parkRun is one engine of a park-lane differential: either parked
// chains on the park lane, or the reference, where every tick is a real
// event that re-schedules itself one period later. Both record the
// dispatch order of every real event as (owner, time), plus each
// unparked chain's tick count.
type parkRun struct {
	e      *Engine
	parked bool
	period Time
	log    []string
	// Per logical chain: the parked engine's ID, or the reference's
	// state; done marks a chain already unparked.
	ids  []ParkID
	refs []*refChain
	done []bool
}

// refChain is a reference chain: a real event that repeats itself
// every period until unparked, then runs fn instead.
type refChain struct {
	ticks    uint64
	unparked bool
	fn       func()
}

func (r *parkRun) record(tag string) {
	r.log = append(r.log, fmt.Sprintf("%s:%d@%d", tag, r.e.Owner(), r.e.Now()))
}

// park starts a new logical chain owned by owner.
func (r *parkRun) park(owner int32) {
	r.done = append(r.done, false)
	if r.parked {
		id, ok := r.e.Park(owner, r.period)
		if !ok {
			panic("park declined")
		}
		r.ids = append(r.ids, id)
		return
	}
	c := &refChain{}
	r.refs = append(r.refs, c)
	var tick func()
	tick = func() {
		if c.unparked {
			c.fn()
			return
		}
		c.ticks++
		r.e.Schedule(r.period, tick)
	}
	r.e.ScheduleAs(owner, r.period, tick)
}

// unpark wakes logical chain k (if it is still parked) with fn.
func (r *parkRun) unpark(k int, fn func()) {
	if k >= len(r.done) || r.done[k] {
		return
	}
	r.done[k] = true
	var ticks uint64
	if r.parked {
		ticks = r.e.Unpark(r.ids[k], fn)
	} else {
		c := r.refs[k]
		c.unparked, c.fn = true, fn
		ticks = c.ticks
	}
	r.log = append(r.log, fmt.Sprintf("unpark %d after %d ticks", k, ticks))
}

// replayParked drives one engine through the schedule data encodes.
// Every byte is an initial event (absolute time, compressed into a
// narrow range to force ties) whose callback, by the byte's value,
// spawns a Schedule, ScheduleAs or At child, parks a chain, or unparks
// one; an unparked chain's callback may spawn in turn. data[0] picks
// the 1–4ns period and, from 128 up, spreads every event time and
// delay 250 times wider: gaps of microseconds between real events,
// which the parked engine crosses in closed form (Engine.jumpTicks)
// over thousands of ticks.
func replayParked(data []byte, parked bool) *parkRun {
	r := &parkRun{e: NewEngine(), parked: parked, period: Time(data[0]%4+1) * Nanosecond}
	unit := Nanosecond
	if data[0] >= 128 {
		unit *= 250
	}
	var act func(i int, b byte)
	act = func(i int, b byte) {
		r.record("ev")
		d := Time(b%5) * unit
		child := func() { r.record("child") }
		switch b % 6 {
		case 0:
			r.e.Schedule(d, child)
		case 1:
			r.e.ScheduleAs(int32(i%5), d, child)
		case 2:
			r.e.At(r.e.Now()+d, child)
		case 3, 4:
			r.park(int32(i % 7))
		case 5:
			r.unpark(int(b/6)%(len(r.done)+1), func() {
				r.record("woke")
				if b%2 == 0 {
					r.park(int32(i % 5))
				}
			})
		}
	}
	for i, b := range data[1:] {
		i, b := i, b
		fn := func() { act(i, b) }
		if i%3 == 0 {
			r.e.ScheduleAs(int32(i%9), Time(b%32)*unit, fn)
		} else {
			r.e.At(Time(b%32)*unit, fn)
		}
	}
	r.e.Run(48 * unit)
	r.log = append(r.log, fmt.Sprintf("now=%d processed=%d qt=%d peak=%d pending=%d",
		r.e.Now(), r.e.Processed(), r.e.QueueTimeIntegral(), r.e.MaxPending(), r.e.Pending()))
	return r
}

// FuzzParkedLane checks the park lane against a reference run in which
// every tick is a real no-op event re-scheduling itself: the dispatch
// order of every real event (owner and time), each chain's tick count
// at its unpark, Processed, QueueTimeIntegral, MaxPending and Pending
// must all be identical, however parks, unparks and heap and
// express-lane events interleave.
func FuzzParkedLane(f *testing.F) {
	f.Add([]byte{0, 3, 3, 5, 11, 17})
	f.Add([]byte{1, 4, 4, 4, 5, 5, 5, 23, 29, 0, 1, 2})
	f.Add([]byte{3, 255, 3, 255, 4, 200, 5, 10, 9, 15, 21, 27})
	f.Add([]byte{2, 10, 200, 10, 200, 10, 200, 10, 201, 207, 213})
	// Microsecond gaps: jumps of thousands of ticks, across parks,
	// unparks and re-parks.
	f.Add([]byte{128, 3, 9, 3, 15, 5, 21, 31})
	f.Add([]byte{131, 4, 4, 4, 5, 5, 5, 23, 29, 0, 1, 2})
	f.Add([]byte{130, 3, 255, 3, 255, 4, 200, 5, 10, 9, 15, 21, 27})
	f.Add([]byte{129, 10, 200, 10, 200, 10, 200, 10, 201, 207, 213, 4, 16})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		// The reference dispatches every tick of every chain, so wide
		// schedules keep fewer chains.
		if n := 512; data[0] >= 128 && len(data) > 64 {
			data = data[:64]
		} else if len(data) > n {
			data = data[:n]
		}
		ref, got := replayParked(data, false), replayParked(data, true)
		if len(ref.log) != len(got.log) {
			t.Fatalf("parked run logged %d entries, reference %d\nref: %v\ngot: %v", len(got.log), len(ref.log), ref.log, got.log)
		}
		for i := range ref.log {
			if ref.log[i] != got.log[i] {
				t.Fatalf("entry %d: parked %q, reference %q\nref: %v\ngot: %v", i, got.log[i], ref.log[i], ref.log, got.log)
			}
		}
	})
}

// TestParkLaneMatchesRepeatingEvent pins a small case by hand: two
// chains tick in (time, sequence) order among ordinary events, the
// engine's counters match a run with real repeat events, and Unpark
// runs its callback at the pending tick's exact place.
func TestParkLaneMatchesRepeatingEvent(t *testing.T) {
	for _, data := range [][]byte{
		{0, 3, 9, 3, 15, 5, 21},
		{1, 4, 10, 4, 5, 11, 17, 23, 29},
	} {
		ref, got := replayParked(data, false), replayParked(data, true)
		if fmt.Sprint(ref.log) != fmt.Sprint(got.log) {
			t.Errorf("data %v:\nref: %v\ngot: %v", data, ref.log, got.log)
		}
	}
	e := NewEngine()
	id, ok := e.Park(3, 2*Nanosecond)
	if !ok {
		t.Fatal("Park declined on an idle engine")
	}
	var woke Time
	var owner int32
	e.At(5*Nanosecond, func() { e.Unpark(id, func() { woke, owner = e.Now(), e.Owner() }) })
	e.Drain()
	// Ticks at 2ns and 4ns; the tick pending at 6ns becomes the event.
	if woke != 6*Nanosecond || owner != 3 || e.Processed() != 4 || e.Parked() != 0 {
		t.Fatalf("woke at %v owner %d after %d events with %d parked; want 6ns, owner 3, 4 events, 0 parked",
			woke, owner, e.Processed(), e.Parked())
	}
}

func TestParkDeclines(t *testing.T) {
	e := NewEngine()
	if _, ok := e.Park(0, 0); ok {
		t.Fatal("Park accepted a zero period")
	}
	if _, ok := e.Park(0, Nanosecond); !ok {
		t.Fatal("Park declined on an idle engine")
	}
	if _, ok := e.Park(1, 2*Nanosecond); ok {
		t.Fatal("Park accepted a second period while a chain is parked")
	}
	e.Reset()
	if e.Pending() != 0 || e.Parked() != 0 {
		t.Fatalf("Reset left %d pending, %d parked", e.Pending(), e.Parked())
	}
	if _, ok := e.Park(1, 2*Nanosecond); !ok {
		t.Fatal("Park declined a new period after Reset")
	}
	e.Reset()
	e.SetPerturb(func(d Time) Time { return d })
	if _, ok := e.Park(0, Nanosecond); ok {
		t.Fatal("Park accepted a chain under a perturbation hook")
	}
}

// TestParkLaneGrowsAndWraps parks more chains than the ring's initial
// capacity, unparks every other one mid-run, and checks each chain
// keeps exactly one live entry and its own tick count.
func TestParkLaneGrowsAndWraps(t *testing.T) {
	e := NewEngine()
	var ids []ParkID
	for i := 0; i < 3*parkMinCap; i++ {
		id, ok := e.Park(int32(i), Nanosecond)
		if !ok {
			t.Fatal("Park declined")
		}
		ids = append(ids, id)
	}
	woken := 0
	e.At(10*Nanosecond, func() {
		for i := 0; i < len(ids); i += 2 {
			if n := e.Unpark(ids[i], func() { woken++ }); n != 9 {
				t.Errorf("chain %d: %d ticks by 10ns, want 9", i, n)
			}
		}
	})
	e.Run(20 * Nanosecond)
	if woken != len(ids)/2 {
		t.Fatalf("%d unparked callbacks ran, want %d", woken, len(ids)/2)
	}
	for i := 1; i < len(ids); i += 2 {
		if n := e.ParkEntries(ids[i]); n != 1 {
			t.Errorf("chain %d has %d lane entries, want 1", i, n)
		}
		if n := e.ParkTicks(ids[i]); n != 20 {
			t.Errorf("chain %d: %d ticks by 20ns, want 20", i, n)
		}
	}
	if e.Pending() != len(ids)/2 {
		t.Fatalf("pending = %d, want %d", e.Pending(), len(ids)/2)
	}
}

// TestParkJumpTie pins the equal-last-tick tie by hand. Chain a parks
// at 0 and ticks at 2, 4, 6, ...; the event at 6 runs before a's tick
// there (its sequence number is older) and parks chain b, whose first
// tick is at 8. The event at 101 bounds a jump over both chains: a
// ticks 48 times and b 47, both last at 100. Tick by tick, a's tick at
// 8 took its number at 6, after b parked, so b precedes a at every
// shared instant, and both chains' ticks due at 102 wake in the order
// b, a. A merge that broke the tie by ring order would wake a first.
func TestParkJumpTie(t *testing.T) {
	for _, parked := range []bool{false, true} {
		r := &parkRun{e: NewEngine(), parked: parked, period: 2 * Nanosecond}
		r.park(0)
		r.e.At(6*Nanosecond, func() { r.park(1) })
		r.e.At(101*Nanosecond, func() {
			r.unpark(0, func() { r.record("a") })
			r.unpark(1, func() { r.record("b") })
		})
		r.e.Drain()
		want := "[unpark 0 after 50 ticks unpark 1 after 47 ticks b:1@102000 a:0@102000]"
		if got := fmt.Sprint(r.log); got != want {
			t.Errorf("parked=%v: log %s, want %s", parked, got, want)
		}
		if r.e.Processed() != 2+50+47+2 {
			t.Errorf("parked=%v: %d events processed, want 101", parked, r.e.Processed())
		}
	}
}

// TestParkJumpStandsDown checks that the closed-form jump stands down
// under an event hook and an idle hook: each must see every tick as a
// dispatch of its own, the event hook with consecutive counts.
func TestParkJumpStandsDown(t *testing.T) {
	for _, hook := range []string{"event", "idle"} {
		e := NewEngine()
		var calls uint64
		switch hook {
		case "event":
			e.SetEventHook(func(n uint64) {
				if calls++; n != calls {
					t.Fatalf("event hook saw count %d at call %d", n, calls)
				}
			})
		case "idle":
			e.SetIdleHook(func() { calls++ })
		}
		if _, ok := e.Park(0, Nanosecond); !ok {
			t.Fatal("Park declined")
		}
		e.At(Microsecond, func() {})
		e.Run(2 * Microsecond)
		if calls != e.Processed() || calls != 2001 {
			t.Errorf("%s hook: %d calls for %d events, want 2001 each", hook, calls, e.Processed())
		}
	}
}

// TestParkJumpCrossesGap checks what one jump leaves behind: a gap of
// a microsecond between real events, crossed by three chains, ends
// with the clock on the last tick before the next event, every tick
// counted, and the queue-time integral that tick-by-tick dispatch
// accrues.
func TestParkJumpCrossesGap(t *testing.T) {
	run := func(hook bool) *Engine {
		e := NewEngine()
		if hook {
			e.SetIdleHook(func() {}) // forces tick-by-tick dispatch
		}
		for i := int32(0); i < 3; i++ {
			e.At(Time(i)*Nanosecond, func() { e.Park(i, 3*Nanosecond) })
		}
		e.At(Microsecond, func() {})
		e.Run(Microsecond)
		return e
	}
	ref, got := run(true), run(false)
	if got.Now() != ref.Now() || got.Processed() != ref.Processed() ||
		got.QueueTimeIntegral() != ref.QueueTimeIntegral() || got.Pending() != ref.Pending() {
		t.Fatalf("jump: now %v processed %d qt %d pending %d; tick by tick: now %v processed %d qt %d pending %d",
			got.Now(), got.Processed(), got.QueueTimeIntegral(), got.Pending(),
			ref.Now(), ref.Processed(), ref.QueueTimeIntegral(), ref.Pending())
	}
	for id := ParkID(0); id < 3; id++ {
		if got.ParkTicks(id) != ref.ParkTicks(id) {
			t.Errorf("chain %d: %d ticks, tick by tick %d", id, got.ParkTicks(id), ref.ParkTicks(id))
		}
	}
}
