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
// one; an unparked chain's callback may spawn in turn.
func replayParked(data []byte, parked bool) *parkRun {
	r := &parkRun{e: NewEngine(), parked: parked, period: Time(data[0]%4+1) * Nanosecond}
	var act func(i int, b byte)
	act = func(i int, b byte) {
		r.record("ev")
		d := Time(b%5) * Nanosecond
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
			r.e.ScheduleAs(int32(i%9), Time(b%32)*Nanosecond, fn)
		} else {
			r.e.At(Time(b%32)*Nanosecond, fn)
		}
	}
	r.e.Run(48 * Nanosecond)
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
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		if len(data) > 512 {
			data = data[:512]
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
