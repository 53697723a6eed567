// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock in picoseconds and a priority queue
// of events. Events scheduled for the same instant fire in scheduling order,
// which makes every simulation fully deterministic for a given seed and
// schedule, independent of the host machine or Go scheduler. This determinism
// is what lets the repository reproduce the paper's experiments bit-for-bit
// across runs, something raw hardware measurements cannot do.
//
// # One heap and two lanes
//
// Internally the queue is one binary min-heap ordered by (timestamp,
// sequence) plus an express lane and a park lane (below); the
// dispatcher runs the smallest of the three heads, so a run with nothing
// parked pays one empty-lane check per event. Every event carries a unique,
// monotonically assigned sequence number, so the pop order is a strict
// total order. One heap rather than several merged ones: closed-loop
// cells keep about one event per thread pending, too few for shallower
// sifts to repay a merge scan (DESIGN.md has the measurements).
//
// # Express lane
//
// Schedule puts an event on a plain FIFO slice instead of the heap when
// its (timestamp, sequence) pair is known to be >= the lane's current
// tail, as a "schedule the completion of the service I am starting
// right now" often is while few events are pending: the engine is
// dispatching, the event lands within the active horizon, at or after
// the lane's tail, and the lane has room. The dispatcher merges the
// lane head with the heap head under the same (timestamp, sequence)
// rule, so an express event runs at exactly the instant and position a
// heap event would — it just skips both sift paths. Callers never see
// the choice; At always uses the heap. Forcing the lane off costs full
// F3 on XeonE5 about 3% and the metrics-on fleet sweep about 5%
// (DESIGN.md has the measurements).
//
// # Park lane
//
// Park starts a parked chain: an event that would do nothing but
// re-schedule itself every period (in internal/coherence, a core
// re-reading its own valid copy of a line that cannot change until the
// coherence layer wakes it). The chain is one entry on a FIFO ring;
// dispatching it is a tick — the clock, processed-count and
// queue-time bookkeeping of one event, then the entry re-appended one
// period later with the next sequence number, the exact (timestamp,
// sequence) place of the repeat it stands for. All parked chains share
// one period, so the ring stays sorted. Unpark turns a chain's pending
// tick into a real event at that same place. A chain parked with a
// budget of k (a run of k loads the caller knows it will issue, in
// internal/workload a read-mix thread's loads up to its next RMW)
// dispatches k-1 ticks, and then its pending entry is dispatched as a
// real event running the chain's callback at that entry's own
// (timestamp, sequence): the place of the k-th repeat. Where nothing
// but ticks is due for more than a period, the dispatcher crosses the
// stretch in closed form, at a cost of one step per chain rather than
// per tick, stopping short of the next real event and of the earliest
// budgeted chain's final one (park.go, jumpTicks).
//
// # Owners and fast-forward hooks
//
// Every event carries an owner: the small integer a caller names with
// ScheduleAs, or otherwise the owner of the event
// being dispatched when it was scheduled (so a simulated thread's whole
// causal chain stays attributed to it), or NoOwner outside dispatch.
// Owners never affect ordering; they let the analytic fast-forward layer
// (internal/workload's steady-state cycle memoizer) say which pending
// event belongs to whom. AppendCycleKey, ShiftPending, JumpClock and
// SetIdleHook exist for that layer: they let a caller fingerprint the
// queue and, once it has proven the simulation is in an exactly
// periodic regime, translate every owned pending event forward in time,
// advance the clock, processed-event count and queue-time integral by
// the elided amount, and get control between events to do so. They
// preserve all engine invariants but are not meant for general
// scheduling.
//
// In the model pipeline (ARCHITECTURE.md) this package is the bottom
// layer: internal/coherence schedules every protocol message on it,
// and each experiment cell owns a private engine — parallelism lives
// across cells (internal/harness), never inside one.
package sim

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Time is a simulated instant or duration in picoseconds.
//
// Picosecond resolution lets machine descriptions express sub-cycle costs
// (e.g. 0.5 cycles of arbitration at 2.4 GHz) without accumulating rounding
// error over billions of events. An int64 of picoseconds spans about 106
// days of simulated time, far beyond any experiment here.
type Time int64

// Common durations.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Nanoseconds reports t as a floating-point number of nanoseconds.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	case t >= Nanosecond:
		return fmt.Sprintf("%.3fns", t.Nanoseconds())
	default:
		return fmt.Sprintf("%dps", int64(t))
	}
}

// event is a scheduled callback. seq breaks ties so that events scheduled
// earlier at the same instant run first (stable, deterministic ordering),
// and — because it is unique — makes the dispatch order total. Its low ownerBits bits hold the
// event's owner tag (owner+1, 0 for NoOwner) beneath the sequence
// number proper, so the tag costs no space in the heap and cannot
// disturb the order: sequence numbers are unique, so the packed values
// compare exactly as the sequence numbers do.
type event struct {
	at  Time
	seq uint64
	fn  func()
}

// NoOwner is the owner of events scheduled outside dispatch with no
// explicit owner (fixed-time markers such as a measurement boundary).
const NoOwner int32 = -1

// ownerBits is the width of the owner tag packed under each event's
// sequence number: 2^24-1 owners, and 2^40 events per engine lifetime.
const ownerBits = 24

// tag returns the event's owner tag (owner+1; 0 means NoOwner).
func (ev *event) tag() int32 { return seqTag(ev.seq) }

// seqTag extracts the owner tag packed beneath a sequence number.
func seqTag(seq uint64) int32 { return int32(seq & (1<<ownerBits - 1)) }

// ownerTag maps an owner to its packed tag.
func ownerTag(owner int32) int32 {
	if owner < 0 || owner >= 1<<ownerBits-1 {
		return 0
	}
	return owner + 1
}

// before reports whether ev orders strictly before (at, seq). Sequence
// numbers are unique, so this is a strict total order.
func (ev *event) before(at Time, seq uint64) bool {
	return ev.at < at || (ev.at == at && ev.seq < seq)
}

// eventHeap is a binary min-heap of events ordered by (at, seq). It is
// hand-rolled rather than built on container/heap because the interface
// indirection there boxes every pushed and popped event onto the heap —
// two allocations per scheduled event, which dominated simulation cost
// at millions of events per experiment cell. The sift paths move the
// displaced element through a "hole" (one store per level) instead of
// swapping (three stores per level), which matters because each event
// carries a function pointer and therefore a write barrier per store.
type eventHeap []event

// push appends ev and sifts the hole up to its heap position.
func (h *eventHeap) push(ev event) {
	q := append(*h, event{})
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if q[parent].before(ev.at, ev.seq) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = ev
	*h = q
}

// pop removes and returns the minimum event, sifting the former tail
// down through the root hole.
func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	tail := q[n]
	q[n] = event{} // release the callback for GC
	q = q[:n]
	*h = q
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && q[r].before(q[c].at, q[c].seq) {
				c = r
			}
			if tail.before(q[c].at, q[c].seq) {
				break
			}
			q[i] = q[c]
			i = c
		}
		q[i] = tail
	}
	return top
}

// expressBacklog bounds the express lane. The lane is meant for
// imminent events; if a caller somehow parks this many events on it the
// engine pushes further ones through the heap so the lane's linear
// scan-free pop stays cheap.
const expressBacklog = 64

// Engine is a discrete-event simulator. The zero value is ready to use.
// Engines are not safe for concurrent use; a simulation is
// a single-threaded interleaving of events by construction.
type Engine struct {
	now Time
	seq uint64
	// heap holds every scheduled event not on the express lane.
	heap eventHeap
	// express is the FIFO lane: entries are (at, seq)-nondecreasing, the
	// live window is express[exHead:].
	express []event
	exHead  int
	// parkHead and parkTail bound the park lane's live window (park,
	// below), the one check every dispatch makes for it.
	parkHead uint64
	parkTail uint64
	// pending counts queued events on the heap, the express lane and
	// the park lane; maxPending is its high-water mark (see MaxPending).
	pending    int
	maxPending int
	// pendIntegral is the time integral of the pending-event count:
	// ∫ pending(t) dt in picosecond-events, accumulated by the
	// dispatcher as the clock advances (see QueueTimeIntegral).
	pendIntegral Time
	// processed counts events executed, for reporting and loop guards;
	// fast-forwarded (analytically elided) events are added by JumpClock
	// so the count is identical with and without fast-forward.
	processed uint64
	stopped   bool
	// running and horizon describe the active Run/Drain call, for
	// Schedule's express-lane test.
	running bool
	horizon Time
	// perturb, when set, rewrites every relative delay passed to
	// Schedule (fault injection: internal/faults uses it to jitter
	// transfer latencies deterministically). Absolute At times are never
	// perturbed, so measurement-window boundaries stay exact.
	perturb func(d Time) Time
	// eventHook, when set, runs before each dequeued event's callback
	// with the 1-based count of events processed so far. Fault plans use
	// it to panic a cell at a chosen event count; it must not schedule.
	eventHook func(processed uint64)
	// monotone, when set, receives a violation report if a dequeued
	// event's timestamp precedes the clock — impossible unless the heap
	// is corrupted, which is exactly what invariant checking looks for.
	monotone func(err error)
	// idleHook, when set, runs after each event's callback returns, with
	// the dispatch stack empty. The steady-state fast-forward layer uses
	// it as its only foothold: between events it may inspect the queue,
	// ShiftPending and JumpClock. It must not schedule events itself.
	idleHook func()
	// cur is the owner tag of the event being dispatched (0 outside
	// dispatch); events scheduled without an explicit owner inherit it.
	cur int32
	// keyScratch is AppendCycleKey's reusable sort buffer.
	keyScratch []event
	// park is the park lane (park.go): a ring of parked chains' next
	// ticks, live window [parkHead, parkTail) in absolute positions
	// (index pos&parkMask), sorted by (at, seq) because every chain
	// shares parkPeriod. chains holds each chain's state, chainFree
	// the IDs of unparked ones.
	park       []parkTick
	parkMask   uint64
	parkPeriod Time
	chains     []parkChain
	chainFree  []int32
	// budgeted counts the parked chains with a budget; finalAt caches
	// the earliest instant one of them runs its final event, to be
	// rescanned when finalStale (nextFinal).
	budgeted   int
	finalAt    Time
	finalStale bool
	// jumpScratch is jumpTicks' reusable list of jumped chains.
	jumpScratch []parkJump
}

// SetPerturb installs a delay-perturbation hook applied to every
// Schedule call (nil removes it). The hook must be deterministic for
// reproducible fault injection; negative results are clamped to zero
// like any other delay. The hook runs before Schedule picks the heap or
// the express lane, so a possibly stateful hook is consulted exactly
// once per scheduled event.
func (e *Engine) SetPerturb(fn func(d Time) Time) { e.perturb = fn }

// SetEventHook installs a per-event hook run before each event's
// callback with the count of events processed so far, 1-based (nil
// removes it).
func (e *Engine) SetEventHook(fn func(processed uint64)) { e.eventHook = fn }

// SetMonotoneCheck installs an event-time monotonicity checker: report
// is called with a descriptive error if an event is ever dequeued with
// a timestamp before the current clock (nil removes the check).
func (e *Engine) SetMonotoneCheck(report func(err error)) { e.monotone = report }

// SetIdleHook installs a between-events hook (nil removes it): fn runs
// after each event's callback returns, with no event mid-dispatch. It
// exists for the analytic fast-forward layer, which needs a clean stack
// to translate pending events and jump the clock; the hook must not
// schedule events.
func (e *Engine) SetIdleHook(fn func()) { e.idleHook = fn }

// NewEngine returns an engine with its clock at zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Processed returns the number of events executed so far. Analytically
// fast-forwarded events count exactly as if they had been dispatched,
// so the value is independent of whether fast-forward engaged.
func (e *Engine) Processed() uint64 { return e.processed }

// Owner reports the owner of the event being dispatched (NoOwner
// outside dispatch or for an unowned event). Layers that park work
// between events (a coherence request waiting in a line queue) capture
// it so the work's eventual completion is scheduled for the same owner.
func (e *Engine) Owner() int32 { return e.cur - 1 }

// nextSeq assigns the next sequence number with owner tag tag packed
// beneath it.
func (e *Engine) nextSeq(tag int32) uint64 {
	e.seq++
	return e.seq<<ownerBits | uint64(tag)
}

// Schedule runs fn after delay d (d may be zero; negative delays are
// clamped to zero so that callers computing d from latencies never move
// the clock backwards). During dispatch an event that fits the express
// lane (see the package doc) skips the heap; either way it runs at the
// same (timestamp, sequence) place.
func (e *Engine) Schedule(d Time, fn func()) { e.scheduleTag(e.cur, d, fn) }

// ScheduleAs is Schedule with an explicit owner instead of the
// inherited one.
func (e *Engine) ScheduleAs(owner int32, d Time, fn func()) {
	e.scheduleTag(ownerTag(owner), d, fn)
}

func (e *Engine) scheduleTag(tag int32, d Time, fn func()) {
	if e.perturb != nil {
		d = e.perturb(d)
	}
	if d < 0 {
		d = 0
	}
	t := e.now + d
	if n := len(e.express); e.running && t <= e.horizon &&
		(n == e.exHead || (t >= e.express[n-1].at && n-e.exHead < expressBacklog)) {
		e.express = append(e.express, event{at: t, seq: e.nextSeq(tag), fn: fn})
		e.addPending()
		return
	}
	e.atTag(tag, t, fn)
}

// At runs fn at absolute time t. Times before Now are clamped to Now.
// At never takes the express lane.
func (e *Engine) At(t Time, fn func()) { e.atTag(e.cur, t, fn) }

func (e *Engine) atTag(tag int32, t Time, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.heap.push(event{at: t, seq: e.nextSeq(tag), fn: fn})
	e.addPending()
}

// addPending counts one more queued event and tracks the high-water
// mark.
func (e *Engine) addPending() {
	e.pending++
	if e.pending > e.maxPending {
		e.maxPending = e.pending
	}
}

// MaxPending reports the largest number of events that were ever queued
// at once — the schedule's burstiness, exported into metrics snapshots
// (internal/metrics) as "sim.queue_peak". The count spans the heap,
// the express lane and the parked chains' pending ticks. Fast-forward leaves it exact: the layer only
// elides whole cycles of an exactly periodic schedule, whose peak the
// simulated cycles already reached.
func (e *Engine) MaxPending() int { return e.maxPending }

// Pending reports the number of events waiting to run, on the heap and
// the express lane, counting each parked chain's pending tick.
func (e *Engine) Pending() int { return e.pending }

// QueueTimeIntegral reports ∫ pending(t) dt over dispatched time: the
// cumulative picosecond-events of queued work. Divided by a window it
// is the mean number of outstanding events — the engine-pressure signal
// internal/metrics exports as "sim.queue_time_ps". Time elided by
// JumpClock contributes exactly what the fast-forward layer credits
// with it (the elided cycles' integral, as if dispatched), and the idle
// advance to the horizon at the end of Run contributes nothing (the
// queue is empty there).
func (e *Engine) QueueTimeIntegral() Time { return e.pendIntegral }

// PeekTime returns the timestamp of the next event to run, if any.
func (e *Engine) PeekTime() (Time, bool) {
	at, _, src := e.peekMin()
	return at, src != srcNone
}

// Stop halts Run before the next event. Events already dequeued complete.
func (e *Engine) Stop() { e.stopped = true }

// ShiftPending adds delta to the timestamp of every owned pending event
// and reports whether it could. Unowned events (fixed-time markers such
// as a measurement boundary) keep their time, so the fast-forward layer
// can translate an exactly periodic schedule over the elided cycles
// while the boundary it is running toward stays put. A heap holding an
// unowned event is re-sorted (a sorted slice is a valid heap), since a
// translated event may now order after the marker. It declines —
// changing nothing — when an unowned event sits on the express lane,
// whose time order a partial translation could break. delta must be
// non-negative; the caller is responsible for the shifted times being
// consistent with the subsequent JumpClock. Parked chains' ticks are
// translated like owned events (an unowned one declines the shift).
func (e *Engine) ShiftPending(delta Time) bool {
	if delta < 0 {
		panic("sim: ShiftPending with negative delta")
	}
	lane := e.express[e.exHead:]
	for i := range lane {
		if lane[i].tag() == 0 {
			return false
		}
	}
	for pos := e.parkHead; pos != e.parkTail; pos++ {
		if p := &e.park[pos&e.parkMask]; p.chain >= 0 && seqTag(p.seq) == 0 {
			return false
		}
	}
	for i := range lane {
		lane[i].at += delta
	}
	for pos := e.parkHead; pos != e.parkTail; pos++ {
		e.park[pos&e.parkMask].at += delta
	}
	e.finalAt += delta
	fixed := false
	for i := range e.heap {
		if e.heap[i].tag() == 0 {
			fixed = true
			continue
		}
		e.heap[i].at += delta
	}
	if fixed {
		slices.SortFunc(e.heap, eventOrder)
	}
	return true
}

// eventOrder is the dispatch order: (timestamp, sequence).
func eventOrder(a, b event) int {
	if c := cmp.Compare(a.at, b.at); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

// JumpClock advances the clock to t, credits skipped elided events to
// the processed count and queueTime to the queue-time integral, on
// behalf of a fast-forward layer that has already applied their other
// effects. t must not precede the current clock or overtake any pending
// event (a parked chain's tick included).
func (e *Engine) JumpClock(t Time, skipped uint64, queueTime Time) {
	if t < e.now {
		panic(fmt.Sprintf("sim: JumpClock backwards from %v to %v", e.now, t))
	}
	if at, ok := e.PeekTime(); ok && at < t {
		panic(fmt.Sprintf("sim: JumpClock to %v overtakes pending event at %v", t, at))
	}
	e.now = t
	e.processed += skipped
	e.pendIntegral += queueTime
}

// AppendCycleKey appends a fingerprint of the pending queue to dst and
// returns the extended slice: every pending event in dispatch order, as
// its owner and — for an owned event — its offset from now, or — for an
// unowned one — its absolute time (a fixed marker does not move with
// the schedule). Two instants with equal keys have queues that differ
// only by a translation of their owned events, in the same order (a
// parked chain's tick is listed like any event); what each event will
// do is the owner's to fingerprint (internal/workload,
// internal/coherence). The sort buffer is reused, so the key costs no
// allocation once warm.
func (e *Engine) AppendCycleKey(dst []byte) []byte {
	s := e.keyScratch[:0]
	for _, ev := range e.express[e.exHead:] {
		s = append(s, event{at: ev.at, seq: ev.seq})
	}
	for _, ev := range e.heap {
		s = append(s, event{at: ev.at, seq: ev.seq})
	}
	for pos := e.parkHead; pos != e.parkTail; pos++ {
		if p := &e.park[pos&e.parkMask]; p.chain >= 0 {
			s = append(s, event{at: p.at, seq: p.seq})
		}
	}
	slices.SortFunc(s, eventOrder)
	for i := range s {
		tag := s[i].tag()
		at := s[i].at
		if tag != 0 {
			at -= e.now
		}
		dst = binary.LittleEndian.AppendUint32(dst, uint32(tag))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(at))
	}
	e.keyScratch = s
	return dst
}

// queue sources for peekMin.
const (
	srcNone = iota
	srcExpress
	srcHeap
	srcPark
)

// peekMin locates the minimum (at, seq) event across the express lane
// head, the heap root and the park lane head. src is srcExpress,
// srcHeap, srcPark, or srcNone.
func (e *Engine) peekMin() (at Time, seq uint64, src int) {
	src = srcNone
	if e.exHead < len(e.express) {
		ev := &e.express[e.exHead]
		at, seq, src = ev.at, ev.seq, srcExpress
	}
	if len(e.heap) > 0 && (src == srcNone || e.heap[0].before(at, seq)) {
		at, seq, src = e.heap[0].at, e.heap[0].seq, srcHeap
	}
	if e.parkHead != e.parkTail {
		if p := &e.park[e.parkHead&e.parkMask]; src == srcNone || p.before(at, seq) {
			at, seq, src = p.at, p.seq, srcPark
		}
	}
	return at, seq, src
}

// pop removes and returns the head event of src (srcExpress or
// srcHeap).
func (e *Engine) pop(src int) event {
	e.pending--
	if src == srcExpress {
		ev := e.express[e.exHead]
		e.express[e.exHead] = event{}
		e.exHead++
		if e.exHead == len(e.express) {
			e.express = e.express[:0]
			e.exHead = 0
		} else if e.exHead >= 2*expressBacklog {
			// Slide the live window to the front. Without this the lane
			// never compacts while events keep arriving (a closed-loop
			// cell always has one pending), and the dead prefix grows to
			// O(total events) — hundreds of MB over a full sweep. The
			// window is at most expressBacklog entries, so the copy is
			// bounded and amortized over the pops that grew the prefix.
			n := copy(e.express, e.express[e.exHead:])
			tail := e.express[n:]
			for i := range tail {
				tail[i] = event{}
			}
			e.express = e.express[:n]
			e.exHead = 0
		}
		return ev
	}
	return e.heap.pop()
}

// dispatch runs events up to and including limit.
func (e *Engine) dispatch(limit Time) {
	e.stopped = false
	e.running = true
	e.horizon = limit
	for !e.stopped {
		at, _, src := e.peekMin()
		if src == srcNone || at > limit {
			break
		}
		var ev event
		if src == srcPark {
			if end, ok := e.jumpEnd(at, limit); ok {
				e.jumpTicks(end)
				continue
			}
			// A tick runs no callback; a bounded chain's final entry is
			// dispatched below like any event.
			if ev = e.tick(); ev.fn == nil {
				continue
			}
		} else {
			ev = e.pop(src)
		}
		if e.monotone != nil && ev.at < e.now {
			e.monotone(fmt.Errorf("sim: event time moved backwards: dequeued t=%v seq=%d with clock at %v", ev.at, ev.seq>>ownerBits, e.now))
		}
		// The dequeued event is already out of pending, so the count
		// outstanding across [now, ev.at] is pending+1.
		e.pendIntegral += Time(e.pending+1) * (ev.at - e.now)
		e.now = ev.at
		e.processed++
		if e.eventHook != nil {
			e.eventHook(e.processed)
		}
		e.cur = ev.tag()
		ev.fn()
		if e.idleHook != nil {
			e.idleHook()
		}
	}
	e.cur = 0
	e.running = false
}

// Run executes events in timestamp order until the queue is empty, the
// horizon is passed, or Stop is called. Events with timestamps exactly at
// the horizon still run; later ones remain queued. It returns the time of
// the clock when it stopped.
func (e *Engine) Run(horizon Time) Time {
	e.dispatch(horizon)
	if e.now < horizon && e.pending == 0 {
		// Advance to the horizon so repeated Run calls observe monotonic time.
		e.now = horizon
	}
	return e.now
}

// Drain executes all remaining events regardless of time. It is mainly
// useful in tests that want to observe the natural end of a workload.
func (e *Engine) Drain() Time {
	e.dispatch(Time(math.MaxInt64))
	return e.now
}

// Reset returns the engine to its initial state — clock at zero, no
// pending events, all hooks removed — while keeping every queue's
// allocated capacity. It is the arena-style teardown
// the cell pool (internal/workload) relies on: reusing an engine across
// cells is byte-identical to building a fresh one.
func (e *Engine) Reset() {
	clear(e.heap)
	e.heap = e.heap[:0]
	for i := e.exHead; i < len(e.express); i++ {
		e.express[i] = event{}
	}
	e.express = e.express[:0]
	e.exHead = 0
	e.resetPark()
	e.now, e.seq, e.processed = 0, 0, 0
	e.pending, e.maxPending = 0, 0
	e.pendIntegral = 0
	e.stopped, e.running = false, false
	e.horizon = 0
	e.cur = 0
	e.perturb, e.eventHook, e.monotone, e.idleHook = nil, nil, nil, nil
}
