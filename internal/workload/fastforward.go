// Steady-state cycle memoizer: the workload-level half of the analytic
// fast-forward layer (the engine half is sim.Engine.AppendCycleKey,
// ShiftPending and JumpClock).
//
// A closed-loop cell with no per-operation randomness settles into an
// exactly periodic schedule: a contended line grants the same rotation
// of threads with the same service intervals forever, uncontended loads
// and fences repeat one fixed latency per thread, and private lines
// cycle through the same owned states — the simulation spends its whole
// measured window re-deriving a cycle it has already computed. The
// memoizer detects that cycle and skips it analytically:
//
//  1. Fingerprint the whole cell between events: every pending engine
//     event (its owner thread and offset from now, in dispatch order),
//     each thread's per-operation state (what it is waiting on, its
//     next line, its CAS span flag), and the protocol state of every
//     line the cell touches plus every request in flight — everything
//     the simulation reads, minus the monotone counters that provably
//     do not feed back (a CAS span's start is checked separately, see
//     spansRecur). Line values are such a counter for every primitive
//     but CAS. A CAS loop's control flow
//     depends on values only relative to each other — the line values,
//     each thread's lastSeen and expected (which is also the operand of
//     its one CAS in flight) and any value a request precomputed — so
//     a CAS cell fingerprints those as offsets from one anchor (thread
//     0's lastSeen), whose advance per cycle is the cycle's value
//     delta.
//  2. When the fingerprint recurs, one cycle has been recorded: its
//     event count, duration, queue-time integral, counter deltas (the
//     per-thread ops, the attempts — the latency histogram's count —
//     the coherence access ledger class by class and the invalidation
//     count), and a running hash of the shapes of its trace events.
//  3. Record a second cycle and require it to match the first exactly
//     (counters delta-by-delta, ledger class by class, the longest
//     line queue unchanged, and the shape hash). Two independent
//     matches plus the state fingerprint rule out coincidental
//     recurrence. The cell's ops and failures and the coherence Stats
//     are readings of these counters (Stats also of the requests in
//     flight, which the fingerprint pins), so they are never recorded
//     or scaled themselves.
//  4. Jump: multiply the integer counter deltas by the number of
//     whole cycles that fit before the pass's boundary — per-thread
//     ops, latency histograms, the ledger's per-class counts and the
//     invalidation count (coherence.System.AddScaled: one integer add
//     per class, so the cost does not grow with the cycles elided, and
//     the energy priced from the ledger is bit-identical because it
//     sums its classes in a fixed order), and with -metrics
//     the whole registry (counters, vectors, histograms) and the
//     engine's queue-time integral — translate every pending event,
//     in-flight request and CAS span start in time, advance every
//     value of a CAS cell by k times the cycle's value delta, and jump
//     the clock, crediting the elided events. The approach to the
//     boundary plays out live, so boundary behavior is identical to
//     the unskipped run.
//
// An eligible run gets two passes. The pre-warmup pass arms once the
// startup stagger has played out (the first accesses' cold fills make
// the opening rotations aperiodic, so the first fingerprint may need to
// be retaken) and jumps up to just short of the warmup boundary; the
// warmup marker event stays pending throughout — it is the one unowned
// event, fingerprinted by its absolute time and left in place by
// sim.ShiftPending. The post-warmup pass re-arms at the warmup boundary
// and jumps toward the end of the measured window. Both passes apply
// the identical set of counter effects, so the state at every
// boundary matches the unskipped run bit-for-bit. A periodic schedule
// cannot raise the engine's peak queue length, so MaxPending stays
// exact too.
//
// Eligibility (memoVerdict) is conservative: any knob that draws
// randomness per operation with an uncertain outcome (jittered think
// time, a read/write mix that loads), is not a closed loop (open-loop
// arrivals are not periodic), or keeps state the fingerprint does not
// see (non-FIFO arbiters, store buffers, finite link bandwidth, the
// invariant checker, fault plans) disables the memoizer for that run,
// and the verdict names the first such knob. A mix at fraction 0 is an
// RMW loop: its coins always say RMW and feed nothing else, so skipping
// their draws in a jump moves nothing. A loop whose loads run back to
// back on one line is refused too: they park instead (loopParks). An
// ineligible or aperiodic cell runs every event as before; the
// differential tests prove byte-identical results either way.
package workload

import (
	"bytes"
	"encoding/binary"
	"sync/atomic"

	"atomicsmodel/internal/atomics"
	"atomicsmodel/internal/coherence"
	"atomicsmodel/internal/metrics"
	"atomicsmodel/internal/sim"
	"atomicsmodel/internal/stats"
)

// fastForwardOn gates the memoizer globally. SetFastForward flips it;
// the differential tests run each experiment both ways and compare
// bytes.
var fastForwardOn = true

// SetFastForward enables or disables the steady-state cycle memoizer
// for subsequent runs (it defaults to on). Results are byte-identical
// either way; only the number of simulated events changes. Not safe to
// call while cells are running.
func SetFastForward(on bool) { fastForwardOn = on }

// FastForwardEnabled reports the current gate, for tests.
func FastForwardEnabled() bool { return fastForwardOn }

// ffJumps counts the memoizer's jumps in this process; cells run in
// parallel, so it is atomic.
var ffJumps atomic.Uint64

// FastForwardJumps returns how many jumps the memoizer has taken in
// this process so far (a cell takes at most two). The difference
// across a run says whether, and how often, its cells fast-forwarded.
func FastForwardJumps() uint64 { return ffJumps.Load() }

// Memoizer phases. The probe runs between events (engine idle hook) and
// walks: off → capture (fingerprint at the next event boundary) →
// record (wait for the fingerprint to recur) → verify (require a second
// identical cycle) → done (jumped, or given up). memoArm restarts the
// walk for each pass.
const (
	memoOff = iota
	memoCapture
	memoRecord
	memoVerify
	memoDone
)

// Thread states: what a thread's one pending event is, which the
// fingerprint must tell apart (a start-up step thinks before it
// operates; a think timer operates directly).
const (
	thStart uint8 = iota // start-up step pending
	thThink              // think timer pending
	thOp                 // operation in flight
)

// memoState is the per-cell scratch for the memoizer. All slices are
// reused across runs, so an armed memoizer allocates only on its first
// few cycles ever.
type memoState struct {
	phase int
	jumps int // jumps taken this run (0, 1 or 2)
	// Pass parameters (memoArm): probes to skip before the first
	// capture, whether the pass has re-taken its capture, the
	// cycle-search event bound, and the time every elided event must
	// precede.
	skip      int
	retaken   bool
	searchLim uint64
	bound     sim.Time

	lines []coherence.LineID // every line the cell touches
	key   []byte             // fingerprint at cycle start
	head  int                // length of key's engine-and-thread prefix
	tmp   []byte             // probe scratch
	// owner is the owner of the event dispatched just before the
	// capture. A periodic schedule dispatches the same owner's event
	// just before every recurrence (from the second cycle on, at the
	// latest), so other probes skip the fingerprint.
	owner int32

	// Baselines captured at the current cycle's start: attB is the
	// measured attempts (the latency histogram's count), and clsB,
	// invB and maxQB the coherence ledger, invalidations and longest
	// queue.
	t0          sim.Time
	p0          uint64
	qt0         sim.Time
	attB        uint64
	perOpsB     []uint64
	clsB        []uint64
	invB        uint64
	maxQB       int
	latB, slatB *stats.Histogram
	regB        *metrics.Registry

	// The recorded cycle (filled when the fingerprint first recurs).
	period     uint64
	dur, dQT   sim.Time
	dAtt, dInv uint64
	dPerOps    []uint64
	// dCls is the recorded cycle's ledger delta, class by class, and
	// shapeA and shapeB are the two cycles' running hashes of their
	// trace events' shapes. Nothing is kept per event, so a long search
	// costs no memory.
	dCls           []uint64
	shapeA, shapeB uint64

	// spans holds each thread's CAS span start at the current cycle's
	// start; held marks the threads whose span ran unbroken through the
	// recorded cycle (see spansRecur).
	spans []sim.Time
	held  []bool

	// values is set for a CAS cell, whose fingerprint holds values
	// relative to the anchor (anchor); a0 is the anchor at the current
	// cycle's start and dVal its advance over the recorded cycle.
	values bool
	a0     uint64
	dVal   uint64
}

// skipLastSeenShift is a mutation hook for tests: set, a jump leaves
// every thread's lastSeen where it was, which the differential must
// catch.
var skipLastSeenShift bool

// memoVerdict reports why the steady state of cfg under drv cannot be
// memoized — "app" for a driver other than the primitive loop, else the
// first disqualifying knob as a short reason — or "" when it can: the
// schedule must be a closed loop with no per-op randomness whose
// outcome varies, a stateless FIFO grant order, and no state or
// observer outside the fingerprint. Any primitive, any number of lines,
// shared or private, constant think time, the CAS retry loop and a read
// mix at fraction 0 (decided by the coin's outcome, not the mode) are
// fine.
func memoVerdict(cfg *Config, drv Driver) string {
	if _, ok := drv.(primitives); !ok {
		// A structure's operations branch on line values and draw
		// per-operation randomness, and its state lives outside the
		// fingerprint.
		return "app"
	}
	m := cfg.Machine
	switch {
	case cfg.Mode == ReadWriteMix && cfg.ReadFraction > 0:
		return "read-mix"
	case cfg.WorkJitter && cfg.LocalWork > 0:
		return "jitter"
	case cfg.OpenLoop:
		return "open-loop"
	}
	switch cfg.Arbiter.(type) {
	case nil, coherence.FIFOArbiter:
	default:
		return "arbiter"
	}
	switch {
	case m.StoreBufferDepth > 0:
		return "store-buffer"
	case m.LinkOccupancy > 0:
		return "bandwidth"
	case cfg.Check:
		return "check"
	case cfg.Faults != nil:
		return "faults"
	case loopParks(cfg):
		// Its warm threads park (atomics.Memory.SpinLoad), and a
		// recording pass's tracer would keep them from it.
		return "parked-load"
	}
	return ""
}

// memoSetup lists the lines an armed run touches, for the fingerprint:
// the shared lines once, or every thread's private lines. A CAS cell
// also fingerprints values.
func (c *Cell) memoSetup() {
	m := &c.memo
	m.values = c.cfg.Primitive == atomics.CAS || c.cfg.Primitive == atomics.CAS2
	m.lines = m.lines[:0]
	for _, th := range c.threads[:c.cfg.Threads] {
		for _, h := range th.lines {
			m.lines = append(m.lines, h.ID())
		}
		if c.cfg.Mode != LowContention {
			break
		}
	}
}

// memoArm starts (or restarts) a memoization pass and installs the
// engine idle hook (probe) and the recording tracer for the pass's
// lifetime. skip consumes probes before the first capture —
// past the startup stagger in the pre-warmup pass, past the warmup
// marker's own probe (taken at an instant the cycle never revisits) in
// the post-warmup pass — and every elided event must precede bound.
func (c *Cell) memoArm(skip int, bound sim.Time) {
	m := &c.memo
	m.phase = memoCapture
	m.skip, m.bound = skip, bound
	m.retaken = false
	// The steady cycle is one rotation of the closed loop — a few
	// events per thread and line — so a fingerprint that has not
	// recurred within a handful of rotations was taken mid-transient.
	// Keeping the search bound proportional to the cell's size makes a
	// failed capture cheap enough to retry.
	m.searchLim = uint64(4*c.cfg.Threads*c.cfg.Lines + 64)
	c.eng.SetIdleHook(c.probeFn)
	c.mem.System().SetTracer(c.traceRecFn)
}

// anchor is the value the fingerprint of a CAS cell holds every other
// value relative to: thread 0's lastSeen.
func (c *Cell) anchor() uint64 { return c.threads[0].lastSeen }

// cycleHead appends the cheap part of the fingerprint: the pending
// queue and every thread's per-operation state — for a CAS cell with
// its values relative to the anchor.
func (c *Cell) cycleHead(dst []byte) []byte {
	dst = c.eng.AppendCycleKey(dst)
	a := c.anchor()
	for _, th := range c.threads[:c.cfg.Threads] {
		span := byte(0)
		if th.inSpan {
			span = 1
		}
		dst = append(dst, th.state, span)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(th.next))
		if c.memo.values {
			dst = binary.LittleEndian.AppendUint64(dst, th.lastSeen-a)
			dst = binary.LittleEndian.AppendUint64(dst, th.expected-a)
		}
	}
	return dst
}

// cycleTail appends the protocol half of the fingerprint.
func (c *Cell) cycleTail(dst []byte) []byte {
	m := &c.memo
	if !m.values {
		return c.mem.System().AppendCycleKey(dst, m.lines, nil)
	}
	a := c.anchor()
	return c.mem.System().AppendCycleKey(dst, m.lines, &a)
}

// keyRecurs reports whether the cell is back in the state fingerprinted
// at cycle start, comparing the cheap head before building the rest.
func (c *Cell) keyRecurs() bool {
	m := &c.memo
	if c.eng.Owner() != m.owner {
		return false
	}
	m.tmp = c.cycleHead(m.tmp[:0])
	if !bytes.Equal(m.tmp, m.key[:m.head]) {
		return false
	}
	m.tmp = c.cycleTail(m.tmp)
	return bytes.Equal(m.tmp, m.key)
}

// memoBase records the counter baselines at a cycle boundary.
func (c *Cell) memoBase() {
	m := &c.memo
	m.t0 = c.eng.Now()
	m.p0 = c.eng.Processed()
	m.qt0 = c.eng.QueueTimeIntegral()
	m.a0 = c.anchor()
	m.spans = m.spans[:0]
	for _, th := range c.threads[:c.cfg.Threads] {
		m.spans = append(m.spans, th.spanStart)
	}
	sys := c.mem.System()
	m.attB = c.lat.Count()
	m.perOpsB = append(m.perOpsB[:0], c.perOps...)
	m.clsB = append(m.clsB[:0], sys.Classes()...)
	m.invB, m.maxQB = sys.Invals(), sys.MaxQueueLen()
	if m.latB == nil {
		m.latB, m.slatB = stats.NewHistogram(), stats.NewHistogram()
	}
	c.lat.CopyInto(m.latB)
	c.slat.CopyInto(m.slatB)
	if c.reg != nil {
		if m.regB == nil {
			m.regB = metrics.New()
		}
		c.reg.CopyInto(m.regB)
	}
}

// spansRecur reports whether every thread's CAS span evolved
// periodically over the cycle that started at m.t0. The span's start
// is the one piece of thread state the fingerprint leaves out, because
// it is not a function of the periodic state: a span either restarted
// within the cycle and has the same age again — then its age is
// periodic — or was held unbroken through the cycle by a thread that
// never succeeded in it, whose span age is never read (only a success
// reads it) and keeps growing. The recorded cycle classifies each
// thread (classify); the verify cycle must match that classification.
func (c *Cell) spansRecur(classify bool) bool {
	m := &c.memo
	now := c.eng.Now()
	if classify {
		m.held = m.held[:0]
	}
	for i, th := range c.threads[:c.cfg.Threads] {
		held := th.inSpan && th.spanStart == m.spans[i]
		if th.inSpan && !held && now-th.spanStart != m.t0-m.spans[i] {
			return false
		}
		if classify {
			m.held = append(m.held, held)
		} else if m.held[i] != held {
			return false
		}
	}
	return true
}

// memoCapture takes the starting fingerprint of a (re)started cycle
// search at the current event boundary.
func (c *Cell) memoCapture() {
	m := &c.memo
	m.owner = c.eng.Owner()
	m.key = c.cycleHead(m.key[:0])
	m.head = len(m.key)
	m.key = c.cycleTail(m.key)
	c.memoBase()
	m.shapeA = shapeSeed
	m.phase = memoRecord
}

// traceRec is the tracer of an armed memoizer: it folds each access
// into the current cycle's shape hash.
func (c *Cell) traceRec(ev coherence.TraceEvent) {
	m := &c.memo
	switch m.phase {
	case memoRecord:
		m.shapeA = traceShape(m.shapeA, ev)
	case memoVerify:
		m.shapeB = traceShape(m.shapeB, ev)
	}
}

// shapeSeed and shapePrime are the 64-bit FNV offset basis and prime.
const (
	shapeSeed  = 14695981039346656037
	shapePrime = 1099511628211
)

// traceShape folds one trace event into a cycle's shape hash: every
// field that feeds the ledger or the histograms — all but the monotone
// At (absolute time) and Result.Value (the line value, which grows
// every cycle under FAA and CAS).
func traceShape(h uint64, ev coherence.TraceEvent) uint64 {
	res := &ev.Result
	flags := uint64(ev.Kind) | uint64(res.Source)<<8
	if res.Wrote {
		flags |= 1 << 16
	}
	if res.CrossSocket {
		flags |= 1 << 17
	}
	for _, x := range [...]uint64{uint64(ev.Line), uint64(ev.Core), uint64(res.Latency),
		uint64(res.Hops), uint64(res.QueuedBehind), flags} {
		h = (h ^ x) * shapePrime
	}
	return h
}

// memoAbort stands the memoizer down for the rest of the pass,
// removing its idle hook and tracer. Correctness is unaffected — the
// cell simply simulates every event, and the engine may jump parked
// ticks again (the post-warmup pass still arms even if the pre-warmup
// pass gave up).
func (c *Cell) memoAbort() {
	c.memo.phase = memoDone
	c.eng.SetIdleHook(nil)
	c.mem.System().SetTracer(nil)
}

// probe is the engine idle hook of a memoizer pass, installed from
// memoArm to memoAbort; it runs between events with a clean stack, the
// only place pending events may be translated and the clock jumped.
func (c *Cell) probe() {
	m := &c.memo
	if m.skip > 0 {
		m.skip--
		return
	}
	if m.phase == memoCapture {
		c.memoCapture()
		return
	}
	if c.eng.Processed()-m.p0 > m.searchLim {
		// The fingerprint did not recur: it was taken mid-transient
		// (the cold-miss fill of the first accesses, say) or the
		// schedule is aperiodic. Re-fingerprint once, at once, before
		// standing down: by then the fill has played out. Waiting
		// longer pays only for a start-up convoy like the 72-thread
		// Load cell's, which parks instead (loopParks).
		if m.phase == memoRecord && !m.retaken {
			m.retaken = true
			m.phase = memoCapture
			return
		}
		c.memoAbort()
		return
	}
	if !c.keyRecurs() {
		return
	}
	if m.phase == memoRecord {
		// First recurrence: one whole cycle is on record, unless a CAS
		// span has not come round yet (a later recurrence may find it
		// has). Measure it, rebase, and demand an identical second
		// cycle.
		if !c.spansRecur(true) {
			return
		}
		m.period = c.eng.Processed() - m.p0
		m.dur = c.eng.Now() - m.t0
		m.dQT = c.eng.QueueTimeIntegral() - m.qt0
		sys := c.mem.System()
		m.dAtt = c.lat.Count() - m.attB
		m.dPerOps = m.dPerOps[:0]
		for i, b := range m.perOpsB {
			m.dPerOps = append(m.dPerOps, c.perOps[i]-b)
		}
		m.dCls = m.dCls[:0]
		for i, n := range sys.Classes() {
			m.dCls = append(m.dCls, n-m.clsB[i])
		}
		m.dInv = sys.Invals() - m.invB
		m.dVal = c.anchor() - m.a0
		c.memoBase()
		m.shapeB = shapeSeed
		m.phase = memoVerify
		return
	}
	c.memoJump()
}

// memoJump verifies the second recorded cycle against the first and, on
// an exact match, applies the remaining whole cycles analytically.
func (c *Cell) memoJump() {
	m := &c.memo
	eng, sys := c.eng, c.mem.System()
	now := eng.Now()

	// The ledger, the invalidations and the longest queue are the
	// coherence state a jump scales or must leave exact; every other
	// Stats counter is read off the ledger and the requests in flight,
	// which the fingerprint pins.
	ok := eng.Processed()-m.p0 == m.period &&
		now-m.t0 == m.dur &&
		eng.QueueTimeIntegral()-m.qt0 == m.dQT &&
		c.lat.Count()-m.attB == m.dAtt &&
		sys.Invals()-m.invB == m.dInv &&
		sys.MaxQueueLen() == m.maxQB &&
		c.anchor()-m.a0 == m.dVal && c.spansRecur(false) &&
		m.shapeB == m.shapeA &&
		deltaEqual(c.perOps, m.perOpsB, m.dPerOps) &&
		deltaEqual(sys.Classes(), m.clsB, m.dCls)
	if !ok || m.dur <= 0 {
		c.memoAbort()
		return
	}

	// Elide as many whole cycles as fit strictly before the boundary
	// (the warmup marker, or the end of the window, where operations
	// stop issuing): the jump lands on the verified periodic state
	// shifted in time, so the approach to the boundary develops exactly
	// as in the unskipped run.
	k := uint64((m.bound - 1 - now) / m.dur)
	if k < 1 {
		c.memoAbort()
		return
	}
	jump := sim.Time(k) * m.dur
	if !eng.ShiftPending(jump) {
		c.memoAbort()
		return
	}

	for i := range m.dPerOps {
		c.perOps[i] += m.dPerOps[i] * k
	}
	c.lat.AddScaledDiff(m.latB, k)
	c.slat.AddScaledDiff(m.slatB, k)
	sys.AddScaled(m.dCls, m.dInv, k)
	if c.reg != nil {
		c.reg.AddScaledDiff(m.regB, k)
	}

	// Translate the state into its k-cycles-later counterpart: every
	// time stamp by the jump — except the start of a span held through
	// the elided cycles, which really did start that long ago — and in
	// a CAS cell every value by k value deltas.
	c.mem.ShiftInFlight(jump)
	for i, th := range c.threads[:c.cfg.Threads] {
		if !m.held[i] {
			th.spanStart += jump
		}
	}
	if d := m.dVal * k; m.values && d != 0 {
		c.mem.ShiftValues(m.lines, d)
		for _, th := range c.threads[:c.cfg.Threads] {
			if !skipLastSeenShift {
				th.lastSeen += d
			}
			th.expected += d
		}
	}
	eng.JumpClock(now+jump, k*m.period, m.dQT*sim.Time(k))
	m.jumps++
	ffJumps.Add(1)
	c.memoAbort() // removes the hook and the tracer; phase = done
}

// deltaEqual reports whether every counter of now grew by exactly
// delta since base.
func deltaEqual(now, base, delta []uint64) bool {
	for i, b := range base {
		if now[i]-b != delta[i] {
			return false
		}
	}
	return true
}
