// Package apps builds the classic concurrent algorithms whose design
// choices the paper's model is meant to inform, on top of the simulated
// atomic primitives: FAA-based versus CAS-loop counters, a Treiber
// stack, and TAS / TTAS / ticket spinlocks. Running them on the same
// coherence substrate as the microbenchmarks lets the experiments show
// that the model's primitive-level predictions (FAA beats CAS under
// contention; TTAS spins locally while TAS storms the line; tickets are
// FIFO-fair) carry over to algorithm-level throughput and fairness.
//
// In the model pipeline (ARCHITECTURE.md) this package sits on top of
// internal/workload: Run is a thin adapter over the pooled cell runtime
// (workload.RunCell), which owns the engine, memory, threads, window,
// metrics, checking and faults, while this package's driver steps the
// structure. Every structure keeps one operation context per thread
// with its continuations bound once, so app cells allocate nothing per
// operation. MODEL.md §6 (algorithms as access multisets) is the
// analytical counterpart of running these apps.
package apps

import (
	"atomicsmodel/internal/atomics"
	"atomicsmodel/internal/coherence"
	"atomicsmodel/internal/sim"
)

// Well-known line IDs used by the applications. They are spread apart
// so their directory homes differ.
const (
	counterLine coherence.LineID = 10
	topLine     coherence.LineID = 30
	lockLine    coherence.LineID = 50
	ticketLine  coherence.LineID = 70
	servingLine coherence.LineID = 90
	dataLine    coherence.LineID = 110
	nodeBase    coherence.LineID = 1 << 20
)

// Thread is the per-worker context handed to an App step.
type Thread struct {
	ID   int
	Core int
	RNG  *sim.RNG

	// lastSeen caches the last observed value of the app's CAS target,
	// the usual optimization in retry loops.
	lastSeen uint64
	// start and done belong to the cell runtime's app driver: when the
	// thread's current operation began, and its completion callback.
	start sim.Time
	done  func()
}

// App is one concurrent algorithm. Step performs a single high-level
// operation (an increment, a push/pop, an acquire-release cycle) for
// the given thread and invokes done exactly once when it completes.
type App interface {
	Name() string
	Step(th *Thread, done func())
}

// RetryStats is implemented by structures that count executions of
// their retry-loop body — the gating RMW issues (every CAS/TAS
// attempt, every ticket spin read), successful or not, over the whole
// run. Attempts divided by completed operations is the measured retry
// factor the conflict-based throughput model consumes
// (internal/predict); the runner surfaces it in RunResult.Attempts.
type RetryStats interface {
	Attempts() uint64
}

// threadOp returns thread th's operation context from ctxs, building
// it with mk the first time the thread steps. Threads are closed-loop —
// one operation in flight each — so one context per thread, with its
// continuations bound once as method values, keeps a structure's
// operations allocation-free (the pattern dequeOp and the big atomic's
// pooled contexts follow too). A continuation must call done last: done
// may start the thread's next operation on the same context.
func threadOp[T any](ctxs *[]*T, th *Thread, mk func() *T) *T {
	for len(*ctxs) <= th.ID {
		*ctxs = append(*ctxs, nil)
	}
	o := (*ctxs)[th.ID]
	if o == nil {
		o = mk()
		(*ctxs)[th.ID] = o
	}
	return o
}

// A structure names its lines by handles (coherence.Line). Its
// constructor runs once per cell on a reset memory, so it resolves its
// fixed lines there, and the handles live as long as the structure.

// lineSet is a family of a structure's lines indexed 0..n-1 — a deque's
// buffer slots, counter stripes, reader slots, collision slots, per-
// socket lock words — each resolved the first time an operation names
// it, so a cell creates the lines it touches and no more. id maps an
// index to its line's ID.
type lineSet struct {
	mem *atomics.Memory
	id  func(i int) coherence.LineID
	h   []coherence.Line
}

func newLineSet(mem *atomics.Memory, n int, id func(i int) coherence.LineID) lineSet {
	return lineSet{mem: mem, id: id, h: make([]coherence.Line, n)}
}

// strided returns the ID map of lines base, base+stride, base+2*stride...
func strided(base, stride coherence.LineID) func(int) coherence.LineID {
	return func(i int) coherence.LineID { return base + coherence.LineID(i)*stride }
}

// at returns line i's handle, resolving it on first use.
func (s *lineSet) at(i int) coherence.Line {
	h := s.h[i]
	if h.IsZero() {
		h = s.mem.Handle(s.id(i))
		s.h[i] = h
	}
	return h
}

// FAACounter increments a shared counter with one fetch-and-add.
type FAACounter struct {
	mem     *atomics.Memory
	counter coherence.Line
	ops     []*faaOp
}

// faaOp is one thread's in-flight increment.
type faaOp struct {
	done  func()
	addFn func(atomics.Result)
}

func (o *faaOp) added(atomics.Result) { o.done() }

// NewFAACounter returns the FAA-based counter.
func NewFAACounter(mem *atomics.Memory) *FAACounter {
	return &FAACounter{mem: mem, counter: mem.Handle(counterLine)}
}

func (c *FAACounter) Name() string { return "counter-faa" }

func (c *FAACounter) newOp() *faaOp {
	o := &faaOp{}
	o.addFn = o.added
	return o
}

func (c *FAACounter) Step(th *Thread, done func()) {
	o := threadOp(&c.ops, th, c.newOp)
	o.done = done
	c.mem.FetchAndAdd(th.Core, c.counter, 1, o.addFn)
}

// Value returns the counter's current value (for correctness checks).
func (c *FAACounter) Value() uint64 { return c.mem.System().Value(counterLine) }

// CASCounter increments a shared counter with the classic CAS retry
// loop (read value, CAS value -> value+1, retry on failure). This is
// the design the model tells you to avoid under contention.
type CASCounter struct {
	mem      *atomics.Memory
	counter  coherence.Line
	attempts uint64
	ops      []*casOp
}

// casOp is one thread's in-flight increment: the expected value of the
// CAS in flight.
type casOp struct {
	c        *CASCounter
	th       *Thread
	done     func()
	expected uint64
	casFn    func(atomics.Result)
}

// NewCASCounter returns the CAS-loop counter.
func NewCASCounter(mem *atomics.Memory) *CASCounter {
	return &CASCounter{mem: mem, counter: mem.Handle(counterLine)}
}

func (c *CASCounter) Name() string { return "counter-cas" }

// Attempts counts CAS issues, successful or not (RetryStats).
func (c *CASCounter) Attempts() uint64 { return c.attempts }

func (c *CASCounter) newOp() *casOp {
	o := &casOp{c: c}
	o.casFn = o.cased
	return o
}

func (c *CASCounter) Step(th *Thread, done func()) {
	o := threadOp(&c.ops, th, c.newOp)
	o.th, o.done = th, done
	o.issue()
}

func (o *casOp) issue() {
	o.expected = o.th.lastSeen
	o.c.attempts++
	o.c.mem.CompareAndSwap(o.th.Core, o.c.counter, o.expected, o.expected+1, o.casFn)
}

func (o *casOp) cased(r atomics.Result) {
	if r.OK {
		o.th.lastSeen = o.expected + 1
		o.done()
		return
	}
	o.th.lastSeen = r.Old
	o.issue() // retry with the freshly observed value
}

// Value returns the counter's current value.
func (c *CASCounter) Value() uint64 { return c.mem.System().Value(counterLine) }

// TreiberStack is the classic lock-free stack: a CAS loop on the top
// pointer, with each node on its own cache line. Each Step performs a
// push or a pop (50/50), so the stack stays near its initial depth.
type TreiberStack struct {
	mem      *atomics.Memory
	top      coherence.Line
	nextID   uint64
	pushes   uint64
	pops     uint64
	empties  uint64
	attempts uint64
	// elim is the collision array a failed top CAS diverts to, set
	// when the stack is an EliminationStack's core; nil otherwise.
	elim *EliminationStack
	ops  []*stackOp
}

// stackOp is one thread's in-flight push or pop: the node being pushed
// and the top it was linked to, or the top and successor a pop saw.
// freshTop and slot belong to the elimination diversion: the top a
// failed push CAS returned and the collision slot in use.
type stackOp struct {
	s         *TreiberStack
	th        *Thread
	done      func()
	id        uint64
	top, next uint64
	freshTop  uint64
	slot      coherence.Line

	pushStoredFn, pushCASFn, popTopFn, popNodeFn, popCASFn func(atomics.Result)
	parkedFn, withdrawFn, matchedFn, probeFn               func(atomics.Result)
	windowFn                                               func()
}

// NewTreiberStack returns a stack pre-seeded with depth nodes so pops
// do not immediately hit empty.
func NewTreiberStack(mem *atomics.Memory, depth int) *TreiberStack {
	s := &TreiberStack{mem: mem, nextID: 1}
	top := uint64(0)
	for i := 0; i < depth; i++ {
		id := s.nextID
		s.nextID++
		mem.System().SetValue(nodeBase+coherence.LineID(id), top)
		top = id
	}
	mem.System().SetValue(topLine, top)
	s.top = mem.Handle(topLine)
	return s
}

func (s *TreiberStack) Name() string { return "treiber-stack" }

// Stats reports operation counts (pushes, pops, empty pops).
func (s *TreiberStack) Stats() (pushes, pops, empties uint64) {
	return s.pushes, s.pops, s.empties
}

// Attempts counts CAS issues on the top pointer (RetryStats).
func (s *TreiberStack) Attempts() uint64 { return s.attempts }

// nodeLine resolves node id's line where it is used: node IDs grow
// without bound, so nodes are not kept resolved.
func (s *TreiberStack) nodeLine(id uint64) coherence.Line {
	return s.mem.Handle(nodeBase + coherence.LineID(id))
}

// alloc hands out the next node ID (allocation is not simulated; the
// node's line write is).
func (s *TreiberStack) alloc() uint64 {
	id := s.nextID
	s.nextID++
	return id
}

func (s *TreiberStack) newOp() *stackOp {
	o := &stackOp{s: s}
	o.pushStoredFn = o.pushStored
	o.pushCASFn = o.pushCAS
	o.popTopFn = o.popTop
	o.popNodeFn = o.popNode
	o.popCASFn = o.popCAS
	if s.elim != nil {
		o.bindElim()
	}
	return o
}

func (s *TreiberStack) Step(th *Thread, done func()) {
	o := threadOp(&s.ops, th, s.newOp)
	o.th, o.done = th, done
	if th.RNG.Float64() < 0.5 {
		o.id = s.alloc()
		// Seed the first attempt with the thread's cached view of top.
		o.pushAttempt(th.lastSeen)
	} else {
		o.pop()
	}
}

// pushAttempt writes node.next = oldTop (the node line is private
// until the CAS publishes it), then CASes the top pointer.
func (o *stackOp) pushAttempt(oldTop uint64) {
	o.top = oldTop
	o.s.mem.StoreOp(o.th.Core, o.s.nodeLine(o.id), oldTop, o.pushStoredFn)
}

func (o *stackOp) pushStored(atomics.Result) {
	o.s.attempts++
	o.s.mem.CompareAndSwap(o.th.Core, o.s.top, o.top, o.id, o.pushCASFn)
}

func (o *stackOp) pushCAS(r atomics.Result) {
	if r.OK {
		o.s.pushes++
		o.done()
		return
	}
	if o.s.elim != nil {
		o.park(r.Old)
		return
	}
	o.pushAttempt(r.Old)
}

func (o *stackOp) pop() {
	o.s.mem.LoadOp(o.th.Core, o.s.top, o.popTopFn)
}

func (o *stackOp) popTop(r atomics.Result) {
	o.top = r.Old
	if o.top == 0 {
		o.s.empties++
		o.done() // empty pop still counts as a completed operation
		return
	}
	// Read the node to find its successor — this line may be dirty
	// in the pusher's cache, which is exactly the traffic pattern
	// that makes stacks expensive under contention.
	o.s.mem.LoadOp(o.th.Core, o.s.nodeLine(o.top), o.popNodeFn)
}

func (o *stackOp) popNode(rn atomics.Result) {
	o.next = rn.Old
	o.s.attempts++
	o.s.mem.CompareAndSwap(o.th.Core, o.s.top, o.top, o.next, o.popCASFn)
}

func (o *stackOp) popCAS(rc atomics.Result) {
	if rc.OK {
		o.th.lastSeen = o.next
		o.s.pops++
		o.done()
		return
	}
	o.th.lastSeen = rc.Old
	if o.s.elim != nil {
		o.probe()
		return
	}
	o.pop()
}

// mutex is implemented by the mutual-exclusion locks, whose every
// completed acquire-release cycle increments the protected data line
// exactly once; Run verifies that after every lock cell. A mutex runs
// write sections only.
type mutex interface{ mutex() }

// lockKind selects a spinlock's acquisition protocol.
type lockKind uint8

const (
	lockTAS lockKind = iota
	lockTTAS
	lockTTASBackoff
	lockTicket
)

// lockApp is a spinlock for the lock comparison experiments. An
// acquire-release cycle with a critical-section update of a shared data
// line is one Step. Its attempts count acquisition-loop iterations: TAS
// issues for the test-and-set family, serving-counter refetches (reads
// observing a new value, i.e. line transfers) for the ticket lock.
type lockApp struct {
	section
	name string
	kind lockKind
	// lockWord is the test-and-set family's lock line; nextTicket and
	// serving are the ticket lock's two counters.
	lockWord, nextTicket, serving coherence.Line
	// base and max bound lock-ttas-backoff's exponential backoff.
	base, max sim.Time
	ops       []*lockOp
}

// lockOp is one thread's in-flight acquire-release cycle: the backoff
// of a TTAS-backoff acquisition, and a ticket lock's ticket.
type lockOp struct {
	sectionOp
	l       *lockApp
	backoff sim.Time
	ticket  uint64

	tasFn    func(atomics.Result)
	testFn   func()
	loadFn   func(atomics.Result)
	ttasFn   func(atomics.Result)
	ticketFn func(atomics.Result)
	serveFn  func(atomics.Result)
}

// newLock returns a spinlock whose section updates dataLine.
func newLock(name string, kind lockKind, eng *sim.Engine, mem *atomics.Memory, crit sim.Time) *lockApp {
	l := &lockApp{section: section{mem: mem, eng: eng, data: mem.Handle(dataLine), crit: crit}, name: name, kind: kind}
	if kind == lockTicket {
		l.nextTicket, l.serving = mem.Handle(ticketLine), mem.Handle(servingLine)
	} else {
		l.lockWord = mem.Handle(lockLine)
	}
	return l
}

func (l *lockApp) Name() string { return l.name }

func (l *lockApp) mutex() {}

func (l *lockApp) newOp() *lockOp {
	o := &lockOp{l: l}
	o.bind(&l.section, o)
	o.tasFn = o.tasDone
	o.testFn = o.test
	o.loadFn = o.loaded
	o.ttasFn = o.ttasDone
	o.ticketFn = o.ticketTaken
	o.serveFn = o.served
	return o
}

func (l *lockApp) Step(th *Thread, done func()) {
	o := threadOp(&l.ops, th, l.newOp)
	o.th, o.done = th, done
	switch l.kind {
	case lockTAS:
		o.spin()
	case lockTTAS:
		o.test()
	case lockTTASBackoff:
		o.backoff = l.base
		o.test()
	case lockTicket:
		l.mem.FetchAndAdd(th.Core, l.nextTicket, 1, o.ticketFn)
	}
}

// spin is one test-and-set acquisition attempt.
func (o *lockOp) spin() {
	o.l.attempts++
	o.l.mem.TestAndSet(o.th.Core, o.l.lockWord, o.tasFn)
}

func (o *lockOp) tasDone(r atomics.Result) {
	if r.Old == 0 {
		o.enter(true)
		return
	}
	o.spin()
}

// test reads the lock line (spinning on the shared copy) before a
// test-and-set attempt.
func (o *lockOp) test() {
	o.l.mem.LoadOp(o.th.Core, o.l.lockWord, o.loadFn)
}

func (o *lockOp) loaded(r atomics.Result) {
	if r.Old != 0 {
		// Spin on the local copy until the holder's release changes it.
		o.l.mem.AwaitChange(o.th.Core, o.l.lockWord, r.Old, nil, o.loadFn)
		return
	}
	o.l.attempts++
	o.l.mem.TestAndSet(o.th.Core, o.l.lockWord, o.ttasFn)
}

func (o *lockOp) ttasDone(r atomics.Result) {
	if r.Old == 0 {
		o.enter(true)
		return
	}
	if o.l.kind != lockTTASBackoff {
		o.test()
		return
	}
	wait := o.th.RNG.Duration(o.backoff) + o.backoff/2
	o.backoff *= 2
	if o.backoff > o.l.max {
		o.backoff = o.l.max
	}
	o.l.eng.Schedule(wait, o.testFn)
}

func (o *lockOp) ticketTaken(r atomics.Result) {
	o.ticket = r.Old
	o.l.mem.LoadOp(o.th.Core, o.l.serving, o.serveFn)
}

// served takes a serving-counter read that observed a new value: the
// first read after taking a ticket, then each read that ends a wait.
// Only these count as attempts — between handoffs a waiter re-reads its
// local Shared copy (no line traffic), so a read observing a new value,
// a refetch after the holder's invalidating bump, is an attempt in the
// conflict model's sense and a re-read is not.
func (o *lockOp) served(rs atomics.Result) {
	o.l.attempts++
	if rs.Old == o.ticket {
		o.th.lastSeen = o.ticket
		o.enter(true)
		return
	}
	o.l.mem.AwaitChange(o.th.Core, o.l.serving, rs.Old, nil, o.serveFn)
}

// release frees the lock once its section exits.
func (o *lockOp) release() {
	if o.l.kind == lockTicket {
		o.l.mem.StoreOp(o.th.Core, o.l.serving, o.th.lastSeen+1, o.releasedFn)
		return
	}
	o.l.mem.StoreOp(o.th.Core, o.l.lockWord, 0, o.releasedFn)
}

// NewTASLock returns a test-and-set spinlock: every acquisition attempt
// is an RFO on the lock line (the line-bouncing worst case).
func NewTASLock(eng *sim.Engine, mem *atomics.Memory, crit sim.Time) App {
	return newLock("lock-tas", lockTAS, eng, mem, crit)
}

// NewTTASLock returns a test-and-test-and-set spinlock: waiters spin on
// local shared copies (reads) and only attempt the RFO when the lock
// looks free — the model-guided fix for TAS.
func NewTTASLock(eng *sim.Engine, mem *atomics.Memory, crit sim.Time) App {
	return newLock("lock-ttas", lockTTAS, eng, mem, crit)
}

// NewTTASBackoffLock returns a TTAS lock with capped exponential
// backoff after failed acquisition attempts. Backoff is the classic
// remedy for the post-release thundering herd: when K waiters see the
// lock free at once, K-1 failing test-and-sets each cost a full line
// transfer, so spacing retries out trades a little handoff latency for
// far fewer bounces.
func NewTTASBackoffLock(eng *sim.Engine, mem *atomics.Memory, crit, base, max sim.Time) App {
	l := newLock("lock-ttas-backoff", lockTTASBackoff, eng, mem, crit)
	l.base, l.max = base, max
	return l
}

// NewTicketLock returns a ticket spinlock: one FAA takes a ticket, then
// the thread spins reading the serving counter — FIFO-fair by
// construction, which the fairness experiment demonstrates.
func NewTicketLock(eng *sim.Engine, mem *atomics.Memory, crit sim.Time) App {
	return newLock("lock-ticket", lockTicket, eng, mem, crit)
}

// DataValue returns the protected data line's value, for verifying
// mutual exclusion delivered exactly one update per completed cycle.
func DataValue(mem *atomics.Memory) uint64 { return mem.System().Value(dataLine) }
