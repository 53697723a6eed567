package apps

import (
	"atomicsmodel/internal/atomics"
	"atomicsmodel/internal/coherence"
	"atomicsmodel/internal/sim"
)

// Elimination slot states (values of the slot lines).
const (
	slotEmpty   uint64 = 0
	slotPusher  uint64 = 1
	slotMatched uint64 = 3
)

const elimBase coherence.LineID = 1 << 23

// EliminationStack is a Treiber stack with an elimination array: when
// the top CAS fails under contention, a push parks in a random
// collision slot and a concurrent pop can consume it there, so the pair
// completes without ever touching the hot top pointer. This is the
// classic contention remedy the model motivates — it converts hot-line
// bounces into traffic spread over many slot lines.
type EliminationStack struct {
	*TreiberStack
	eng    *sim.Engine
	mem    *atomics.Memory
	slots  int
	window sim.Time
	elims  uint64
	ops    []*elimOp
}

// elimOp is one thread's in-flight push or pop: the node being pushed,
// the top it was linked to (and the fresh top a failed CAS returned),
// the top and successor a pop saw, and the collision slot in use.
type elimOp struct {
	s         *EliminationStack
	th        *Thread
	done      func()
	id        uint64
	top, next uint64
	freshTop  uint64
	slot      coherence.LineID

	pushStoredFn func(atomics.Result)
	pushCASFn    func(atomics.Result)
	parkedFn     func(atomics.Result)
	windowFn     func()
	withdrawFn   func(atomics.Result)
	matchedFn    func(atomics.Result)
	popTopFn     func(atomics.Result)
	popNodeFn    func(atomics.Result)
	popCASFn     func(atomics.Result)
	probeFn      func(atomics.Result)
}

// NewEliminationStack returns an elimination stack seeded with depth
// nodes, using the given number of collision slots and pusher wait
// window.
func NewEliminationStack(eng *sim.Engine, mem *atomics.Memory, depth, slots int, window sim.Time) *EliminationStack {
	if slots < 1 {
		slots = 1
	}
	if window <= 0 {
		window = 200 * sim.Nanosecond
	}
	return &EliminationStack{
		TreiberStack: NewTreiberStack(mem, depth),
		eng:          eng,
		mem:          mem,
		slots:        slots,
		window:       window,
	}
}

func (s *EliminationStack) Name() string { return "elimination-stack" }

// Eliminations reports how many operations completed via the array
// (each exchange finishes one push and one pop).
func (s *EliminationStack) Eliminations() uint64 { return s.elims }

func (s *EliminationStack) slot(th *Thread) coherence.LineID {
	return elimBase + coherence.LineID(th.RNG.Intn(s.slots))*256
}

func (s *EliminationStack) newOp() *elimOp {
	o := &elimOp{s: s}
	o.pushStoredFn = o.pushStored
	o.pushCASFn = o.pushCAS
	o.parkedFn = o.parked
	o.windowFn = o.windowUp
	o.withdrawFn = o.withdraw
	o.matchedFn = o.matched
	o.popTopFn = o.popTop
	o.popNodeFn = o.popNode
	o.popCASFn = o.popCAS
	o.probeFn = o.probed
	return o
}

func (s *EliminationStack) Step(th *Thread, done func()) {
	o := threadOp(&s.ops, th, s.newOp)
	o.th, o.done = th, done
	if th.RNG.Float64() < 0.5 {
		o.id = s.alloc()
		o.pushAttempt(th.lastSeen)
	} else {
		o.pop()
	}
}

// pushAttempt is one Treiber push attempt; on CAS failure the push
// tries to park in a collision slot before retrying.
func (o *elimOp) pushAttempt(oldTop uint64) {
	o.top = oldTop
	o.s.mem.StoreOp(o.th.Core, o.s.nodeLine(o.id), oldTop, o.pushStoredFn)
}

func (o *elimOp) pushStored(atomics.Result) {
	o.s.attempts++
	o.s.mem.CompareAndSwap(o.th.Core, topLine, o.top, o.id, o.pushCASFn)
}

func (o *elimOp) pushCAS(r atomics.Result) {
	if r.OK {
		o.s.pushes++
		o.done()
		return
	}
	o.park(r.Old)
}

// park parks a failed push in a slot for one window; a matching pop
// eliminates it, otherwise the push withdraws and retries on the stack.
func (o *elimOp) park(freshTop uint64) {
	o.freshTop = freshTop
	o.slot = o.s.slot(o.th)
	o.s.mem.CompareAndSwap(o.th.Core, o.slot, slotEmpty, slotPusher, o.parkedFn)
}

func (o *elimOp) parked(r atomics.Result) {
	if !r.OK {
		// Slot busy: go straight back to the stack.
		o.pushAttempt(o.freshTop)
		return
	}
	o.s.eng.Schedule(o.s.window, o.windowFn)
}

func (o *elimOp) windowUp() {
	o.s.mem.CompareAndSwap(o.th.Core, o.slot, slotPusher, slotEmpty, o.withdrawFn)
}

func (o *elimOp) withdraw(r atomics.Result) {
	if r.OK {
		// No partner came: withdraw and retry on the stack.
		o.pushAttempt(o.freshTop)
		return
	}
	// A popper matched us (slot says so): reset the slot and finish —
	// the pair never touched the top pointer.
	o.s.mem.StoreOp(o.th.Core, o.slot, slotEmpty, o.matchedFn)
}

func (o *elimOp) matched(atomics.Result) {
	o.s.elims++
	o.s.pushes++
	o.done()
}

// pop is one Treiber pop attempt; on CAS failure it probes a slot for
// a waiting pusher before retrying.
func (o *elimOp) pop() {
	o.s.mem.LoadOp(o.th.Core, topLine, o.popTopFn)
}

func (o *elimOp) popTop(r atomics.Result) {
	o.top = r.Old
	if o.top == 0 {
		o.s.empties++
		o.done()
		return
	}
	o.s.mem.LoadOp(o.th.Core, o.s.nodeLine(o.top), o.popNodeFn)
}

func (o *elimOp) popNode(rn atomics.Result) {
	o.next = rn.Old
	o.s.attempts++
	o.s.mem.CompareAndSwap(o.th.Core, topLine, o.top, o.next, o.popCASFn)
}

func (o *elimOp) popCAS(rc atomics.Result) {
	if rc.OK {
		o.th.lastSeen = o.next
		o.s.pops++
		o.done()
		return
	}
	o.th.lastSeen = rc.Old
	// Probe one slot for a waiting pusher: a hit eliminates the pair, a
	// miss retries on the stack.
	o.slot = o.s.slot(o.th)
	o.s.mem.CompareAndSwap(o.th.Core, o.slot, slotPusher, slotMatched, o.probeFn)
}

func (o *elimOp) probed(r atomics.Result) {
	if r.OK {
		o.s.elims++
		o.s.pops++
		o.done()
		return
	}
	o.pop()
}
