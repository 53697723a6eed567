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
//
// The push and pop are the Treiber stack's own operations (stackOp):
// the embedded stack's elim field diverts a failed push CAS to park and
// a failed pop CAS to probe, the only steps this file adds.
type EliminationStack struct {
	*TreiberStack
	eng       *sim.Engine
	slots     int
	slotLines lineSet
	window    sim.Time
	elims     uint64
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
	s := &EliminationStack{
		TreiberStack: NewTreiberStack(mem, depth),
		eng:          eng,
		slots:        slots,
		slotLines:    newLineSet(mem, slots, strided(elimBase, 256)),
		window:       window,
	}
	s.elim = s
	return s
}

func (s *EliminationStack) Name() string { return "elimination-stack" }

// Eliminations reports how many operations completed via the array
// (each exchange finishes one push and one pop).
func (s *EliminationStack) Eliminations() uint64 { return s.elims }

func (s *EliminationStack) slot(th *Thread) coherence.Line {
	return s.slotLines.at(th.RNG.Intn(s.slots))
}

// bindElim binds the diversion's continuations on a stack op whose
// stack has a collision array.
func (o *stackOp) bindElim() {
	o.parkedFn = o.parked
	o.windowFn = o.windowUp
	o.withdrawFn = o.withdraw
	o.matchedFn = o.matched
	o.probeFn = o.probed
}

// park parks a failed push in a slot for one window; a matching pop
// eliminates it, otherwise the push withdraws and retries on the stack.
func (o *stackOp) park(freshTop uint64) {
	o.freshTop = freshTop
	o.slot = o.s.elim.slot(o.th)
	o.s.mem.CompareAndSwap(o.th.Core, o.slot, slotEmpty, slotPusher, o.parkedFn)
}

func (o *stackOp) parked(r atomics.Result) {
	if !r.OK {
		// Slot busy: go straight back to the stack.
		o.pushAttempt(o.freshTop)
		return
	}
	o.s.elim.eng.Schedule(o.s.elim.window, o.windowFn)
}

func (o *stackOp) windowUp() {
	o.s.mem.CompareAndSwap(o.th.Core, o.slot, slotPusher, slotEmpty, o.withdrawFn)
}

func (o *stackOp) withdraw(r atomics.Result) {
	if r.OK {
		// No partner came: withdraw and retry on the stack.
		o.pushAttempt(o.freshTop)
		return
	}
	// A popper matched us (slot says so): reset the slot and finish —
	// the pair never touched the top pointer.
	o.s.mem.StoreOp(o.th.Core, o.slot, slotEmpty, o.matchedFn)
}

func (o *stackOp) matched(atomics.Result) {
	o.s.elim.elims++
	o.s.pushes++
	o.done()
}

// probe checks one slot for a waiting pusher after a failed pop CAS: a
// hit eliminates the pair, a miss retries on the stack.
func (o *stackOp) probe() {
	o.slot = o.s.elim.slot(o.th)
	o.s.mem.CompareAndSwap(o.th.Core, o.slot, slotPusher, slotMatched, o.probeFn)
}

func (o *stackOp) probed(r atomics.Result) {
	if r.OK {
		o.s.elim.elims++
		o.s.pops++
		o.done()
		return
	}
	o.pop()
}
