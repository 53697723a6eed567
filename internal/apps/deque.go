package apps

import (
	"fmt"

	"atomicsmodel/internal/atomics"
	"atomicsmodel/internal/coherence"
)

// Work-stealing deque line layout: per-owner top and bottom index
// lines plus a circular buffer of item lines. Slots wrap at
// dequeBufSlots — the simulation tracks line traffic, not contents, so
// wrap aliasing is harmless.
const (
	dequeTopBase    coherence.LineID = 1 << 26
	dequeBottomBase coherence.LineID = 1 << 27
	dequeBufBase    coherence.LineID = 1 << 28
	dequeBufStride  coherence.LineID = 1 << 12
	dequeBufSlots                    = 256
)

// WSDeque is the Chase–Lev-style work-stealing deque: every thread
// owns a deque and pushes/takes at its bottom (owner-private lines in
// the common case), while thieves CAS the victim's top. It is the
// structure whose fast path the model prices as private-line traffic
// and whose steals are the only serialization — the opposite extreme
// from the one-hot-line Treiber stack.
//
// Each Step is one owner operation (push or take, 50/50); a take that
// finds the local deque empty (or loses the last-element race) turns
// into one steal attempt from a random victim. A failed or empty steal
// completes the operation anyway, so Steps always terminate.
type WSDeque struct {
	mem     *atomics.Memory
	threads int
	// tops and bottoms are each owner's index lines. slots holds the
	// buffer slots, owner by owner: a cell touches few of the 256 each
	// owner has, so they resolve on first use.
	tops, bottoms []coherence.Line
	slots         lineSet

	pushes  uint64
	takes   uint64
	steals  uint64
	empties uint64
	// attempts counts top-line CAS issues — the last-element race and
	// steal attempts, successful or not (RetryStats).
	attempts uint64

	ctxs []*dequeOp
}

// NewWSDeque builds one deque per thread, each pre-seeded with depth
// items so early takes do not immediately go stealing.
func NewWSDeque(mem *atomics.Memory, threads, depth int) (*WSDeque, error) {
	if threads < 1 {
		return nil, fmt.Errorf("apps: ws-deque needs threads >= 1, got %d", threads)
	}
	if depth < 0 || depth > dequeBufSlots {
		return nil, fmt.Errorf("apps: ws-deque depth %d out of 0..%d", depth, dequeBufSlots)
	}
	d := &WSDeque{
		mem:     mem,
		threads: threads,
		tops:    make([]coherence.Line, threads),
		bottoms: make([]coherence.Line, threads),
		slots:   newLineSet(mem, threads*dequeBufSlots, bufID),
		ctxs:    make([]*dequeOp, threads),
	}
	for i := 0; i < threads; i++ {
		for j := 0; j < depth; j++ {
			mem.System().SetValue(bufID(i*dequeBufSlots+j), uint64(j))
		}
		d.tops[i] = mem.Handle(dequeTopBase + coherence.LineID(i)*512)
		d.bottoms[i] = mem.Handle(dequeBottomBase + coherence.LineID(i)*512)
		mem.System().SetValue(d.bottoms[i].ID(), uint64(depth))
		o := &dequeOp{d: d}
		o.pushLoadBFn = o.pushLoadB
		o.pushStoreBufFn = o.pushStoreBuf
		o.pushStoreBFn = o.pushStoreB
		o.takeLoadBFn = o.takeLoadB
		o.takeStoreBFn = o.takeStoreB
		o.takeLoadTFn = o.takeLoadT
		o.takeLoadBufFn = o.takeLoadBuf
		o.takeCASFn = o.takeCAS
		o.takeSettleFn = o.takeSettle
		o.stealLoadTFn = o.stealLoadT
		o.stealLoadBFn = o.stealLoadB
		o.stealLoadBufFn = o.stealLoadBuf
		o.stealCASFn = o.stealCAS
		d.ctxs[i] = o
	}
	return d, nil
}

func (d *WSDeque) Name() string { return "ws-deque" }

// Stats reports owner pushes, owner takes, successful steals, and
// empty rounds (takes and steals that found nothing).
func (d *WSDeque) Stats() (pushes, takes, steals, empties uint64) {
	return d.pushes, d.takes, d.steals, d.empties
}

// Attempts counts top-line CAS issues (RetryStats).
func (d *WSDeque) Attempts() uint64 { return d.attempts }

func (d *WSDeque) top(owner int) coherence.Line { return d.tops[owner] }

func (d *WSDeque) bottom(owner int) coherence.Line { return d.bottoms[owner] }

// buf is owner's buffer slot for index idx.
func (d *WSDeque) buf(owner int, idx uint64) coherence.Line {
	return d.slots.at(owner*dequeBufSlots + int(idx%dequeBufSlots))
}

// bufID is the line ID of buffer slot i, counted owner by owner.
func bufID(i int) coherence.LineID {
	return dequeBufBase + coherence.LineID(i/dequeBufSlots)*dequeBufStride + coherence.LineID(i%dequeBufSlots)
}

func (d *WSDeque) Step(th *Thread, done func()) {
	o := d.ctxs[th.ID]
	o.th, o.done = th, done
	if th.RNG.Float64() < 0.5 {
		d.mem.LoadOp(th.Core, d.bottom(th.ID), o.pushLoadBFn)
	} else {
		d.mem.LoadOp(th.Core, d.bottom(th.ID), o.takeLoadBFn)
	}
}

// dequeOp is one thread's in-flight operation. Threads are closed-loop
// (one Step in flight each), so a single context per thread with
// callbacks built at construction keeps the deque allocation-free.
type dequeOp struct {
	d    *WSDeque
	th   *Thread
	done func()

	b, t    uint64
	victim  int
	casWon  bool
	stealOK bool

	pushLoadBFn    func(atomics.Result)
	pushStoreBufFn func(atomics.Result)
	pushStoreBFn   func(atomics.Result)
	takeLoadBFn    func(atomics.Result)
	takeStoreBFn   func(atomics.Result)
	takeLoadTFn    func(atomics.Result)
	takeLoadBufFn  func(atomics.Result)
	takeCASFn      func(atomics.Result)
	takeSettleFn   func(atomics.Result)
	stealLoadTFn   func(atomics.Result)
	stealLoadBFn   func(atomics.Result)
	stealLoadBufFn func(atomics.Result)
	stealCASFn     func(atomics.Result)
}

func (o *dequeOp) finish() {
	done := o.done
	o.done = nil
	done()
}

// Owner push: load bottom, write the item line, publish bottom+1.
func (o *dequeOp) pushLoadB(r atomics.Result) {
	o.b = r.Old
	o.d.mem.StoreOp(o.th.Core, o.d.buf(o.th.ID, o.b), o.b, o.pushStoreBufFn)
}

func (o *dequeOp) pushStoreBuf(atomics.Result) {
	o.d.mem.StoreOp(o.th.Core, o.d.bottom(o.th.ID), o.b+1, o.pushStoreBFn)
}

func (o *dequeOp) pushStoreB(atomics.Result) {
	o.d.pushes++
	o.finish()
}

// Owner take: reserve bottom-1, then race the thieves for the last
// element when top catches up.
func (o *dequeOp) takeLoadB(r atomics.Result) {
	if r.Old == 0 {
		o.steal()
		return
	}
	o.b = r.Old - 1
	o.d.mem.StoreOp(o.th.Core, o.d.bottom(o.th.ID), o.b, o.takeStoreBFn)
}

func (o *dequeOp) takeStoreB(atomics.Result) {
	o.d.mem.LoadOp(o.th.Core, o.d.top(o.th.ID), o.takeLoadTFn)
}

func (o *dequeOp) takeLoadT(r atomics.Result) {
	o.t = r.Old
	switch {
	case o.t < o.b:
		// More than one element left: the take is owner-private.
		o.d.mem.LoadOp(o.th.Core, o.d.buf(o.th.ID, o.b), o.takeLoadBufFn)
	case o.t == o.b:
		// Last element: race thieves with a CAS on our own top.
		o.d.attempts++
		o.d.mem.CompareAndSwap(o.th.Core, o.d.top(o.th.ID), o.t, o.t+1, o.takeCASFn)
	default:
		// Already empty (a thief overtook the reservation): restore
		// bottom and go steal.
		o.casWon = false
		o.d.mem.StoreOp(o.th.Core, o.d.bottom(o.th.ID), o.t, o.takeSettleFn)
	}
}

func (o *dequeOp) takeLoadBuf(atomics.Result) {
	o.d.takes++
	o.finish()
}

func (o *dequeOp) takeCAS(r atomics.Result) {
	o.casWon = r.OK
	o.d.mem.StoreOp(o.th.Core, o.d.bottom(o.th.ID), o.t+1, o.takeSettleFn)
}

func (o *dequeOp) takeSettle(atomics.Result) {
	if o.casWon {
		o.d.takes++
		o.finish()
		return
	}
	o.steal()
}

// steal picks a random victim and makes one attempt on its top.
func (o *dequeOp) steal() {
	if o.d.threads == 1 {
		o.d.empties++
		o.finish()
		return
	}
	o.victim = o.th.RNG.Intn(o.d.threads - 1)
	if o.victim >= o.th.ID {
		o.victim++
	}
	o.d.mem.LoadOp(o.th.Core, o.d.top(o.victim), o.stealLoadTFn)
}

func (o *dequeOp) stealLoadT(r atomics.Result) {
	o.t = r.Old
	o.d.mem.LoadOp(o.th.Core, o.d.bottom(o.victim), o.stealLoadBFn)
}

func (o *dequeOp) stealLoadB(r atomics.Result) {
	if o.t >= r.Old {
		// Victim looks empty: the round completes empty-handed.
		o.d.empties++
		o.finish()
		return
	}
	o.d.mem.LoadOp(o.th.Core, o.d.buf(o.victim, o.t), o.stealLoadBufFn)
}

func (o *dequeOp) stealLoadBuf(atomics.Result) {
	o.d.attempts++
	o.d.mem.CompareAndSwap(o.th.Core, o.d.top(o.victim), o.t, o.t+1, o.stealCASFn)
}

func (o *dequeOp) stealCAS(r atomics.Result) {
	if r.OK {
		o.d.steals++
	} else {
		// Lost the race: one attempt per round keeps Steps bounded.
		o.d.empties++
	}
	o.finish()
}
