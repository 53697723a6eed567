package apps

import (
	"atomicsmodel/internal/atomics"
	"atomicsmodel/internal/coherence"
)

// MS queue line layout. Node IDs index lines above qNodeBase; the value
// stored in a node's line is its next pointer (0 = null).
const (
	headLine  coherence.LineID = 130
	tailLine  coherence.LineID = 150
	qNodeBase coherence.LineID = 1 << 21
)

// MSQueue is the Michael–Scott lock-free FIFO queue built on the
// simulated CAS: two contended lines (head, tail) plus per-node lines.
// Each Step performs an enqueue or a dequeue (50/50). Compared with the
// Treiber stack it doubles the number of hot lines, which is exactly
// the contrast the contention model prices.
type MSQueue struct {
	mem        *atomics.Memory
	head, tail coherence.Line
	nextID     uint64
	enqueues   uint64
	dequeues   uint64
	empties    uint64
	attempts   uint64
	ops        []*queueOp
}

// queueOp is one thread's in-flight enqueue or dequeue: the node being
// enqueued and the head, tail and successor the current attempt read.
type queueOp struct {
	q                *MSQueue
	th               *Thread
	done             func()
	id               uint64
	head, tail, next uint64

	enqInitFn  func(atomics.Result)
	enqTailFn  func(atomics.Result)
	enqNextFn  func(atomics.Result)
	enqHelpFn  func(atomics.Result)
	enqLinkFn  func(atomics.Result)
	enqSwingFn func(atomics.Result)
	deqHeadFn  func(atomics.Result)
	deqTailFn  func(atomics.Result)
	deqNextFn  func(atomics.Result)
	deqHelpFn  func(atomics.Result)
	deqSwingFn func(atomics.Result)
}

// NewMSQueue returns a queue pre-seeded with depth elements (plus the
// dummy node the algorithm requires).
func NewMSQueue(mem *atomics.Memory, depth int) *MSQueue {
	q := &MSQueue{mem: mem, nextID: 1}
	dummy := q.alloc()
	mem.System().SetValue(nodeID(dummy), 0)
	mem.System().SetValue(headLine, dummy)
	tail := dummy
	for i := 0; i < depth; i++ {
		id := q.alloc()
		mem.System().SetValue(nodeID(id), 0)
		mem.System().SetValue(nodeID(tail), id)
		tail = id
	}
	mem.System().SetValue(tailLine, tail)
	q.head, q.tail = mem.Handle(headLine), mem.Handle(tailLine)
	return q
}

func (q *MSQueue) Name() string { return "ms-queue" }

// Stats reports operation counts (enqueues, dequeues, empty dequeues).
func (q *MSQueue) Stats() (enqueues, dequeues, empties uint64) {
	return q.enqueues, q.dequeues, q.empties
}

// Attempts counts the publishing CAS issues — next-pointer links on
// enqueue, head swings on dequeue (RetryStats). Help-swing CASes are
// not counted; they are not the gating step.
func (q *MSQueue) Attempts() uint64 { return q.attempts }

func (q *MSQueue) alloc() uint64 {
	id := q.nextID
	q.nextID++
	return id
}

func nodeID(id uint64) coherence.LineID { return qNodeBase + coherence.LineID(id) }

// node resolves node id's line where it is used: node IDs grow without
// bound, so nodes are not kept resolved.
func (q *MSQueue) node(id uint64) coherence.Line { return q.mem.Handle(nodeID(id)) }

func (q *MSQueue) newOp() *queueOp {
	o := &queueOp{q: q}
	o.enqInitFn = o.enqInit
	o.enqTailFn = o.enqTail
	o.enqNextFn = o.enqNext
	o.enqHelpFn = o.enqHelped
	o.enqLinkFn = o.enqLinked
	o.enqSwingFn = o.enqSwung
	o.deqHeadFn = o.deqHead
	o.deqTailFn = o.deqTail
	o.deqNextFn = o.deqNext
	o.deqHelpFn = o.deqHelped
	o.deqSwingFn = o.deqSwung
	return o
}

func (q *MSQueue) Step(th *Thread, done func()) {
	if th.RNG.Float64() < 0.5 {
		q.enqueue(th, done)
	} else {
		q.dequeue(th, done)
	}
}

// op binds thread th's operation context to a new operation.
func (q *MSQueue) op(th *Thread, done func()) *queueOp {
	o := threadOp(&q.ops, th, q.newOp)
	o.th, o.done = th, done
	return o
}

func (q *MSQueue) enqueue(th *Thread, done func()) {
	o := q.op(th, done)
	o.id = q.alloc()
	// Initialize the new node's next pointer (private line until
	// published by the CAS on its predecessor).
	q.mem.StoreOp(th.Core, q.node(o.id), 0, o.enqInitFn)
}

func (q *MSQueue) dequeue(th *Thread, done func()) { q.op(th, done).dequeue() }

func (o *queueOp) enqInit(atomics.Result) { o.enqueueLoop() }

func (o *queueOp) enqueueLoop() {
	o.q.mem.LoadOp(o.th.Core, o.q.tail, o.enqTailFn)
}

func (o *queueOp) enqTail(rt atomics.Result) {
	o.tail = rt.Old
	o.q.mem.LoadOp(o.th.Core, o.q.node(o.tail), o.enqNextFn)
}

func (o *queueOp) enqNext(rn atomics.Result) {
	o.next = rn.Old
	if o.next != 0 {
		// Tail lags: help swing it, then retry.
		o.q.mem.CompareAndSwap(o.th.Core, o.q.tail, o.tail, o.next, o.enqHelpFn)
		return
	}
	o.q.attempts++
	o.q.mem.CompareAndSwap(o.th.Core, o.q.node(o.tail), 0, o.id, o.enqLinkFn)
}

func (o *queueOp) enqHelped(atomics.Result) { o.enqueueLoop() }

func (o *queueOp) enqLinked(rc atomics.Result) {
	if !rc.OK {
		o.enqueueLoop()
		return
	}
	// Published; swing the tail (best effort — failure means someone
	// helped already).
	o.q.mem.CompareAndSwap(o.th.Core, o.q.tail, o.tail, o.id, o.enqSwingFn)
}

func (o *queueOp) enqSwung(atomics.Result) {
	o.q.enqueues++
	o.done()
}

func (o *queueOp) dequeue() {
	o.q.mem.LoadOp(o.th.Core, o.q.head, o.deqHeadFn)
}

func (o *queueOp) deqHead(rh atomics.Result) {
	o.head = rh.Old
	o.q.mem.LoadOp(o.th.Core, o.q.tail, o.deqTailFn)
}

func (o *queueOp) deqTail(rt atomics.Result) {
	o.tail = rt.Old
	o.q.mem.LoadOp(o.th.Core, o.q.node(o.head), o.deqNextFn)
}

func (o *queueOp) deqNext(rn atomics.Result) {
	o.next = rn.Old
	if o.next == 0 {
		// Empty (only the dummy remains).
		o.q.empties++
		o.done()
		return
	}
	if o.head == o.tail {
		// Tail lags behind a concurrent enqueue: help.
		o.q.mem.CompareAndSwap(o.th.Core, o.q.tail, o.tail, o.next, o.deqHelpFn)
		return
	}
	o.q.attempts++
	o.q.mem.CompareAndSwap(o.th.Core, o.q.head, o.head, o.next, o.deqSwingFn)
}

func (o *queueOp) deqHelped(atomics.Result) { o.dequeue() }

func (o *queueOp) deqSwung(rc atomics.Result) {
	if !rc.OK {
		o.dequeue()
		return
	}
	o.q.dequeues++
	o.done()
}
