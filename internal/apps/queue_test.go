package apps

import (
	"testing"

	"atomicsmodel/internal/atomics"
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/sim"
)

func TestMSQueueBasics(t *testing.T) {
	var q *MSQueue
	res, err := Run(appCfg(machine.Ideal(8), 8, func(e *sim.Engine, mem *atomics.Memory) App {
		q = NewMSQueue(mem, 64)
		return q
	}))
	if err != nil {
		t.Fatal(err)
	}
	enq, deq, emp := q.Stats()
	if enq+deq+emp != res.TotalOps {
		t.Fatalf("accounting: %d+%d+%d != %d", enq, deq, emp, res.TotalOps)
	}
	if enq == 0 || deq == 0 {
		t.Fatal("queue exercised only one operation type")
	}
	// Seeded 64 deep: dequeues can exceed enqueues by at most 64.
	if deq > enq+64 {
		t.Fatalf("dequeues %d exceed enqueues %d + seed", deq, enq)
	}
}

func TestMSQueueStructureConsistent(t *testing.T) {
	var q *MSQueue
	var mem *atomics.Memory
	_, err := Run(appCfg(machine.Ideal(8), 8, func(e *sim.Engine, m *atomics.Memory) App {
		mem = m
		q = NewMSQueue(m, 16)
		return q
	}))
	if err != nil {
		t.Fatal(err)
	}
	// Walk from head: length (excluding dummy) = 16 + enq - deq, give
	// or take operations that were cut off by the horizon after their
	// linearization point but before their completion callback (at most
	// one per thread).
	enq, deq, _ := q.Stats()
	want := 16 + int64(enq) - int64(deq)
	length := int64(0)
	cur := mem.System().Value(headLine) // dummy
	next := mem.System().Value(nodeID(cur))
	for next != 0 && length <= want+16 {
		length++
		cur = next
		next = mem.System().Value(nodeID(cur))
	}
	if length < want-8 || length > want+8 {
		t.Fatalf("queue length %d, want %d +-8", length, want)
	}
	// Tail points at the last node or lags it by a bounded number of
	// hops (an enqueue cut off between publishing and swinging leaves a
	// lag; the algorithm's help rule keeps it short).
	tail := mem.System().Value(tailLine)
	lag := 0
	for tail != cur && lag <= 8 {
		tail = mem.System().Value(nodeID(tail))
		lag++
		if tail == 0 {
			t.Fatal("tail chain fell off the queue")
		}
	}
	if tail != cur {
		t.Fatalf("tail lags the last node by more than %d hops", lag)
	}
}

func TestMSQueueFIFOOrderSingleThread(t *testing.T) {
	eng := sim.NewEngine()
	mem, err := atomics.NewMemory(eng, machine.Ideal(4), nil)
	if err != nil {
		t.Fatal(err)
	}
	q := NewMSQueue(mem, 0)
	th := &Thread{ID: 0, Core: 0, RNG: sim.NewRNG(1)}
	// Enqueue 3, then dequeue 3: FIFO means head advances through the
	// nodes in enqueue order.
	var enqueued []uint64
	for i := 0; i < 3; i++ {
		before := q.nextID
		q.enqueue(th, func() {})
		eng.Drain()
		enqueued = append(enqueued, before)
	}
	for i := 0; i < 3; i++ {
		wantHead := enqueued[i]
		q.dequeue(th, func() {})
		eng.Drain()
		if got := mem.System().Value(headLine); got != wantHead {
			t.Fatalf("dequeue %d: head = %d, want %d (FIFO violated)", i, got, wantHead)
		}
	}
	// Now empty.
	_, _, empBefore := q.Stats()
	q.dequeue(th, func() {})
	eng.Drain()
	if _, _, emp := q.Stats(); emp != empBefore+1 {
		t.Fatal("empty dequeue not detected")
	}
}

func TestStripedCounterCorrectAndScales(t *testing.T) {
	m := machine.XeonE5()
	var hot, striped *apps16Results
	hot = runCounter(t, m, func(e *sim.Engine, mem *atomics.Memory) App {
		return NewFAACounter(mem)
	}, func(a App) uint64 { return a.(*FAACounter).Value() })
	striped = runCounter(t, m, func(e *sim.Engine, mem *atomics.Memory) App {
		return NewStripedCounter(mem, 16, 0)
	}, func(a App) uint64 { return a.(*StripedCounter).Value() })

	if striped.value != striped.total {
		t.Fatalf("striped counter lost updates: %d != %d", striped.value, striped.total)
	}
	if striped.mops < 5*hot.mops {
		t.Fatalf("16-way striping (%.1f Mops) should be >=5x the hot counter (%.1f Mops)",
			striped.mops, hot.mops)
	}
}

type apps16Results struct {
	mops  float64
	total uint64
	value uint64
}

func runCounter(t *testing.T, m *machine.Machine, build func(*sim.Engine, *atomics.Memory) App, val func(App) uint64) *apps16Results {
	t.Helper()
	var app App
	res, err := Run(appCfg(m, 16, func(e *sim.Engine, mem *atomics.Memory) App {
		app = build(e, mem)
		return app
	}))
	if err != nil {
		t.Fatal(err)
	}
	return &apps16Results{mops: res.ThroughputMops, total: res.TotalOps, value: val(app)}
}

func TestStripedCounterReads(t *testing.T) {
	var sc *StripedCounter
	_, err := Run(appCfg(machine.Ideal(8), 8, func(e *sim.Engine, mem *atomics.Memory) App {
		sc = NewStripedCounter(mem, 8, 0.2)
		return sc
	}))
	if err != nil {
		t.Fatal(err)
	}
	incs, reads := sc.Stats()
	if incs == 0 || reads == 0 {
		t.Fatalf("mix not exercised: incs=%d reads=%d", incs, reads)
	}
	if sc.Value() < incs {
		t.Fatalf("stripes sum %d < increments %d", sc.Value(), incs)
	}
}

func TestStripedCounterDegeneratesToOneStripe(t *testing.T) {
	// stripes=1 is exactly the hot FAA counter; correctness must hold.
	var sc *StripedCounter
	res, err := Run(appCfg(machine.Ideal(8), 8, func(e *sim.Engine, mem *atomics.Memory) App {
		sc = NewStripedCounter(mem, 0, 0) // clamps to 1
		return sc
	}))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Value() != res.TotalOps {
		t.Fatalf("1-stripe value %d != steps %d", sc.Value(), res.TotalOps)
	}
}

func TestQueueVsStackLineFootprint(t *testing.T) {
	// The queue has two hot lines to the stack's one; under heavy
	// contention its per-op cost should not be lower.
	m := machine.XeonE5()
	stack, err := Run(appCfg(m, 16, func(e *sim.Engine, mem *atomics.Memory) App {
		return NewTreiberStack(mem, 128)
	}))
	if err != nil {
		t.Fatal(err)
	}
	queue, err := Run(appCfg(m, 16, func(e *sim.Engine, mem *atomics.Memory) App {
		return NewMSQueue(mem, 128)
	}))
	if err != nil {
		t.Fatal(err)
	}
	if stack.Ops == 0 || queue.Ops == 0 {
		t.Fatal("no ops")
	}
	t.Logf("stack %.2f Mops, queue %.2f Mops", stack.ThroughputMops, queue.ThroughputMops)
}
