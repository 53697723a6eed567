package atomics

import (
	"atomicsmodel/internal/coherence"
)

// Store buffering (TSO), an opt-in machine feature
// (machine.Machine.StoreBufferDepth > 0).
//
// Real x86 cores retire a plain store in ~1 cycle into a store buffer
// and drain it to the coherence fabric asynchronously; the thread only
// stalls when the buffer is full. Fences — and locked RMWs, whose lock
// prefix implies a full fence — must wait for the buffer to drain.
// This is the mechanism behind two facts the paper's tables show:
// plain stores look nearly free to the issuing thread while atomics on
// the very same line cost tens of cycles, and an atomic's price is
// partly ordering (the drain), not only the line.
//
// Simplification (documented): loads do not snoop the local store
// buffer (no store-to-load forwarding), so buffered mode is meant for
// store/RMW workloads; the default (depth 0) keeps the strict
// semantics every other experiment relies on.

// pendingStore is one store waiting in a core's buffer.
type pendingStore struct {
	line coherence.Line
	val  uint64
}

// storeBuf is one core's store buffer.
type storeBuf struct {
	q        []pendingStore
	draining bool
	// drainWaiters run when the buffer empties (fences, atomics).
	drainWaiters []func()
	// spaceWaiters run when an entry frees (stalled stores).
	spaceWaiters []func()
}

func (mem *Memory) buf(core int) *storeBuf {
	if mem.bufs == nil {
		mem.bufs = make(map[int]*storeBuf)
	}
	b, ok := mem.bufs[core]
	if !ok {
		b = &storeBuf{}
		mem.bufs[core] = b
	}
	return b
}

// bufferedStore retires the store locally and queues the drain.
func (mem *Memory) bufferedStore(core int, line coherence.Line, v uint64, done func(Result)) {
	b := mem.buf(core)
	if len(b.q) >= mem.bufDepth {
		// Buffer full: the store stalls until a drain completes.
		b.spaceWaiters = append(b.spaceWaiters, func() {
			mem.bufferedStore(core, line, v, done)
		})
		return
	}
	b.q = append(b.q, pendingStore{line: line, val: v})
	retire := mem.m.Lat.L1Hit // address generation + buffer write
	mem.sys.Engine().Schedule(retire, func() {
		if done != nil {
			// The overwritten value is unknown at retire time; buffered
			// stores report Old = 0 by construction.
			done(Result{Latency: retire, OK: true})
		}
	})
	if !b.draining {
		b.draining = true
		mem.drain(core)
	}
}

// drain writes the buffer head to the coherence system, then continues.
func (mem *Memory) drain(core int) {
	b := mem.buf(core)
	if len(b.q) == 0 {
		b.draining = false
		waiters := b.drainWaiters
		b.drainWaiters = nil
		for _, w := range waiters {
			w()
		}
		return
	}
	head := b.q[0]
	mem.sys.Access(core, head.line, coherence.RFO, mem.exec[Store],
		func(cur uint64) (uint64, bool) { return head.val, true },
		func(coherence.AccessResult) {
			b.q = b.q[1:]
			if len(b.spaceWaiters) > 0 {
				w := b.spaceWaiters[0]
				b.spaceWaiters = b.spaceWaiters[1:]
				w()
			}
			mem.drain(core)
		})
}

// waitDrained runs fn once the core's store buffer is empty (fences and
// locked RMWs). It runs immediately when nothing is pending.
func (mem *Memory) waitDrained(core int, fn func()) {
	if mem.bufDepth == 0 {
		fn()
		return
	}
	b := mem.buf(core)
	if len(b.q) == 0 && !b.draining {
		fn()
		return
	}
	b.drainWaiters = append(b.drainWaiters, fn)
}

// PendingStores reports how many stores core has waiting to drain. Only
// tests call it: it is the store-buffer tests' one view of buffer
// occupancy, which no operation's result exposes.
func (mem *Memory) PendingStores(core int) int {
	if mem.bufDepth == 0 || mem.bufs == nil {
		return 0
	}
	if b, ok := mem.bufs[core]; ok {
		return len(b.q)
	}
	return 0
}
