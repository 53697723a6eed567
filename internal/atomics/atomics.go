// Package atomics implements the semantics of the atomic primitives the
// paper studies — CAS, FAA (fetch-and-add), SWAP (exchange), TAS
// (test-and-set) — plus plain loads and stores, executed against the
// simulated coherence protocol. Each primitive is a coherence
// transaction (loads are Read; everything else is an RFO, because x86
// locked instructions always take the line exclusive, even a CAS that
// will fail) plus a machine-specific execution occupancy charged while
// the line is held.
//
// In the model pipeline (ARCHITECTURE.md) this package is the bridge
// between the benchmark drivers (internal/workload, internal/apps) and
// the coherence substrate: Memory.Do turns a primitive into a line
// transaction, and ExecCost exposes the per-primitive occupancy e_p
// that MODEL.md §1 adds to every transfer cost.
package atomics

import (
	"fmt"

	"atomicsmodel/internal/coherence"
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/sim"
)

// Primitive enumerates the operations under study.
type Primitive uint8

const (
	// CAS is compare-and-swap (x86 lock cmpxchg).
	CAS Primitive = iota
	// FAA is fetch-and-add (x86 lock xadd).
	FAA
	// SWAP is atomic exchange (x86 xchg, implicit lock).
	SWAP
	// TAS is test-and-set (x86 lock bts), modeled on a whole word.
	TAS
	// Load is a plain 64-bit load.
	Load
	// Store is a plain 64-bit store.
	Store
	// CAS2 is double-width compare-and-swap (x86 lock cmpxchg16b),
	// the primitive behind version-counter ABA defenses. Coherence-wise
	// it is a normal RFO on one line with a longer execution occupancy.
	CAS2
	// Fence is a full memory barrier (x86 mfence): a core-local
	// pipeline/store-buffer drain with no coherence traffic at all —
	// the contrast that shows contention costs come from the line, not
	// the ordering semantics.
	Fence

	numPrimitives = int(Fence) + 1
)

func (p Primitive) String() string {
	switch p {
	case CAS:
		return "CAS"
	case FAA:
		return "FAA"
	case SWAP:
		return "SWAP"
	case TAS:
		return "TAS"
	case Load:
		return "Load"
	case Store:
		return "Store"
	case CAS2:
		return "CAS2"
	case Fence:
		return "Fence"
	}
	return fmt.Sprintf("Primitive(%d)", uint8(p))
}

// Parse resolves a primitive name (case-sensitive, as printed).
func Parse(name string) (Primitive, error) {
	for p := Primitive(0); int(p) < numPrimitives; p++ {
		if p.String() == name {
			return p, nil
		}
	}
	return 0, fmt.Errorf("atomics: unknown primitive %q", name)
}

// All returns every primitive in display order (Fence last: it is the
// only one without a memory operand).
func All() []Primitive { return []Primitive{CAS, FAA, SWAP, TAS, CAS2, Load, Store, Fence} }

// RMWs returns just the read-modify-write primitives.
func RMWs() []Primitive { return []Primitive{CAS, FAA, SWAP, TAS, CAS2} }

// IsRMW reports whether p is a read-modify-write (needs ownership).
func (p Primitive) IsRMW() bool {
	return p == CAS || p == FAA || p == SWAP || p == TAS || p == CAS2
}

// ExecCost returns the execution occupancy of p on machine m: the time
// the instruction holds the line at its serialization point once the
// data has arrived.
func ExecCost(m *machine.Machine, p Primitive) sim.Time {
	switch p {
	case CAS:
		return m.Lat.ExecCAS
	case FAA:
		return m.Lat.ExecFAA
	case SWAP:
		return m.Lat.ExecSWAP
	case TAS:
		return m.Lat.ExecTAS
	case Load:
		return m.Lat.ExecLoad
	case Store:
		return m.Lat.ExecStore
	case CAS2:
		return m.Lat.ExecCAS2
	case Fence:
		return m.Lat.ExecFence
	}
	panic("atomics: unknown primitive")
}

// Result describes a completed primitive.
type Result struct {
	// Latency is issue to completion, including queueing.
	Latency sim.Time
	// Old is the value the primitive observed at its serialization
	// point (the return value of FAA/SWAP/TAS/CAS/Load; for Store it is
	// the overwritten value).
	Old uint64
	// OK reports CAS success; it is always true for other primitives.
	OK bool
}

// Memory binds a machine description to a coherence system and exposes
// the primitives. It is the public surface workloads program against.
// Every primitive names its line by a coherence.Line handle, resolved
// once with Handle.
type Memory struct {
	sys *coherence.System
	m   *machine.Machine
	// exec is m's ExecCost of each primitive, read on every issue.
	exec [Fence + 1]sim.Time
	// Store buffering (opt-in via machine.StoreBufferDepth).
	bufDepth int
	bufs     map[int]*storeBuf
	// ctxPool recycles per-operation contexts so the apply/translate
	// closures every primitive needs are built once, not per operation;
	// allCtxs tracks every context ever created so Reset can reclaim
	// ones that were in flight when a run was cut off.
	ctxPool []*opCtx
	allCtxs []*opCtx
	// spinPool and allSpins do the same for AwaitChange spins.
	spinPool []*spinCtx
	allSpins []*spinCtx
	// casFault, when set, is consulted at every CAS serialization point;
	// returning true forces the CAS to fail even on a matching value.
	// Fault plans (internal/faults) use it to provoke retry storms; nil
	// (the default) costs one branch on the CAS apply path.
	casFault func() bool
}

// SetCASFault installs a forced-failure hook for CAS/CAS2 (nil removes
// it). The hook runs at the serialization point of every CAS, so with a
// deterministic hook the injected retry storm is reproducible.
func (mem *Memory) SetCASFault(fn func() bool) { mem.casFault = fn }

// opCtx carries one in-flight operation's parameters. Its closures (the
// coherence-level apply and the result translation, and a fence's issue
// and completion) are built at most once per context object and read
// everything through the context pointer, so pooled contexts make the
// primitive layer allocation-free in steady state.
type opCtx struct {
	mem        *Memory
	p          Primitive
	arg1, arg2 uint64
	start      sim.Time // a fence's issue time
	done       func(Result)
	applyFn    coherence.Apply
	doneFn     func(coherence.AccessResult)
	fenceFn    func()
	fenceEndFn func()
}

// apply implements the primitive's read-modify-write semantics at the
// line's serialization point.
func (c *opCtx) apply(cur uint64) (uint64, bool) {
	switch c.p {
	case CAS, CAS2:
		if c.mem.casFault != nil && c.mem.casFault() {
			return cur, false
		}
		if cur == c.arg1 {
			return c.arg2, true
		}
		return cur, false
	case FAA:
		return cur + c.arg1, true
	case SWAP, Store:
		return c.arg1, true
	case TAS:
		return 1, true
	}
	return cur, false // Load and Fence never modify
}

// complete translates the coherence result, recycles the context, and
// invokes the caller's callback.
func (c *opCtx) complete(r coherence.AccessResult) {
	mem, p, done := c.mem, c.p, c.done
	c.done = nil
	mem.ctxPool = append(mem.ctxPool, c)
	if done != nil {
		done(Result{Latency: r.Latency, Old: r.Value, OK: r.Wrote || !p.IsRMW()})
	}
}

func (mem *Memory) getCtx(p Primitive, arg1, arg2 uint64, done func(Result)) *opCtx {
	var c *opCtx
	if n := len(mem.ctxPool); n > 0 {
		c = mem.ctxPool[n-1]
		mem.ctxPool = mem.ctxPool[:n-1]
	} else {
		c = &opCtx{mem: mem}
		c.applyFn = c.apply
		c.doneFn = c.complete
		mem.allCtxs = append(mem.allCtxs, c)
	}
	c.p, c.arg1, c.arg2, c.done = p, arg1, arg2, done
	return c
}

// NewMemory wires a memory built from m's parameters onto engine eng
// with the given arbiter (nil means FIFO).
func NewMemory(eng *sim.Engine, m *machine.Machine, arb coherence.Arbiter) (*Memory, error) {
	sys, err := coherence.NewSystem(eng, m.CoherenceParams(), arb)
	if err != nil {
		return nil, err
	}
	mem := &Memory{sys: sys}
	mem.Rebind(m)
	return mem, nil
}

// Rebind points the memory at m, a machine of the same content as the
// one it was built from (equal Key, latencies, forwarding, link
// occupancy and store-buffer depth): a pooled memory reused for
// another value of the same machine reads that value, not the one it
// was built for, and refills the execution-cost table from it.
func (mem *Memory) Rebind(m *machine.Machine) {
	mem.m, mem.bufDepth = m, m.StoreBufferDepth
	for p := range mem.exec {
		mem.exec[p] = ExecCost(m, Primitive(p))
	}
}

// System exposes the underlying coherence system (stats, tracer, setup).
func (mem *Memory) System() *coherence.System { return mem.sys }

// Handle resolves line id to the handle the primitives take
// (coherence.System.Handle); it is valid until the next Reset.
func (mem *Memory) Handle(id coherence.LineID) coherence.Line { return mem.sys.Handle(id) }

// Reset returns the memory (and its coherence system) to the
// just-constructed state while keeping the operation-context pool and
// every other allocation, so a pooled cell can reuse it with no per-run
// allocation and byte-identical behavior.
func (mem *Memory) Reset() {
	mem.sys.Reset()
	mem.casFault = nil
	for c := range mem.bufs {
		delete(mem.bufs, c)
	}
	// Reclaim contexts whose operations never completed before the
	// run's horizon (their completion events died with the engine).
	mem.ctxPool = mem.ctxPool[:0]
	for _, c := range mem.allCtxs {
		c.done = nil
		mem.ctxPool = append(mem.ctxPool, c)
	}
	mem.spinPool = mem.spinPool[:0]
	for _, c := range mem.allSpins {
		c.done, c.loads, c.line = nil, nil, coherence.Line{}
		mem.spinPool = append(mem.spinPool, c)
	}
}

// ShiftInFlight translates the issue time of every in-flight operation
// by delta — fences here, coherence requests in the system — on behalf
// of the fast-forward layer, alongside sim.Engine.ShiftPending (see
// coherence.System.ShiftInFlight). Pooled contexts are shifted too,
// harmlessly: issue times are overwritten at issue.
func (mem *Memory) ShiftInFlight(delta sim.Time) {
	for _, c := range mem.allCtxs {
		c.start += delta
	}
	mem.sys.ShiftInFlight(delta)
}

// ShiftValues adds delta to every value the primitive layer holds for
// an operation in flight — the expected and new operands of a CAS or
// CAS2, which are absolute line values — and to the lines ids and the
// coherence requests in the system (coherence.System.ShiftValues), on
// behalf of the fast-forward layer's value translation. The other
// primitives' operands (an FAA's addend, a stored constant) are not
// line values and stay put. Pooled contexts are shifted too,
// harmlessly: operands are overwritten at issue.
func (mem *Memory) ShiftValues(ids []coherence.LineID, delta uint64) {
	for _, c := range mem.allCtxs {
		if c.p == CAS || c.p == CAS2 {
			c.arg1 += delta
			c.arg2 += delta
		}
	}
	mem.sys.ShiftValues(ids, delta)
}

// Machine returns the machine description this memory simulates.
func (mem *Memory) Machine() *machine.Machine { return mem.m }

func (mem *Memory) rmw(core int, line coherence.Line, c *opCtx) {
	if c.p.IsRMW() && mem.bufDepth > 0 {
		// The lock prefix implies a full fence: drain pending stores
		// first. (Latency reported covers the RFO only; the drain wait
		// shows up as elapsed simulated time.)
		mem.waitDrained(core, func() { mem.issueRMW(core, line, c) })
		return
	}
	// Issue directly — keeping this path free of the drain closure saves
	// an allocation on every operation of every buffer-less run.
	mem.issueRMW(core, line, c)
}

func (mem *Memory) issueRMW(core int, line coherence.Line, c *opCtx) {
	mem.sys.Access(core, line, coherence.RFO, mem.exec[c.p], c.applyFn, c.doneFn)
}

// CompareAndSwap2 is the double-width CAS: identical semantics to
// CompareAndSwap on the simulated 64-bit line value, but charged the
// cmpxchg16b execution occupancy.
func (mem *Memory) CompareAndSwap2(core int, line coherence.Line, old, new uint64, done func(Result)) {
	mem.rmw(core, line, mem.getCtx(CAS2, old, new, done))
}

// CompareAndSwap atomically replaces the line's value with new if it
// equals old. done receives OK=false and the observed value on failure.
// A failing CAS still acquires the line exclusively (as lock cmpxchg
// does), so it costs the same transfer as a success.
func (mem *Memory) CompareAndSwap(core int, line coherence.Line, old, new uint64, done func(Result)) {
	mem.rmw(core, line, mem.getCtx(CAS, old, new, done))
}

// FetchAndAdd atomically adds delta, returning the prior value in done.
func (mem *Memory) FetchAndAdd(core int, line coherence.Line, delta uint64, done func(Result)) {
	mem.rmw(core, line, mem.getCtx(FAA, delta, 0, done))
}

// Swap atomically replaces the value with v, returning the prior value.
func (mem *Memory) Swap(core int, line coherence.Line, v uint64, done func(Result)) {
	mem.rmw(core, line, mem.getCtx(SWAP, v, 0, done))
}

// TestAndSet atomically sets the value to 1, returning the prior value
// (0 means the caller acquired it).
func (mem *Memory) TestAndSet(core int, line coherence.Line, done func(Result)) {
	mem.rmw(core, line, mem.getCtx(TAS, 0, 0, done))
}

// LoadOp issues a plain load.
func (mem *Memory) LoadOp(core int, line coherence.Line, done func(Result)) {
	c := mem.getCtx(Load, 0, 0, done)
	mem.sys.Access(core, line, coherence.Read, mem.exec[Load], nil, c.doneFn)
}

// SpinLoad issues one plain load from core, exactly as LoadOp does, for
// a loop that issues its next load the moment this one completes. With
// parking on (coherence.System.SetParking), a load that hits the core's
// own valid copy of the line, still holding the value it held at issue,
// parks the loop
// (coherence.System.Await): its re-reads run as callback-free engine
// ticks, each one credited to *loads as it is settled
// (coherence.System.SettleParked), and done receives only the
// completion the loop wakes with. A positive budget says the loop
// loads at most that many times, this load included, before it does
// something else: the parked run then ends on its own with the
// budget-th load's completion. Unparked, done receives every
// completion and *loads stays put.
func (mem *Memory) SpinLoad(core int, line coherence.Line, budget uint64, loads *uint64, done func(Result)) {
	c := mem.getCtx(Load, 0, 0, done)
	mem.sys.Await(core, line, mem.exec[Load], line.Value(), budget, loads, c.doneFn)
}

// spinCtx is one in-flight AwaitChange spin, pooled like opCtx, with
// its per-load continuation built once per context.
type spinCtx struct {
	mem    *Memory
	core   int
	line   coherence.Line
	seen   uint64
	loads  *uint64
	done   func(Result)
	stepFn func(coherence.AccessResult)
}

// AwaitChange spins on line from core: it issues loads back to back
// and calls done once, with the result of the first load that observes
// a value other than seen. The loads are exactly the LoadOps of a spin
// loop re-issuing on seen, so every counter and event matches that
// loop; with parking on (coherence.System.SetParking), re-reads of the
// core's own valid copy while it holds seen run as callback-free
// engine ticks instead (coherence.System.Await). When loads is non-nil
// the spin reports how many loads it issued there, adding one as each
// is issued — each follows an observation of seen, or of the caller's
// own earlier one — and the parked re-reads as they are settled
// (coherence.System.SettleParked), so a spin still running at the
// horizon has counted exactly the loads the loop issued by then.
func (mem *Memory) AwaitChange(core int, line coherence.Line, seen uint64, loads *uint64, done func(Result)) {
	var c *spinCtx
	if n := len(mem.spinPool); n > 0 {
		c = mem.spinPool[n-1]
		mem.spinPool = mem.spinPool[:n-1]
	} else {
		c = &spinCtx{mem: mem}
		c.stepFn = c.step
		mem.allSpins = append(mem.allSpins, c)
	}
	c.core, c.line, c.seen, c.loads, c.done = core, line, seen, loads, done
	c.load()
}

// load issues the spin's next load.
func (c *spinCtx) load() {
	if c.loads != nil {
		*c.loads++
	}
	c.mem.sys.Await(c.core, c.line, c.mem.exec[Load], c.seen, 0, c.loads, c.stepFn)
}

// step re-issues the spin's load while it observes seen; otherwise it
// recycles the context and reports the changed value.
func (c *spinCtx) step(r coherence.AccessResult) {
	if r.Value == c.seen {
		c.load()
		return
	}
	mem, done := c.mem, c.done
	c.done, c.loads = nil, nil
	mem.spinPool = append(mem.spinPool, c)
	done(Result{Latency: r.Latency, Old: r.Value, OK: true})
}

// StoreOp issues a plain store of v. With store buffering enabled the
// store retires locally in about a cycle and drains asynchronously;
// otherwise it is a synchronous RFO.
func (mem *Memory) StoreOp(core int, line coherence.Line, v uint64, done func(Result)) {
	if mem.bufDepth > 0 {
		mem.bufferedStore(core, line, v, done)
		return
	}
	mem.rmw(core, line, mem.getCtx(Store, v, 0, done))
}

// FenceOp drains the issuing core's pipeline and, when store buffering
// is enabled, its store buffer; there is no coherence transaction of
// its own (the drained stores carry their own).
func (mem *Memory) FenceOp(core int, done func(Result)) {
	c := mem.getCtx(Fence, 0, 0, done)
	if c.fenceFn == nil {
		// Built on a context's first fence only: most contexts never
		// carry one, and open-loop cells keep thousands in flight.
		c.fenceFn, c.fenceEndFn = c.fence, c.fenceEnd
	}
	c.start = mem.sys.Engine().Now()
	mem.waitDrained(core, c.fenceFn)
}

// fence starts a fence's pipeline drain once its store buffer is empty.
func (c *opCtx) fence() {
	c.mem.sys.Engine().Schedule(c.mem.exec[Fence], c.fenceEndFn)
}

// fenceEnd completes a fence: it recycles the context and reports the
// issue-to-completion latency.
func (c *opCtx) fenceEnd() {
	mem, done := c.mem, c.done
	lat := mem.sys.Engine().Now() - c.start
	c.done = nil
	mem.ctxPool = append(mem.ctxPool, c)
	if done != nil {
		done(Result{Latency: lat, OK: true})
	}
}

// Do dispatches a primitive generically: CAS uses (arg1=old, arg2=new),
// FAA adds arg1, SWAP/Store write arg1, TAS and Load ignore the args,
// Fence ignores the line entirely.
// Workload sweeps use this to treat the primitive as a parameter.
func (mem *Memory) Do(p Primitive, core int, line coherence.Line, arg1, arg2 uint64, done func(Result)) {
	switch p {
	case Fence:
		mem.FenceOp(core, done)
		return
	case CAS:
		mem.CompareAndSwap(core, line, arg1, arg2, done)
	case CAS2:
		mem.CompareAndSwap2(core, line, arg1, arg2, done)
	case FAA:
		mem.FetchAndAdd(core, line, arg1, done)
	case SWAP:
		mem.Swap(core, line, arg1, done)
	case TAS:
		mem.TestAndSet(core, line, done)
	case Load:
		mem.LoadOp(core, line, done)
	case Store:
		mem.StoreOp(core, line, arg1, done)
	default:
		panic("atomics: unknown primitive")
	}
}
