package workload

import (
	"fmt"
	"reflect"
	"sync"

	"atomicsmodel/internal/atomics"
	"atomicsmodel/internal/coherence"
	"atomicsmodel/internal/invariant"
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/metrics"
	"atomicsmodel/internal/sim"
	"atomicsmodel/internal/stats"
)

// This file is the pooled cell runtime every simulated cell runs on —
// the primitive workloads of this package and the concurrent-object
// apps of internal/apps alike. The runtime owns what a cell is made of
// regardless of what its threads do: the per-machine pool of engines
// and memories, their reset, the arbiter, the recycled metrics
// registry, the invariant checker, fault installation, thread
// placement, RNG seeding and start stagger, the warmup marker, the
// measured window, and per-thread op and latency accounting. A Driver
// supplies the rest: what one operation of a thread is.

// Driver is one cell's operation logic on the pooled runtime: the
// primitive loop of a workload cell, or a concurrent structure's
// operations (internal/apps).
type Driver interface {
	// Setup runs once per cell on the freshly reset engine and memory,
	// with threads placed and seeded, before metrics, the invariant
	// checker and any fault plan are installed. Drivers seed memory and
	// build their per-cell state here.
	Setup(c *Cell) error
	// Step begins thread th's next operation. The runtime calls it only
	// while the window is open; the operation's final continuation
	// reports completion with c.Done, which starts the next one.
	Step(c *Cell, th *Thread)
}

// Thread is one simulated worker of a cell. ID, Core and RNG belong to
// the runtime: the thread's index, the core placement put it on, and
// its own RNG stream split from the cell seed. The unexported fields
// are the primitive driver's per-operation context.
type Thread struct {
	ID   int
	Core int
	RNG  *sim.RNG

	// lines this thread operates on (shared or private per Mode),
	// resolved for the current run.
	lines []coherence.Line
	next  int
	// state says what the thread's one pending event is (thStart,
	// thThink, thOp); the fast-forward fingerprint reads it.
	state uint8
	// lastSeen drives the CAS expected value.
	lastSeen uint64
	// spanStart marks the start of the current CAS retry span.
	spanStart sim.Time
	inSpan    bool
	// expected is the CAS expected value of the thread's latest issue,
	// which the fast-forward fingerprint reads and a jump shifts. The
	// completion (casDone) does not read it: an open-loop thread may have
	// issued again since.
	expected uint64
	// loads counts the re-reads of a parked Load loop (Cell.parkLoads),
	// as its parked chain settles them; loadsAtMeasure is the count at
	// the warmup marker.
	loads          uint64
	loadsAtMeasure uint64
	// Prebaked per-thread callbacks, built once when the thread object is
	// created (thread objects live as long as their pooled cell) so the
	// hot issue/complete loop does not allocate a closure per operation.
	opDone    func(atomics.Result)
	casDone   func(atomics.Result)
	loadDone  func(atomics.Result)
	operateFn func()
	stepFn    func()
}

// Cell is the pooled runtime of one machine: the engine and memory a
// cell runs on, and the run's accounting. A Cell is handed to its
// Driver for the duration of one run.
type Cell struct {
	cfg  Config
	drv  Driver
	eng  *sim.Engine
	mem  *atomics.Memory
	pool *cellPool // the freelist Release returns the cell to

	// threads holds every thread object ever built for this cell; a run
	// uses the first cfg.Threads of them. Thread objects (and their
	// prebaked closures) survive pooling.
	threads   []*Thread
	measuring bool
	endAt     sim.Time
	// parkLoads says the primitive driver issues its loads through
	// atomics.Memory.SpinLoad, whose parked re-reads the window credits
	// when it closes (creditParkedLoads).
	parkLoads bool

	// Per-thread op accounting (record): perOps counts each thread's
	// measured operations, total every operation completed over the
	// whole run, and lat the latencies of the window's attempts — failed
	// CAS attempts among them, which are attempts but not ops. The
	// measured ops (Ops) and attempts (lat.Count()) are read off them.
	total  uint64
	perOps []uint64
	lat    *stats.Histogram
	// slat times whole CAS retry spans (the primitive driver's).
	slat *stats.Histogram

	// Measurement-window baselines captured by warmupFn, and the
	// window's coherence counter delta, read when it closes.
	cohAtMeasure  coherence.Stats
	clsAtMeasure  []uint64
	procAtMeasure uint64
	qtAtMeasure   sim.Time
	warmupFn      func()
	coh           coherence.Stats
	// root seeds the per-thread RNG streams; coreSeen is scratch for
	// counting distinct cores. Both are reused across runs.
	root     *sim.RNG
	coreSeen []bool

	// Steady-state cycle memoizer (fastforward.go). memoArmed is the
	// per-run eligibility verdict; probeFn and traceRecFn are the
	// prebaked engine idle hook and recording tracer.
	memo       memoState
	memoArmed  bool
	probeFn    func()
	traceRecFn func(coherence.TraceEvent)
	// Placement cache: sweeps run many cells with the same policy and
	// thread count on one machine, so the slot assignment (a pure
	// function of those) is reused instead of recomputed.
	lastPlacement machine.Placement
	lastThreads   int
	lastSlots     []int

	// Optional metrics instruments (nil when Config.Metrics is off; all
	// operations on them are nil-safe no-ops). regPool is the cell's
	// own registry, recycled for every metrics-on run.
	regPool *metrics.Registry
	reg     *metrics.Registry
	mReads  *metrics.Counter
	mRMWs   *metrics.Counter
}

// cellPools recycles cells per machine content. Acquiring a pooled
// cell resets its engine and memory to their just-built state, so a
// reused cell is byte-identical to a fresh one — teardown is a handful
// of pointer resets instead of discarding the event queue, request
// pools, directory entries, and thread closures to the GC. This is
// what holds steady-state cells at zero allocations on the simulation
// path. Workload and app cells share one pool per machine content.
//
// The key is what a pooled cell bakes in (poolKey), not the
// *machine.Machine pointer: machine.ByName and every spec build return
// a new value, so a pointer key would add a pool per value and never
// free it, and an edit to a machine after it ran a cell would reuse a
// cell built on the old parameters.
//
// Plain mutex-guarded freelists rather than sync.Pool: the runtime
// clears sync.Pool contents on GC cycles, which would silently discard
// warmed-up cells mid-sweep and re-pay the full build cost. Each
// freelist holds as many cells as ever ran at once on its machine
// content — at most the parallel scheduler's worker count — and the
// pools live for the process.
var (
	poolsMu   sync.Mutex
	cellPools = map[poolKey]*cellPool{}
)

// poolKey identifies the machine content a pooled cell is built for:
// the halves of the machine's Key (the spec digest covers the layout,
// topology and latencies as built) plus the exported fields a caller
// can still edit on a built machine that the coherence system or the
// memory bakes in. It holds the halves rather than Key's
// concatenation so that building it does not allocate.
type poolKey struct {
	name, digest  string
	lat           machine.Latencies
	forwardSharer bool
	linkOccupancy sim.Time
	storeBuffer   int
}

func poolKeyOf(m *machine.Machine) poolKey {
	return poolKey{m.Name, m.SpecDigest(), m.Lat, m.ForwardSharer, m.LinkOccupancy, m.StoreBufferDepth}
}

type cellPool struct {
	mu   sync.Mutex
	free []*Cell
}

// acquireCell takes a cell for m from its pool, or builds one. A
// pooled cell may have been built for another machine value of the
// same content; its memory is rebound to m, so the run reads only the
// caller's machine.
func acquireCell(m *machine.Machine) (*Cell, error) {
	k := poolKeyOf(m)
	poolsMu.Lock()
	p := cellPools[k]
	if p == nil {
		p = &cellPool{}
		cellPools[k] = p
	}
	poolsMu.Unlock()
	p.mu.Lock()
	var c *Cell
	if n := len(p.free); n > 0 {
		c = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
	}
	p.mu.Unlock()
	if c != nil {
		c.eng.Reset()
		c.mem.Reset()
		c.mem.Rebind(m)
		return c, nil
	}
	c, err := newCell(m)
	if err != nil {
		return nil, err
	}
	c.pool = p
	return c, nil
}

// Release returns the cell to its pool. The caller must have read
// everything it needs: the next run resets the engine and memory.
func (c *Cell) Release() {
	c.drv = nil // an app driver holds its structure: do not keep it alive
	// Nor its threads' line handles: the next Reset recycles the
	// entries they point to, and keeps no more than that run touches.
	for _, th := range c.threads {
		clear(th.lines)
		th.lines = th.lines[:0]
	}
	p := c.pool
	p.mu.Lock()
	p.free = append(p.free, c)
	p.mu.Unlock()
}

// newCell builds the runtime for machine m: the engine and the memory
// with its coherence system.
func newCell(m *machine.Machine) (*Cell, error) {
	eng := sim.NewEngine()
	mem, err := atomics.NewMemory(eng, m, nil)
	if err != nil {
		return nil, err
	}
	c := &Cell{eng: eng, mem: mem, root: sim.NewRNG(0)}
	c.warmupFn = func() {
		c.measuring = true
		c.cohAtMeasure = c.mem.System().Stats()
		c.clsAtMeasure = append(c.clsAtMeasure[:0], c.mem.System().Classes()...)
		c.procAtMeasure = c.eng.Processed()
		c.qtAtMeasure = c.eng.QueueTimeIntegral()
		if c.parkLoads {
			// Stats above settled every parked re-read so far.
			for _, th := range c.Threads() {
				th.loadsAtMeasure = th.loads
			}
		}
		// Zero the instruments so the snapshot, like every other
		// reported number, covers exactly the measured window.
		c.reg.Reset()
		if c.memoArmed {
			// Re-arm the cycle memoizer for the measured window,
			// skipping this probe: it sits at the warmup boundary, an
			// instant the cycle never revisits.
			c.memoArm(1, c.endAt)
		}
	}
	c.probeFn = c.probe
	c.traceRecFn = c.traceRec
	return c, nil
}

// placeThreads resolves thread placement, reusing the previous run's
// slot assignment when the policy and thread count repeat (placement is
// a pure function of machine, policy, and count; the machine's layout
// is fixed by the pool key).
func (c *Cell) placeThreads(cfg *Config) ([]int, error) {
	if c.lastSlots != nil && c.lastThreads == cfg.Threads && placementEqual(c.lastPlacement, cfg.Placement) {
		return c.lastSlots, nil
	}
	slots, err := cfg.Placement.Place(cfg.Machine, cfg.Threads)
	if err != nil {
		return nil, err
	}
	c.lastPlacement, c.lastThreads, c.lastSlots = cfg.Placement, cfg.Threads, slots
	return slots, nil
}

// placementEqual reports whether two placement values are the same
// policy, without panicking on uncomparable dynamic types.
func placementEqual(a, b machine.Placement) bool {
	ta := reflect.TypeOf(a)
	if ta == nil || ta != reflect.TypeOf(b) || !ta.Comparable() {
		return false
	}
	return a == b
}

// ensureThreads grows the cell's thread set to n objects, building
// each new thread's prebaked callbacks exactly once.
func (c *Cell) ensureThreads(n int) {
	for len(c.threads) < n {
		th := &Thread{ID: len(c.threads)}
		th.opDone = func(res atomics.Result) { c.complete(th, res, true) }
		// A CAS that succeeded observed its expected value, so the
		// completion needs no record of the issue: open-loop threads,
		// with several CASes in flight, share this callback too.
		th.casDone = func(res atomics.Result) {
			th.lastSeen = res.Old
			if res.OK {
				th.lastSeen = res.Old + 1
			}
			c.complete(th, res, res.OK)
		}
		th.loadDone = func(res atomics.Result) {
			th.lastSeen = res.Old
			c.complete(th, res, true)
		}
		th.operateFn = func() { c.operate(th) }
		th.stepFn = func() { c.step(th) }
		c.threads = append(c.threads, th)
	}
}

// RunCell runs one cell of drv under cfg on cfg.Machine's pooled
// runtime and returns the finished cell, checked: with cfg.Check the
// invariant checker's ledgers, otherwise the coherence invariants. The
// caller reads the results it needs and then calls Release. Only the
// runtime knobs of cfg apply to a driver other than this package's
// primitive loop: machine, arbiter, placement, threads, window, seed,
// metrics, check and faults.
func RunCell(cfg Config, drv Driver) (*Cell, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	return runCell(cfg, drv, nil)
}

// runCell is RunCell on filled-in defaults, reusing recycle's
// measurement buffers when it is non-nil (see RunReusing).
func runCell(cfg Config, drv Driver, recycle *Result) (*Cell, error) {
	c, err := acquireCell(cfg.Machine)
	if err != nil {
		return nil, err
	}
	slots, err := c.placeThreads(&cfg)
	if err != nil {
		return nil, err
	}
	eng, mem := c.eng, c.mem
	mem.System().SetArbiter(cfg.Arbiter)
	var reg *metrics.Registry
	if cfg.Metrics {
		if c.regPool == nil {
			c.regPool = metrics.New()
		}
		reg = c.regPool
		reg.Recycle()
	}
	c.reg = reg
	c.cfg, c.drv = cfg, drv
	c.measuring, c.parkLoads = false, false
	c.endAt = cfg.Warmup + cfg.Duration
	c.memo.phase, c.memo.jumps = memoOff, 0
	c.total = 0
	c.cohAtMeasure = coherence.Stats{}
	c.clsAtMeasure = append(c.clsAtMeasure[:0], mem.System().Classes()...)
	c.procAtMeasure = 0
	c.qtAtMeasure = 0

	// Measurement buffers escape into the result, so they are fresh
	// unless the caller handed back a recycled Result to reuse.
	if recycle != nil && cap(recycle.PerThreadOps) >= cfg.Threads {
		c.perOps = recycle.PerThreadOps[:cfg.Threads]
		clear(c.perOps)
	} else {
		c.perOps = make([]uint64, cfg.Threads)
	}
	if recycle != nil && recycle.Latency != nil {
		c.lat = recycle.Latency
		c.lat.Reset()
	} else {
		c.lat = stats.NewHistogram()
	}
	if recycle != nil && recycle.SuccessLatency != nil {
		c.slat = recycle.SuccessLatency
		c.slat.Reset()
	} else {
		c.slat = stats.NewHistogram()
	}

	c.ensureThreads(cfg.Threads)
	c.root.Reseed(cfg.Seed)
	for i, th := range c.threads[:cfg.Threads] {
		th.Core = cfg.Machine.CoreOf(slots[i])
		if th.RNG == nil {
			th.RNG = c.root.Split()
		} else {
			c.root.SplitInto(th.RNG)
		}
	}
	if err := drv.Setup(c); err != nil {
		return nil, err
	}
	mem.System().InstallMetrics(reg) // nil registry = off
	var chk *invariant.Checker
	if cfg.Check {
		chk = invariant.Install(eng, mem.System())
	}
	cfg.Faults.Install(eng, mem)
	// Spinners park (coherence.System.Await) under the memoizer's own
	// gate (parkingOn). The coherence layer also declines while a
	// tracer is installed, which in a cell is only while a memoizer
	// pass records a cycle's shape; invariant checking keeps it on.
	mem.System().SetParking(parkingOn(&cfg))

	c.memoArmed = fastForwardOn && memoVerdict(&cfg, drv) == ""
	if c.memoArmed {
		c.memoSetup()
		// Pre-warmup pass: the warmup marker stays pending and bounds
		// the jump; skip past the startup stagger and the cold-miss fill
		// (about one rotation) before fingerprinting — a capture taken
		// too early just fails its bounded search and is retaken.
		c.memoArm(cfg.Threads+4, cfg.Warmup)
	}

	// Stagger thread starts by a few ns so the initial convoy is not an
	// artifact of simultaneous issue. Open-loop threads instead run an
	// arrival process that issues without waiting for completions.
	for _, th := range c.threads[:cfg.Threads] {
		if cfg.OpenLoop {
			c.startArrivals(th)
			continue
		}
		// The step is owned by the thread, and so, through the engine's
		// owner inheritance, is every event of its closed loop.
		eng.ScheduleAs(int32(th.ID), th.RNG.Duration(10*sim.Nanosecond), th.stepFn)
	}

	eng.At(cfg.Warmup, c.warmupFn)

	eng.Run(c.endAt)
	// The window closes. Stats settles the re-reads of spinners still
	// parked at the horizon, which the drivers' load counters take too.
	c.coh = mem.System().Stats().Sub(c.cohAtMeasure)
	if c.parkLoads {
		c.creditParkedLoads()
	}

	if chk != nil {
		// Finalize subsumes CheckInvariants and adds the online ledgers.
		if err := chk.Finalize(); err != nil {
			return nil, err
		}
	} else if err := mem.System().CheckInvariants(); err != nil {
		return nil, fmt.Errorf("coherence invariant violated: %w", err)
	}
	if reg != nil {
		// What the runtime counts anyway is published once, here.
		c.coh.Publish(reg)
		ops := reg.Vector(metrics.WorkThreadOps, cfg.Threads)
		for i, n := range c.perOps {
			ops.Add(i, n)
		}
		reg.Counter(metrics.SimEvents).Add(eng.Processed() - c.procAtMeasure)
		reg.Counter(metrics.SimQueuePeak).Add(uint64(eng.MaxPending()))
	}
	return c, nil
}

// parkingOn is the gate under which spinners park: fast-forward on
// and no fault plan, whose event hook counts every dispatch.
func parkingOn(cfg *Config) bool { return fastForwardOn && cfg.Faults == nil }

// step starts thread th's next operation while the window is open.
func (c *Cell) step(th *Thread) {
	if c.eng.Now() >= c.endAt {
		return
	}
	c.drv.Step(c, th)
}

// record accounts one finished operation of th that took lat: ok
// operations count toward the run total, and while the window is open
// the latency joins the histogram and an ok operation counts as one of
// th's measured ops. It reports whether the window was open.
func (c *Cell) record(th *Thread, lat sim.Time, ok bool) bool {
	if ok {
		c.total++
	}
	if !c.measuring || c.eng.Now() > c.endAt {
		return false
	}
	c.lat.Record(lat)
	if ok {
		c.perOps[th.ID]++
	}
	return true
}

// Done accounts thread th's completed operation, which took lat, and
// starts the thread's next one while the window is open. A driver
// calls it from the operation's final continuation.
func (c *Cell) Done(th *Thread, lat sim.Time) {
	c.record(th, lat, true)
	c.step(th)
}

// Engine returns the cell's simulation engine.
func (c *Cell) Engine() *sim.Engine { return c.eng }

// Memory returns the cell's simulated memory.
func (c *Cell) Memory() *atomics.Memory { return c.mem }

// Threads returns the run's threads, placed and seeded.
func (c *Cell) Threads() []*Thread { return c.threads[:c.cfg.Threads] }

// Duration returns the length of the measured window, defaulted.
func (c *Cell) Duration() sim.Time { return c.cfg.Duration }

// Ops returns the operations completed in the measured window: the sum
// of the per-thread counts.
func (c *Cell) Ops() uint64 {
	var n uint64
	for _, k := range c.perOps {
		n += k
	}
	return n
}

// TotalOps returns the operations completed over the whole run,
// warmup included.
func (c *Cell) TotalOps() uint64 { return c.total }

// PerThreadOps returns each thread's measured operations. The slice is
// the run's own and escapes to the caller.
func (c *Cell) PerThreadOps() []uint64 { return c.perOps }

// Latency returns the measured operations' latency histogram. It is
// the run's own and escapes to the caller.
func (c *Cell) Latency() *stats.Histogram { return c.lat }

// Registry returns the run's metrics registry (nil when metrics are
// off); the runtime has already added the engine's event count and
// queue peak.
func (c *Cell) Registry() *metrics.Registry { return c.reg }
