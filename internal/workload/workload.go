// Package workload implements the paper's two benchmark settings — the
// high-contention setting (all threads hammer one shared cache line)
// and the low-contention setting (each thread works on private lines) —
// plus a read/write-mix variant, as closed-loop simulated workloads:
// each simulated thread repeatedly performs optional local work and one
// atomic primitive, and the harness measures latency, throughput,
// per-thread fairness, and energy over a warmed-up window.
//
// In the model pipeline (ARCHITECTURE.md) this package is the main
// benchmark driver: its pooled cell runtime (cell.go) joins a machine
// description, a reset simulation engine and an atomics.Memory into one
// measured cell — for its own primitive workloads, the simulated
// realization of the closed system MODEL.md §2 models analytically (§5
// for the open-loop variant), and for the app structures of
// internal/apps alike. Config.Metrics switches on the per-cell
// observability registry (internal/metrics).
package workload

import (
	"fmt"

	"atomicsmodel/internal/atomics"
	"atomicsmodel/internal/coherence"
	"atomicsmodel/internal/energy"
	"atomicsmodel/internal/faults"
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/metrics"
	"atomicsmodel/internal/sim"
	"atomicsmodel/internal/stats"
)

// Mode selects the contention setting.
type Mode uint8

const (
	// HighContention: every thread targets the same line(s).
	HighContention Mode = iota
	// LowContention: every thread targets its own private lines.
	LowContention
	// ReadWriteMix: threads read a shared line with probability
	// ReadFraction and otherwise perform the RMW primitive on it.
	ReadWriteMix
)

func (m Mode) String() string {
	switch m {
	case HighContention:
		return "high-contention"
	case LowContention:
		return "low-contention"
	case ReadWriteMix:
		return "read-write-mix"
	}
	return "unknown"
}

// ParseMode resolves a mode display name (the String form) — the
// inverse modes round-trip through JSON workload specs by. The
// out-of-range placeholder "unknown" is not a mode and is rejected
// like any other misspelling.
func ParseMode(name string) (Mode, error) {
	for m := HighContention; m <= ReadWriteMix; m++ {
		if m.String() == name {
			return m, nil
		}
	}
	return 0, fmt.Errorf("workload: unknown mode %q (want %q, %q or %q)",
		name, HighContention, LowContention, ReadWriteMix)
}

// Config parameterizes one run.
type Config struct {
	Machine   *machine.Machine
	Arbiter   coherence.Arbiter // nil means FIFO
	Placement machine.Placement // nil means Compact
	Threads   int
	Primitive atomics.Primitive
	Mode      Mode
	// LocalWork is think time between operations (the paper's knob that
	// moves a workload from high to low contention). Zero means
	// back-to-back operations.
	LocalWork sim.Time
	// WorkJitter draws think times from an exponential distribution
	// with mean LocalWork instead of a constant.
	WorkJitter bool
	// Lines is how many lines each contention group uses: shared lines
	// in HighContention mode (default 1), private lines per thread in
	// LowContention mode (default 16).
	Lines int
	// ReadFraction applies in ReadWriteMix mode.
	ReadFraction float64
	// Warmup and Duration bound the run; only operations completing in
	// [Warmup, Warmup+Duration] are measured. Defaults: 20µs / 200µs.
	Warmup   sim.Time
	Duration sim.Time
	Seed     uint64
	// CASRetryLoop makes CAS threads retry until success (the lock-free
	// update loop) rather than counting each blind attempt as one op.
	// Either way failed attempts are recorded as failures.
	CASRetryLoop bool
	// OpenLoop switches from the closed-loop (issue, wait, think,
	// repeat) pattern to an open-loop arrival process: each thread
	// issues operations at exponentially distributed inter-arrival
	// times with mean OpenLoopInterarrival, without waiting for
	// completions. Past the line's saturation point the latency grows
	// without bound — the knee the model places at 1/serviceTime.
	OpenLoop bool
	// OpenLoopInterarrival is the per-thread mean inter-arrival time
	// (required when OpenLoop is set).
	OpenLoopInterarrival sim.Time
	// Metrics enables the per-cell observability registry: coherence
	// transfer/invalidation/queue-depth instruments, engine counters,
	// and the workload's own retry and per-thread counters, snapshotted
	// over the measured window into Result.Metrics. Off (the default)
	// costs one nil check per instrumented site and changes no results.
	Metrics bool
	// Check installs the online invariant checker (internal/invariant)
	// on this cell's engine and coherence system; a violation fails the
	// run with a deterministic report. Off (the default) costs one nil
	// check per audited site and changes no results.
	Check bool
	// Faults is this cell's simulation-layer fault plan
	// (internal/faults); nil (the default) injects nothing.
	Faults *faults.CellPlan
}

func (c *Config) fillDefaults() error {
	if c.Machine == nil {
		return fmt.Errorf("workload: Machine is required")
	}
	if err := c.Machine.Validate(); err != nil {
		return fmt.Errorf("workload: %w", err)
	}
	if c.Threads <= 0 {
		return fmt.Errorf("workload: Threads = %d", c.Threads)
	}
	if c.Placement == nil {
		c.Placement = machine.Compact{}
	}
	if c.Lines <= 0 {
		if c.Mode == LowContention {
			c.Lines = 16
		} else {
			c.Lines = 1
		}
	}
	if c.Warmup <= 0 {
		c.Warmup = 20 * sim.Microsecond
	}
	if c.Duration <= 0 {
		c.Duration = 200 * sim.Microsecond
	}
	if c.Mode == ReadWriteMix && (c.ReadFraction < 0 || c.ReadFraction > 1) {
		return fmt.Errorf("workload: ReadFraction %v out of [0,1]", c.ReadFraction)
	}
	if c.Mode != ReadWriteMix && c.ReadFraction != 0 {
		return fmt.Errorf("workload: ReadFraction %v has no effect in %s mode", c.ReadFraction, c.Mode)
	}
	if c.OpenLoop {
		if c.OpenLoopInterarrival <= 0 {
			return fmt.Errorf("workload: OpenLoop requires a positive OpenLoopInterarrival")
		}
		if c.CASRetryLoop {
			return fmt.Errorf("workload: OpenLoop and CASRetryLoop are mutually exclusive")
		}
	} else if c.OpenLoopInterarrival != 0 {
		return fmt.Errorf("workload: OpenLoopInterarrival %v has no effect without OpenLoop", c.OpenLoopInterarrival)
	}
	return nil
}

// Result reports one run's measurements. Everything the harness
// renders from a Result survives a JSON round trip byte-exactly — the
// experiment resume cache depends on it. Config is deliberately
// excluded (it holds the machine and interface-typed knobs); table
// assembly must not read it back out of a Result.
type Result struct {
	Config Config `json:"-"`
	// Ops counts successful operations completed in the measured
	// window (failed CAS attempts are not ops).
	Ops uint64
	// Attempts counts all completed primitives including failed CAS.
	Attempts uint64
	// Failures counts failed CAS attempts.
	Failures uint64
	// PerThreadOps is successful ops per logical thread, for fairness.
	PerThreadOps []uint64
	// Latency is the distribution of per-attempt latencies. For CAS
	// retry loops, SuccessLatency additionally measures read-to-success
	// spans (the cost of getting one update done).
	Latency        *stats.Histogram
	SuccessLatency *stats.Histogram
	// MeasuredFor is the measurement window length.
	MeasuredFor sim.Time
	// ThroughputMops is successful ops per second, in millions.
	ThroughputMops float64
	// Fairness metrics over PerThreadOps.
	Jain, CoV, MinMax float64
	// Energy is the energy report for the measured window.
	Energy energy.Report
	// Coh is the coherence counter delta for the measured window.
	Coh coherence.Stats
	// Metrics is the per-cell metrics snapshot over the measured window
	// (nil unless Config.Metrics was set). It rides the JSON encoding,
	// so cached cells replay it byte-identically on resume.
	Metrics *metrics.Snapshot `json:"metrics,omitempty"`
}

// MetricsSnapshot exposes the cell's metrics snapshot to the harness
// (nil when metrics were off). It implements the interface the cell
// scheduler uses to deliver snapshots to a MetricsCollector.
func (r *Result) MetricsSnapshot() *metrics.Snapshot { return r.Metrics }

// CellStats reports the simulated window and op count for run
// manifests (harness cell records).
func (r *Result) CellStats() (sim.Time, uint64) {
	return r.MeasuredFor, r.Ops
}

// SuccessRate returns Ops/Attempts (1 when there were no attempts).
func (r *Result) SuccessRate() float64 {
	if r.Attempts == 0 {
		return 1
	}
	return float64(r.Ops) / float64(r.Attempts)
}

// primitives is the driver of a workload cell: each step of a thread is
// optional think time and one atomic primitive on the thread's next
// line. Its per-thread context lives on Thread and its accounting on
// Cell, next to the cycle memoizer that fingerprints both.
type primitives struct{}

// Setup registers the workload's own instruments and resets every
// thread's operation context.
func (primitives) Setup(c *Cell) error {
	c.mReads = c.reg.Counter(metrics.WorkReads)
	c.mRMWs = c.reg.Counter(metrics.WorkRMWs)
	c.parkLoads = parkingOn(&c.cfg) && loopParks(&c.cfg)
	c.certainLoads = loopParks(&c.cfg) &&
		(c.cfg.Primitive == atomics.Load || (c.cfg.Mode == ReadWriteMix && c.cfg.ReadFraction >= 1))
	for i, th := range c.Threads() {
		th.next, th.lastSeen, th.expected = 0, 0, 0
		th.loads, th.loadsAtMeasure, th.loadsAtIssue = 0, 0, 0
		th.ahead, th.aheadRMW = 0, false
		th.spanStart, th.inSpan = 0, false
		th.state = thStart
		c.linesFor(th, i)
	}
	return nil
}

// Step runs one think-then-operate iteration of a thread.
func (primitives) Step(c *Cell, th *Thread) { c.think(th) }

// think runs one think-then-operate iteration of a thread.
func (c *Cell) think(th *Thread) {
	think := c.cfg.LocalWork
	if think > 0 && c.cfg.WorkJitter {
		think = th.RNG.Exp(think)
	}
	if think > 0 {
		th.state = thThink
		c.eng.Schedule(think, th.operateFn)
	} else {
		c.operate(th)
	}
}

// Run executes one configured workload and returns its measurements.
func Run(cfg Config) (*Result, error) { return RunReusing(cfg, nil) }

// RunReusing is Run with an optional recycled Result: when recycle is
// non-nil, its PerThreadOps slice and Latency/SuccessLatency histograms
// are emptied and reused instead of freshly allocated, and the returned
// pointer is recycle itself. The caller must own recycle outright —
// harness tables and the resume cache retain Results, so anything that
// outlives the call must use Run. Benchmarks use RunReusing to measure
// the simulation itself at zero allocations per cell.
func RunReusing(cfg Config, recycle *Result) (*Result, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	c, err := runCell(cfg, primitives{}, recycle)
	if err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	eng, reg := c.eng, c.reg
	numCores := c.mem.System().Params().NumCores
	if cap(c.coreSeen) < numCores {
		c.coreSeen = make([]bool, numCores)
	}
	coreSeen := c.coreSeen[:numCores]
	clear(coreSeen)
	coresUsed := 0
	for _, th := range c.Threads() {
		if !coreSeen[th.Core] {
			coreSeen[th.Core] = true
			coresUsed++
		}
	}
	res := recycle
	var snap *metrics.Snapshot
	if res == nil {
		res = &Result{}
	} else {
		snap = res.Metrics
	}
	// Every measured attempt recorded its latency; the ones that were
	// not ops are the failed CASes.
	ops, attempts := c.Ops(), c.lat.Count()
	*res = Result{
		Config:         cfg,
		Ops:            ops,
		Attempts:       attempts,
		Failures:       attempts - ops,
		PerThreadOps:   c.perOps,
		Latency:        c.lat,
		SuccessLatency: c.slat,
		MeasuredFor:    cfg.Duration,
		ThroughputMops: stats.Throughput(ops, cfg.Duration) / 1e6,
		Jain:           stats.JainIndex(c.perOps),
		CoV:            stats.CoV(c.perOps),
		MinMax:         stats.MinMaxRatio(c.perOps),
		Energy: energy.NewReport(cfg.Machine, c.mem.System().Classes(), c.clsAtMeasure,
			cfg.Duration, cfg.Threads, coresUsed, ops),
		Coh: c.coh,
	}
	if reg != nil {
		reg.Counter(metrics.WorkCASFailures).Add(res.Failures)
		reg.Counter(metrics.SimQueueTime).Add(uint64(eng.QueueTimeIntegral() - c.qtAtMeasure))
		reg.Counter(metrics.WorkWindow).Add(uint64(cfg.Duration))
		if snap == nil {
			snap = &metrics.Snapshot{}
		}
		res.Metrics = reg.SnapshotInto(snap)
	}
	// An open-loop run keeps issuing without waiting, so past saturation
	// its backlog of requests, operation contexts and events grows with
	// the window; Reset would keep all of it pooled for the rest of the
	// process, and every later cycle key would scan it. Such a cell is
	// left to the GC instead. Closed-loop runs hold at most one operation
	// per thread in flight, so their pools stay the size of the cell.
	if !cfg.OpenLoop {
		c.Release()
	}
	return res, nil
}

// startArrivals runs thread th's open-loop arrival process: operations
// issue at exponentially distributed inter-arrival times whether or not
// earlier ones have completed.
func (c *Cell) startArrivals(th *Thread) {
	var arrive func()
	arrive = func() {
		if c.eng.Now() >= c.endAt {
			return
		}
		c.operate(th)
		c.eng.Schedule(th.RNG.Exp(c.cfg.OpenLoopInterarrival), arrive)
	}
	c.eng.Schedule(th.RNG.Exp(c.cfg.OpenLoopInterarrival), arrive)
}

// linesFor resolves the lines thread i operates on, reusing the
// thread's line slice. Shared lines start at ID 1; private regions are
// spaced far apart so home nodes spread. It runs in Setup, on the reset
// memory the handles belong to.
func (c *Cell) linesFor(th *Thread, i int) {
	out := th.lines[:0]
	base := coherence.LineID(1)
	if c.cfg.Mode == LowContention {
		base = coherence.LineID(1_000_000 + i*4096)
	}
	for j := 0; j < c.cfg.Lines; j++ {
		out = append(out, c.mem.Handle(base+coherence.LineID(j)))
	}
	th.lines = out
}

// operate issues one primitive on the thread's next line.
func (c *Cell) operate(th *Thread) {
	if c.eng.Now() >= c.endAt {
		return
	}
	th.state = thOp
	line := th.lines[th.next]
	th.next = (th.next + 1) % len(th.lines)

	p := c.cfg.Primitive
	if c.cfg.Mode == ReadWriteMix && c.loadCoin(th) {
		p = atomics.Load
	}
	if p == atomics.Load {
		c.mReads.Inc()
	} else {
		c.mRMWs.Inc()
	}

	switch p {
	case atomics.CAS, atomics.CAS2:
		if !th.inSpan {
			th.inSpan = true
			th.spanStart = c.eng.Now()
		}
		th.expected = th.lastSeen
		c.mem.Do(p, th.Core, line, th.expected, th.expected+1, th.casDone)
	default:
		// A load whose completion closes a CAS span stays live: slat
		// times the span to that very completion.
		if p == atomics.Load && c.parkLoads && !th.inSpan {
			c.loadRun(th, line)
			return
		}
		c.mem.Do(p, th.Core, line, 1, 0, th.opDone)
	}
}

// loopParks reports whether cfg's loop issues loads on one line back to
// back — one line, no think time, a closed loop, and loads that are the
// primitive or a read mix's load coins — so that a thread holding a
// valid copy can park its loads on it (atomics.Memory.SpinLoad) under
// the parking gate. The outcome of the coin decides, not the mode: a
// mix at fraction 0 never loads and is an RMW loop (memoVerdict).
func loopParks(cfg *Config) bool {
	loads := cfg.Primitive == atomics.Load || (cfg.Mode == ReadWriteMix && cfg.ReadFraction > 0)
	return loads && cfg.Lines == 1 && cfg.LocalWork == 0 && !cfg.OpenLoop
}

// mixBatch caps the loads one parked run of a read mix stands for, and
// with it how far ahead a thread draws its coins.
const mixBatch = 4096

// loadCoin tosses a read-mix thread's coin for its next operation: a
// load, with probability ReadFraction, or an RMW. Coins drawn ahead
// (drawAhead) are spent first, in the order they were drawn. A coin
// whose outcome is certain (certainLoads) is not drawn: skipping the
// draw is exact by drawAhead's argument, since the thread's RNG
// stream feeds nothing else in such a loop, and only the stream's
// state, which nothing reads, differs.
func (c *Cell) loadCoin(th *Thread) bool {
	switch {
	case th.ahead > 0:
		th.ahead--
		return true
	case th.aheadRMW:
		th.aheadRMW = false
		return false
	case c.certainLoads:
		return true
	}
	return th.RNG.Float64() < c.cfg.ReadFraction
}

// drawAhead draws a read-mix thread's coins ahead up to its next RMW
// coin, or until mixBatch-1 load coins are in hand. Certain coins
// (certainLoads) are never drawn ahead: their run is unbounded.
//
// Drawing early is exact because a thread's RNG stream is its own and,
// in a loop that parks (loopParks: no think time, closed), feeds
// nothing but these coins after the start stagger: no think-time draw,
// no arrival process. Every coin is drawn in stream order and spent in
// that order, so each operation gets the very coin the one-at-a-time
// draw gives it; when the window closes on coins never spent, the
// stream's state is read by nothing.
func (c *Cell) drawAhead(th *Thread) {
	for th.ahead < mixBatch-1 && !th.aheadRMW {
		if th.RNG.Float64() < c.cfg.ReadFraction {
			th.ahead++
		} else {
			th.aheadRMW = true
		}
	}
}

// loadRun issues a parked-load thread's load as the first of a run of
// loads: when it hits the thread's own copy, the run parks for all of
// them. When every coin says load (certainLoads: the Load primitive,
// or a mix at fraction 1) the run is unbounded; otherwise it holds the
// load coins drawn ahead (drawAhead), up to the next RMW coin, and the
// loads its chain ticked spend their coins on completion (loadDone).
func (c *Cell) loadRun(th *Thread, line coherence.Line) {
	var budget uint64
	if !c.certainLoads {
		c.drawAhead(th)
		budget = th.ahead + 1
	}
	th.loadsAtIssue = th.loads
	c.mem.SpinLoad(th.Core, line, budget, &th.loads, th.loadDone)
}

// skipEndRetract is a mutation hook for tests: set, a parked Load
// loop keeps the access its ticks at the window's end credited, which
// the differential must catch.
var skipEndRetract bool

// creditParkedLoads closes the window of a parked Load loop. Each
// parked re-read a thread's chain ticked after the warmup marker
// completed one measured load of L1Hit latency, exactly what record
// counts for a live one, and issued the next load. The one exception
// is a tick at the window's end: the unparked loop records a
// completion that lands exactly there but issues nothing after it, so
// the access each such tick credited is taken back, and it counts no
// read.
func (c *Cell) creditParkedLoads() {
	var n uint64
	for _, th := range c.Threads() {
		d := th.loads - th.loadsAtMeasure
		c.perOps[th.ID] += d
		c.total += th.loads
		n += d
	}
	sys := c.mem.System()
	c.lat.RecordN(sys.Params().L1Hit, n)
	end := sys.ParkedIssuedAt(c.endAt)
	if skipEndRetract {
		end = 0
	}
	c.mReads.Add(n - end)
	c.coh.Accesses -= end
	c.coh.LocalHits -= end
}

// complete records one finished attempt and schedules the next step.
func (c *Cell) complete(th *Thread, res atomics.Result, ok bool) {
	if c.record(th, res.Latency, ok) && ok && th.inSpan {
		c.slat.Record(c.eng.Now() - th.spanStart)
	}
	if ok {
		th.inSpan = false
	}
	if c.cfg.OpenLoop {
		// Arrivals drive issue; completions do not chain.
		return
	}
	if (c.cfg.Primitive == atomics.CAS || c.cfg.Primitive == atomics.CAS2) && c.cfg.CASRetryLoop && !ok {
		// Retry immediately (the failed CAS already told us the value).
		c.operate(th)
		return
	}
	// The loop continues directly, not through the runtime's driver
	// dispatch: this is the hottest call of a live workload cell.
	if c.eng.Now() < c.endAt {
		c.think(th)
	}
}
