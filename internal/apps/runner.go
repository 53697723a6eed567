package apps

import (
	"fmt"

	"atomicsmodel/internal/atomics"
	"atomicsmodel/internal/coherence"
	"atomicsmodel/internal/faults"
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/metrics"
	"atomicsmodel/internal/sim"
	"atomicsmodel/internal/stats"
	"atomicsmodel/internal/workload"
)

// RunConfig parameterizes an application benchmark.
type RunConfig struct {
	Machine   *machine.Machine
	Arbiter   coherence.Arbiter // nil means FIFO
	Placement machine.Placement // nil means Compact
	Threads   int
	// Build constructs the application once the simulated memory
	// exists (apps need the memory to seed their data structures).
	Build func(eng *sim.Engine, mem *atomics.Memory) App
	// Warmup and Duration bound the run (defaults 20µs / 200µs).
	Warmup   sim.Time
	Duration sim.Time
	Seed     uint64
	// Metrics enables the per-cell observability registry (see
	// internal/metrics and workload.Config.Metrics); the snapshot lands
	// in RunResult.Metrics.
	Metrics bool
	// Check installs the online invariant checker (internal/invariant);
	// see workload.Config.Check.
	Check bool
	// Faults is this cell's simulation-layer fault plan
	// (internal/faults); nil injects nothing.
	Faults *faults.CellPlan
}

// RunResult reports an application benchmark's measurements.
type RunResult struct {
	App            string
	Threads        int
	Ops            uint64
	PerThreadOps   []uint64
	Latency        *stats.Histogram
	ThroughputMops float64
	Jain, MinMax   float64
	// TotalOps counts operations completed over the whole run
	// including warmup, for invariant checks against app state.
	TotalOps uint64
	// Attempts counts the structure's retry-loop body executions (the
	// gating RMW issues, successful or not) over the whole run, when the
	// app reports them (RetryStats); zero otherwise. Attempts/TotalOps
	// is the measured retry factor internal/predict consumes.
	Attempts uint64 `json:"attempts,omitempty"`
	// Eliminations counts operations completed via a collision array
	// (elimination stacks); zero for other structures.
	Eliminations uint64 `json:"eliminations,omitempty"`
	// Violations counts overlapping critical sections the locks' shared
	// section audit observed; Run fails a cell that has any, so a result
	// always carries zero.
	Violations int `json:"violations,omitempty"`
	// Metrics is the per-cell metrics snapshot over the measured window
	// (nil unless RunConfig.Metrics was set).
	Metrics *metrics.Snapshot `json:"metrics,omitempty"`
}

// MetricsSnapshot exposes the cell's metrics snapshot to the harness
// (nil when metrics were off).
func (r *RunResult) MetricsSnapshot() *metrics.Snapshot { return r.Metrics }

// CellStats reports the op count for harness run manifests. Apps do
// not carry their measured window in the result, so only ops are
// reported.
func (r *RunResult) CellStats() (sim.Time, uint64) {
	return 0, r.Ops
}

// Run executes one application benchmark on the pooled cell runtime
// (workload.RunCell): the runtime owns the engine, memory, threads,
// window, metrics, checking and faults, and the app driver below runs
// the structure's operations on it.
func Run(cfg RunConfig) (*RunResult, error) {
	if cfg.Machine == nil || cfg.Build == nil {
		return nil, fmt.Errorf("apps: Machine and Build are required")
	}
	if cfg.Threads <= 0 {
		return nil, fmt.Errorf("apps: Threads = %d", cfg.Threads)
	}
	if err := cfg.Machine.Validate(); err != nil {
		return nil, fmt.Errorf("apps: %w", err)
	}
	d := &driver{build: cfg.Build}
	c, err := workload.RunCell(workload.Config{
		Machine:   cfg.Machine,
		Arbiter:   cfg.Arbiter,
		Placement: cfg.Placement,
		Threads:   cfg.Threads,
		Warmup:    cfg.Warmup,
		Duration:  cfg.Duration,
		Seed:      cfg.Seed,
		Metrics:   cfg.Metrics,
		Check:     cfg.Check,
		Faults:    cfg.Faults,
	}, d)
	if err != nil {
		return nil, fmt.Errorf("apps: %w", err)
	}
	defer c.Release()
	ops, perOps := c.Ops(), c.PerThreadOps()
	res := &RunResult{
		App:            d.app.Name(),
		Threads:        cfg.Threads,
		Ops:            ops,
		PerThreadOps:   perOps,
		Latency:        c.Latency(),
		ThroughputMops: stats.Throughput(ops, c.Duration()) / 1e6,
		Jain:           stats.JainIndex(perOps),
		MinMax:         stats.MinMaxRatio(perOps),
		TotalOps:       c.TotalOps(),
	}
	// Structure-specific counters ride along when the app exposes them,
	// so table assembly and the conflict model can consume them from the
	// cached cell JSON alone.
	if rs, ok := d.app.(RetryStats); ok {
		res.Attempts = rs.Attempts()
	}
	if es, ok := d.app.(interface{ Eliminations() uint64 }); ok {
		res.Eliminations = es.Eliminations()
	}
	if vs, ok := d.app.(interface{ Violations() int }); ok {
		if v := vs.Violations(); v > 0 {
			return nil, fmt.Errorf("apps: %s: mutual exclusion breached: %d critical sections overlapped",
				res.App, v)
		}
	}
	if _, ok := d.app.(mutex); ok {
		// Each completed acquire-release cycle increments the protected
		// data exactly once, so mutual exclusion means no lost update.
		// Cycles the horizon cut off inside the critical section may
		// have incremented without completing: at most one per thread.
		v := DataValue(c.Memory())
		if v < res.TotalOps || v > res.TotalOps+uint64(cfg.Threads) {
			return nil, fmt.Errorf("apps: %s: mutual exclusion breached: data value %d outside [%d, %d]",
				res.App, v, res.TotalOps, res.TotalOps+uint64(cfg.Threads))
		}
	}
	if reg := c.Registry(); reg != nil {
		res.Metrics = reg.Snapshot()
	}
	return res, nil
}

// driver runs an App's operations on the cell runtime: each runtime
// thread gets an app Thread whose completion callback is built once per
// cell, so a Step passes the structure no fresh closure.
type driver struct {
	build   func(eng *sim.Engine, mem *atomics.Memory) App
	app     App
	threads []*Thread
}

// Setup builds the structure on the reset memory and the app threads on
// the runtime's placed, seeded threads.
func (d *driver) Setup(c *workload.Cell) error {
	eng := c.Engine()
	d.app = d.build(eng, c.Memory())
	wts := c.Threads()
	d.threads = make([]*Thread, len(wts))
	for i, wt := range wts {
		th := &Thread{ID: wt.ID, Core: wt.Core, RNG: wt.RNG}
		th.done = func() { c.Done(wt, eng.Now()-th.start) }
		d.threads[i] = th
	}
	return nil
}

// Step starts one operation of the structure for the thread.
func (d *driver) Step(c *workload.Cell, wt *workload.Thread) {
	th := d.threads[wt.ID]
	th.start = c.Engine().Now()
	d.app.Step(th, th.done)
}
