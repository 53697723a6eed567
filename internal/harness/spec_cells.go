package harness

import (
	"fmt"

	"atomicsmodel/internal/apps"
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/predict"
	"atomicsmodel/internal/sim"
	"atomicsmodel/internal/workload"
)

// This file is the bridge between declarative specs and the keyed cell
// scheduler. Every experiment runner describes its cells as
// workload.Specs or apps.Specs and keys them by content digest: the
// cell key is machineKey + "/wl@" (or "/app@") + spec.Digest(), so two
// cells that differ in any effective knob — arbiter, jitter, read
// fraction, structure depth, seed, window — can never alias a cache
// entry, and two spellings of the same cell always share one.

// specKind is one declarative spec kind as the cell bridge sees it.
type specKind[S, R any] struct {
	infix  string // between the machine key and the digest in cell keys
	digest func(*S) (string, error)
	expand func(*S) []*S
	// knobs points at the fields the harness pins on every cell.
	knobs func(*S) (threads *int, warmup, duration *sim.Time, seed *uint64)
	// run resolves a pinned spec against a machine and runs it,
	// forwarding the option set's observability, checking and fault
	// knobs (which join the cache key at the cellKey layer, not the
	// digest).
	run func(o Options, ci int, m *machine.Machine, s *S) (R, error)
}

var workloadKind = specKind[workload.Spec, *workload.Result]{
	infix:  "/wl@",
	digest: (*workload.Spec).Digest,
	expand: (*workload.Spec).Expand,
	knobs: func(s *workload.Spec) (*int, *sim.Time, *sim.Time, *uint64) {
		return &s.Threads, &s.WarmupPS, &s.DurationPS, &s.Seed
	},
	run: func(o Options, ci int, m *machine.Machine, s *workload.Spec) (*workload.Result, error) {
		cfg, err := s.Config(m)
		if err != nil {
			return nil, err
		}
		cfg.Metrics, cfg.Check, cfg.Faults = o.MetricsOn(), o.CheckOn(), o.CellFaults(ci)
		return workload.Run(cfg)
	},
}

var appKind = specKind[apps.Spec, *apps.RunResult]{
	infix:  "/app@",
	digest: (*apps.Spec).Digest,
	expand: (*apps.Spec).Expand,
	knobs: func(s *apps.Spec) (*int, *sim.Time, *sim.Time, *uint64) {
		return &s.Threads, &s.WarmupPS, &s.DurationPS, &s.Seed
	},
	run: func(o Options, ci int, m *machine.Machine, s *apps.Spec) (*apps.RunResult, error) {
		cfg, err := s.RunConfig(m)
		if err != nil {
			return nil, err
		}
		cfg.Metrics, cfg.Check, cfg.Faults = o.MetricsOn(), o.CheckOn(), o.CellFaults(ci)
		return apps.Run(cfg)
	},
}

// specCell pairs a machine with a pinned spec and carries the cell's
// precomputed cache key (FanoutKeyed's key func cannot return an
// error, so the digest is computed while building the list).
type specCell[S any] struct {
	m    *machine.Machine
	spec *S
	key  string
}

// pinned returns a spec pinned to this option set's measurement
// window, n threads and seed; runners fill in the swept knobs.
func (k specKind[S, R]) pinned(o Options, n int, seed uint64) S {
	var s S
	threads, warmup, duration, sd := k.knobs(&s)
	*threads, *warmup, *duration, *sd = n, o.warmup(), o.duration(), seed
	return s
}

// at is pinned with the sweep seed o.Seed+n, so every point of a thread
// ladder draws its own streams.
func (k specKind[S, R]) at(o Options, n int) S { return k.pinned(o, n, o.Seed+uint64(n)) }

// fixed is pinned with the base seed, for figures that sweep some
// other knob at one thread count.
func (k specKind[S, R]) fixed(o Options, n int) S { return k.pinned(o, n, o.Seed) }

// cell validates and keys one cell. The spec must be pinned (single
// thread count) and carry its full effective configuration — including
// seed and measurement window — since the digest is the cell's cache
// identity.
func (k specKind[S, R]) cell(m *machine.Machine, s S) (specCell[S], error) {
	d, err := k.digest(&s)
	if err != nil {
		return specCell[S]{}, err
	}
	return specCell[S]{m: m, spec: &s, key: m.Key() + k.infix + d}, nil
}

// specCells collects one fan-out's cells. add keys each cell as it
// comes and keeps the first keying error, which run returns, so
// runners build their grids without an error check per cell.
type specCells[S, R any] struct {
	kind specKind[S, R]
	// keyPrefix namespaces cells that would otherwise share keys with
	// another fan-out of the same experiment.
	keyPrefix string
	cells     []specCell[S]
	err       error
}

func (k specKind[S, R]) newCells() *specCells[S, R] { return &specCells[S, R]{kind: k} }

// add appends the cell running pinned spec s on m.
func (c *specCells[S, R]) add(m *machine.Machine, s S) {
	if c.err != nil {
		return
	}
	cell, err := c.kind.cell(m, s)
	if err != nil {
		c.err = err
		return
	}
	cell.key = c.keyPrefix + cell.key
	c.cells = append(c.cells, cell)
}

// run fans the cells out through the keyed scheduler; results come
// back in cell order regardless of Par.
func (c *specCells[S, R]) run(o Options) ([]R, error) {
	if c.err != nil {
		return nil, c.err
	}
	return FanoutKeyed(o, c.cells, func(sc specCell[S]) string {
		return sc.key
	}, func(ci int, sc specCell[S]) (R, error) {
		return c.kind.run(o, ci, sc.m, sc.spec)
	})
}

// specGroup is one machine × spec table of a spec suite: the spec's
// points that fit the machine, in ladder order, with their results.
type specGroup[S, R any] struct {
	m       *machine.Machine
	spec    *S
	digest  string
	points  []*S
	results []R
	skipped error // set when the spec cannot run on m at all
}

// suite runs every spec on every selected machine: thread ladders are
// expanded, points beyond a machine's hardware threads are dropped,
// and machine × spec pairs that fits rejects are skipped (fits may be
// nil). Points that leave the measurement window or seed unset inherit
// the harness defaults: the option set's warmup/duration and the
// sweep-style per-thread-count seed derivation.
func (k specKind[S, R]) suite(o Options, specs []*S, fits func(*S, *machine.Machine) error) ([]specGroup[S, R], error) {
	var groups []specGroup[S, R]
	cells := k.newCells()
	for _, m := range o.machines() {
		for _, s := range specs {
			d, err := k.digest(s)
			if err != nil {
				return nil, err
			}
			g := specGroup[S, R]{m: m, spec: s, digest: d}
			if fits != nil {
				g.skipped = fits(s, m)
			}
			if g.skipped == nil {
				for _, pt := range k.expand(s) {
					threads, warmup, duration, seed := k.knobs(pt)
					if *threads > m.NumHWThreads() {
						continue
					}
					if *warmup == 0 {
						*warmup = o.warmup()
					}
					if *duration == 0 {
						*duration = o.duration()
					}
					if *seed == 0 {
						*seed = o.Seed + uint64(*threads)
					}
					g.points = append(g.points, pt)
					cells.add(m, *pt)
				}
			}
			groups = append(groups, g)
		}
	}
	results, err := cells.run(o)
	if err != nil {
		return nil, err
	}
	for i := range groups {
		n := len(groups[i].points)
		groups[i].results, results = results[:n], results[n:]
	}
	return groups, nil
}

// noteFit closes a group's table: a note that no point fits the
// machine, or the spec's digest.
func (g specGroup[S, R]) noteFit(t *Table) {
	if len(g.points) == 0 {
		t.AddNote("no point of this spec fits %s's %d hardware threads", g.m.Name, g.m.NumHWThreads())
	} else {
		t.AddNote("spec digest %s", g.digest)
	}
}

// WorkloadExperiment wraps user-selected workload specs as a runnable
// pseudo-experiment with ID "W" (the CLIs' -workloads/-workloadfile
// path). It is deliberately not in the registry: its cells depend on
// the user's spec selection, not only on Options.
func WorkloadExperiment(specs []*workload.Spec) *Experiment {
	return &Experiment{
		ID:    "W",
		Title: "Declarative workload specs",
		Claim: "user-defined workload cells run with the same digest-keyed caching and resume semantics as the paper's experiments",
		Run: func(o Options) ([]*Table, error) {
			return runWorkloadSuite(o, specs)
		},
	}
}

// runWorkloadSuite runs the W suite, one table per machine × spec.
func runWorkloadSuite(o Options, specs []*workload.Spec) ([]*Table, error) {
	groups, err := workloadKind.suite(o, specs, nil)
	if err != nil {
		return nil, err
	}
	var tables []*Table
	for _, g := range groups {
		t := NewTable(fmt.Sprintf("W (%s): %s", g.m.Name, g.spec.Label()),
			"threads", "Mops", "mean lat (ns)", "p99 (ns)", "Jain", "success rate", "nJ/op")
		for i, pt := range g.points {
			res := g.results[i]
			t.AddRow(itoa(pt.Threads), f2(res.ThroughputMops), ns(res.Latency.Mean()),
				ns(res.Latency.Quantile(0.99)), f3(res.Jain), f3(res.SuccessRate()),
				f1(res.Energy.PerOpNJ))
		}
		g.noteFit(t)
		if g.spec.Doc != "" {
			t.AddNote("%s", g.spec.Doc)
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// AppExperiment wraps user-selected app specs as a runnable
// pseudo-experiment with ID "A" (the CLIs' -apps/-appfile path). It is
// deliberately not in the registry: its cells depend on the user's
// spec selection, not only on Options.
func AppExperiment(specs []*apps.Spec) *Experiment {
	return &Experiment{
		ID:    "A",
		Title: "Declarative app specs",
		Claim: "user-defined concurrent-object cells run digest-keyed, and the conflict model predicts each cell's throughput from its measured retry factor",
		Run: func(o Options) ([]*Table, error) {
			return runAppSuite(o, specs)
		},
	}
}

// runAppSuite runs the A suite, one table per machine × spec;
// machine-incompatible structures are skipped with a note. Each row
// carries the conflict model's predicted throughput — the recipe
// evaluated with the cell's measured retry factor and elimination
// fraction — next to the simulated value, with the relative error.
func runAppSuite(o Options, specs []*apps.Spec) ([]*Table, error) {
	groups, err := appKind.suite(o, specs, (*apps.Spec).CheckMachine)
	if err != nil {
		return nil, err
	}
	var tables []*Table
	for _, g := range groups {
		t := NewTable(fmt.Sprintf("A (%s): %s", g.m.Name, g.spec.Label()),
			"threads", "sim Mops", "model Mops", "rel err", "attempts/op", "Jain")
		if g.skipped != nil {
			t.AddNote("skipped: %v", g.skipped)
			tables = append(tables, t)
			continue
		}
		for i, pt := range g.points {
			res := g.results[i]
			q := predict.Measured(res)
			mops, err := predict.ForSpec(g.m, pt, q)
			if err != nil {
				return nil, err
			}
			relErr := 0.0
			if res.ThroughputMops > 0 {
				relErr = (mops - res.ThroughputMops) / res.ThroughputMops * 100
			}
			t.AddRow(itoa(pt.Threads), f2(res.ThroughputMops), f2(mops),
				pct(relErr), f2(q.RetryFactor), f3(res.Jain))
		}
		g.noteFit(t)
		t.AddNote("model Mops: conflict model from the cell's measured retry factor (attempts/op)")
		if g.spec.Doc != "" {
			t.AddNote("%s", g.spec.Doc)
		}
		tables = append(tables, t)
	}
	return tables, nil
}
