package harness

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"time"

	"atomicsmodel/internal/faults"
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/runlog"
	"atomicsmodel/internal/sim"
)

// Options tunes an experiment run.
type Options struct {
	// Context, when non-nil, bounds the whole run: once it is canceled
	// or past its deadline the scheduler stops claiming cells, and the
	// next cell each worker would have started fails with a
	// *CellCanceledError instead of computing (recorded in the manifest
	// as canceled). Cells already computing run to completion — a cell
	// is the preemption granularity, exactly like the watchdog. Nil
	// means context.Background(): the pre-context behavior, bit for
	// bit. Drivers stamp this field before RunExperiment; the atomicd
	// job server uses it to enforce per-job deadlines and cancellation.
	Context context.Context
	// Machines to evaluate; nil means machine.All().
	Machines []*machine.Machine
	// Quick trims sweeps and shortens simulated durations for CI-speed
	// runs; full runs match the reported EXPERIMENTS.md numbers.
	Quick bool
	// Seed is the base seed; distinct configurations derive their own.
	Seed uint64
	// Par is the maximum number of simulation cells run concurrently;
	// zero or negative means GOMAXPROCS. Results are independent of Par:
	// cells are assembled in index order, so tables come out
	// byte-identical whether Par is 1 or 64.
	Par int
	// Progress, when set, is called after each completed cell with
	// (cells done, cells total). Calls are serialized by the scheduler.
	Progress func(done, total int)
	// Exp is the ID of the experiment this Options drives (set by
	// RunExperiment). It namespaces manifest records and cache keys.
	Exp string
	// Manifest, when non-nil, receives one structured JSON-lines record
	// per completed cell plus experiment summaries (see internal/runlog).
	Manifest *runlog.Writer
	// Cache, when non-nil, is the content-keyed cell-result cache:
	// keyed cells whose config digest is already present replay the
	// stored result instead of re-simulating. Results are independent
	// of the cache by construction — cached results must round-trip
	// through JSON byte-exactly, which fanout enforces.
	Cache *runlog.Cache
	// Metrics, when non-nil, enables the per-cell observability
	// registries (internal/metrics): runners set Config.Metrics on their
	// workloads, and every completed cell's snapshot — fresh or replayed
	// from the cache — is delivered here. Enabling metrics tags cell
	// cache keys, so metrics-on and metrics-off runs never share cache
	// entries; with Metrics nil the simulation hot path takes the
	// nil-registry fast path and output is byte-identical to builds
	// without the observability layer.
	Metrics *MetricsCollector
	// Check enables the per-cell coherence/engine invariant checker
	// (internal/invariant): runners set Config.Check on their workloads,
	// a violation fails the cell with a deterministic report, and checked
	// runs get their own cache-key namespace. Off by default; off costs
	// one nil check per audited site and changes no results.
	Check bool
	// Faults is the experiment-level fault-injection plan
	// (internal/faults); nil injects nothing. Runners derive each cell's
	// slice with CellFaults. Faulted runs get their own cache-key
	// namespace so they can never poison a clean run's resume cache.
	Faults *faults.Plan
	// CellTimeout, when positive, bounds each cell's wall-clock compute
	// time: a cell that exceeds it fails with a *CellTimeoutError while
	// sibling cells finish and reach the manifest and cache — the
	// watchdog that turns a hung cell into a reported failure instead of
	// a hung run. The abandoned cell goroutine is orphaned (simulation
	// cells cannot be preempted) but writes only to a discarded channel.
	CellTimeout time.Duration
}

// MetricsOn reports whether cell metrics collection is enabled; runners
// forward it into workload.Config.Metrics / apps.RunConfig.Metrics.
func (o Options) MetricsOn() bool { return o.Metrics != nil }

// CheckOn reports whether invariant checking is enabled; runners
// forward it into workload.Config.Check / apps.RunConfig.Check.
func (o Options) CheckOn() bool { return o.Check }

// CellFaults derives cell i's fault plan (nil when no simulation-layer
// fault targets it); runners forward it into workload.Config.Faults /
// apps.RunConfig.Faults.
func (o Options) CellFaults(i int) *faults.CellPlan { return o.Faults.ForCell(i) }

// cellKey turns a runner-local cell key into the cache's full config
// key: experiment ID plus every base option that changes results (the
// seed and the Quick sweep trimming; Par never affects results). The
// per-cell part must itself identify the machine and every swept knob.
// It is the cell kind's key (spec_cells.go): spec cells join
// machine.Key() — "Name@digest" for spec-built machines — with "/wl@"
// or "/app@" and the spec's content digest (over the defaulted
// canonical form), so a machine or spec that reuses a name, or one
// edited between a crash and its resume, occupies its own cache
// namespace; probe kinds spell the machine key and their knobs out.
// Metrics collection, invariant checking, and fault plans join the key
// only when enabled, so existing plain caches stay valid and a
// checked/faulted run never shares cache entries with a clean one.
func (o Options) cellKey(k string) string {
	base := o.Exp + "|seed=" + strconv.FormatUint(o.Seed, 10) + "|quick=" + strconv.FormatBool(o.Quick)
	if o.Metrics != nil {
		base += "|metrics=on"
	}
	if o.Check {
		base += "|check=on"
	}
	if o.Faults != nil {
		base += "|faults=" + o.Faults.Signature()
	}
	return base + "|" + k
}

func (o Options) machines() []*machine.Machine {
	if len(o.Machines) > 0 {
		return o.Machines
	}
	return machine.All()
}

// warmup and duration return the measurement window for this option set.
func (o Options) warmup() sim.Time {
	if o.Quick {
		return 10 * sim.Microsecond
	}
	return 25 * sim.Microsecond
}

func (o Options) duration() sim.Time {
	if o.Quick {
		return 100 * sim.Microsecond
	}
	return 400 * sim.Microsecond
}

// threadSweep returns the thread counts to evaluate on machine m.
func (o Options) threadSweep(m *machine.Machine) []int {
	var pts []int
	if o.Quick {
		pts = []int{1, 2, 4, 8, 16}
	} else {
		switch m.Name {
		case "XeonE5":
			pts = []int{1, 2, 4, 8, 12, 16, 18, 24, 30, 36, 48, 72}
		case "KNL":
			pts = []int{1, 2, 4, 8, 16, 32, 48, 64, 128, 256}
		default:
			// Custom machines (spec files) get powers of two up to the
			// hardware-thread count, plus the physical-core count and the
			// full machine — the knees the paper's sweeps always include.
			for n := 1; n <= m.NumHWThreads(); n *= 2 {
				pts = append(pts, n)
			}
			pts = append(pts, m.NumCores(), m.NumHWThreads())
			sort.Ints(pts)
			pts = slices.Compact(pts)
		}
	}
	out := pts[:0:0]
	for _, n := range pts {
		if n <= m.NumHWThreads() {
			out = append(out, n)
		}
	}
	return out
}

// Experiment regenerates one of the paper's tables or figures.
type Experiment struct {
	// ID is the stable identifier (e.g. "F3").
	ID string
	// Title is the figure/table caption.
	Title string
	// Claim states which abstract claim the experiment exercises.
	Claim string
	// Run produces the result tables.
	Run func(o Options) ([]*Table, error)
}

var registry = map[string]*Experiment{}

// Register adds an experiment; duplicate IDs panic at init time.
func Register(e *Experiment) {
	if e.ID == "" || e.Run == nil {
		panic("harness: experiment needs ID and Run")
	}
	if _, dup := registry[e.ID]; dup {
		panic(fmt.Sprintf("harness: duplicate experiment %s", e.ID))
	}
	registry[e.ID] = e
}

// ByID returns a registered experiment.
func ByID(id string) (*Experiment, error) {
	e, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("harness: unknown experiment %q (have %v)", id, IDs())
	}
	return e, nil
}

// IDs returns all registered experiment IDs in display order (T1 first,
// then F1..Fn, then T2; lexicographic within the same prefix+number).
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		ki, kj := orderKey(ids[i]), orderKey(ids[j])
		if ki != kj {
			return ki < kj
		}
		// Explicit tiebreak: sort.Slice is not stable, and two IDs can
		// share a key (e.g. malformed IDs all keying to the trailer).
		return ids[i] < ids[j]
	})
	return ids
}

// orderKey sorts T1 before figures and T2 after, figures numerically.
// IDs whose suffix is not a number (or that are empty) sort after every
// well-formed ID rather than silently keying as zero.
func orderKey(id string) int {
	if id == "T1" {
		return 0
	}
	if len(id) < 2 {
		return 1 << 20
	}
	n, err := strconv.Atoi(id[1:])
	if err != nil {
		return 1 << 20
	}
	if id[0] == 'F' {
		return n
	}
	return 1000 + n // T2 and other prefixes trail the figures
}

// All returns every experiment in display order.
func All() []*Experiment {
	out := make([]*Experiment, 0, len(registry))
	for _, id := range IDs() {
		out = append(out, registry[id])
	}
	return out
}

// RunExperiment runs e with o after stamping o.Exp, and records an
// experiment-level manifest record (cell counts, wall time, error) when
// a manifest is attached. Drivers should prefer it over calling e.Run
// directly so every experiment shows up in the run manifest.
func RunExperiment(e *Experiment, o Options) ([]*Table, error) {
	o.Exp = e.ID
	start := time.Now()
	var cells0, cached0, failed0 int
	if o.Manifest != nil {
		cells0, cached0, failed0 = o.Manifest.Totals()
	}
	tables, err := e.Run(o)
	if o.Manifest != nil {
		cells, cached, failed := o.Manifest.Totals()
		rec := runlog.ExpRecord{
			Exp:    e.ID,
			Cells:  cells - cells0,
			Cached: cached - cached0,
			Failed: failed - failed0,
			WallMS: float64(time.Since(start)) / float64(time.Millisecond),
		}
		if err != nil {
			rec.Error = err.Error()
		}
		if werr := o.Manifest.Exp(rec); werr != nil && err == nil {
			err = werr
		}
	}
	return tables, err
}
