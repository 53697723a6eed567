package workload

import (
	"embed"
	"encoding/json"
	"fmt"

	"atomicsmodel/internal/atomics"
	"atomicsmodel/internal/coherence"
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/sim"
	"atomicsmodel/internal/speckit"
)

// Spec is the declarative, serializable description of one workload
// cell: pure data — primitive, contention mode, thread count (or a
// ladder of counts), placement and arbiter policies by name, line
// striping, think time, read mix, arrival process, and measurement
// window. It is the workload counterpart of machine.Spec: a JSON spec
// file is a first-class workload definition with exactly the powers of
// a hand-written Config, and its content digest is the cell's identity
// in the harness resume cache.
//
// A Spec is machine-independent; Config joins it with a machine. All
// time fields are integer picoseconds (sim.Time's unit) rather than
// fractional larger units, so a spec round-trips through JSON
// byte-exactly and its digest is stable — the open-loop experiment
// computes sub-nanosecond interarrival times that a float encoding
// would corrupt.
type Spec struct {
	// Name identifies the spec in tables, listings and -workloads flags
	// (optional for inline/derived specs; required to register).
	Name string `json:"name,omitempty"`
	// Doc is a one-line description for listings (optional).
	Doc string `json:"doc,omitempty"`

	// Primitive is the atomic under test by display name: one of CAS,
	// FAA, SWAP, TAS, CAS2, Load, Store, Fence.
	Primitive string `json:"primitive"`
	// Mode is the contention pattern by display name: "high-contention"
	// (default), "low-contention" or "read-write-mix".
	Mode string `json:"mode,omitempty"`

	// Exactly one of Threads and ThreadLadder must be set. Threads pins
	// one thread count; ThreadLadder (strictly increasing) describes a
	// sweep that Expand turns into one pinned spec per point.
	Threads      int   `json:"threads,omitempty"`
	ThreadLadder []int `json:"threadLadder,omitempty"`

	// Placement names the thread→hardware-slot policy
	// (machine.PlacementByName): compact (default), scatter, smt-first,
	// or socket-N.
	Placement string `json:"placement,omitempty"`
	// Arbiter names the coherence arbitration policy
	// (coherence.NewByName): fifo (default), random, or locality.
	// ArbiterSkips bounds a locality arbiter's starvation window
	// (0 = unbounded) and is rejected for the other policies. The
	// random arbiter's RNG stream is seeded from Seed.
	Arbiter      string `json:"arbiter,omitempty"`
	ArbiterSkips int    `json:"arbiterSkips,omitempty"`

	// Lines is the contention-group line count: shared lines in
	// high-contention mode (default 1), private lines per thread in
	// low-contention mode (default 16).
	Lines int `json:"lines,omitempty"`

	// LocalWorkPS is think time between operations in picoseconds;
	// WorkJitter draws it from an exponential distribution with that
	// mean instead of a constant.
	LocalWorkPS sim.Time `json:"localWorkPS,omitempty"`
	WorkJitter  bool     `json:"workJitter,omitempty"`

	// ReadFraction applies in read-write-mix mode only.
	ReadFraction float64 `json:"readFraction,omitempty"`

	// CASRetryLoop makes CAS/CAS2 threads retry until success (the
	// lock-free update loop) rather than counting blind attempts.
	CASRetryLoop bool `json:"casRetryLoop,omitempty"`

	// OpenLoop switches to an open-loop arrival process with
	// exponentially distributed per-thread inter-arrival times of mean
	// OpenLoopInterarrivalPS picoseconds (required with OpenLoop, and
	// meaningless — rejected — without it).
	OpenLoop               bool     `json:"openLoop,omitempty"`
	OpenLoopInterarrivalPS sim.Time `json:"openLoopInterarrivalPS,omitempty"`

	// WarmupPS and DurationPS bound the run in picoseconds; only
	// operations completing in [warmup, warmup+duration] are measured.
	// Zero means the workload defaults (20µs / 200µs); the harness pins
	// its own window per Options.
	WarmupPS   sim.Time `json:"warmupPS,omitempty"`
	DurationPS sim.Time `json:"durationPS,omitempty"`

	// Seed seeds the cell's RNG streams (thread jitter, arrival draws,
	// the random arbiter). The harness derives per-cell seeds from its
	// base seed when a spec leaves this zero.
	Seed uint64 `json:"seed,omitempty"`
}

// maxSpecLines bounds the per-group line count.
const maxSpecLines = 1 << 20

// Clone returns a deep copy; callers derive variants (a thread ladder
// point, a tweaked knob) by cloning and mutating.
func (s *Spec) Clone() *Spec {
	out := *s
	out.ThreadLadder = append([]int(nil), s.ThreadLadder...)
	return &out
}

// Validate checks the spec's machine-independent invariants: names
// resolve, cross-field constraints hold, and no knob is set that the
// chosen mode or arrival process would silently ignore. Capacity
// against a concrete machine (threads vs hardware slots, socket
// indices) is checked at Config/Place time.
func (s *Spec) Validate() error {
	if _, err := atomics.Parse(s.Primitive); err != nil {
		return fmt.Errorf("workload spec: %w", err)
	}
	mode := s.Mode
	if mode == "" {
		mode = HighContention.String()
	}
	m, err := ParseMode(mode)
	if err != nil {
		return fmt.Errorf("workload spec: %w", err)
	}
	if err := speckit.CheckThreads("workload spec", s.Threads, s.ThreadLadder); err != nil {
		return err
	}
	if _, _, err := Policies("workload spec", s.Placement, s.Arbiter, s.ArbiterSkips, 0); err != nil {
		return err
	}
	if s.Lines < 0 || s.Lines > maxSpecLines {
		return fmt.Errorf("workload spec: lines = %d (want 0..%d)", s.Lines, maxSpecLines)
	}
	if s.LocalWorkPS < 0 {
		return fmt.Errorf("workload spec: localWorkPS = %d (want >= 0)", s.LocalWorkPS)
	}
	if s.WorkJitter && s.LocalWorkPS == 0 {
		return fmt.Errorf("workload spec: workJitter has no effect with zero localWorkPS")
	}
	if s.ReadFraction < 0 || s.ReadFraction > 1 {
		return fmt.Errorf("workload spec: readFraction %v out of [0,1]", s.ReadFraction)
	}
	if m != ReadWriteMix && s.ReadFraction != 0 {
		return fmt.Errorf("workload spec: readFraction %v has no effect in %s mode", s.ReadFraction, m)
	}
	if s.CASRetryLoop {
		if p, _ := atomics.Parse(s.Primitive); p != atomics.CAS && p != atomics.CAS2 {
			return fmt.Errorf("workload spec: casRetryLoop requires primitive CAS or CAS2, not %s", s.Primitive)
		}
		if s.OpenLoop {
			return fmt.Errorf("workload spec: openLoop and casRetryLoop are mutually exclusive")
		}
	}
	if s.OpenLoop && s.OpenLoopInterarrivalPS <= 0 {
		return fmt.Errorf("workload spec: openLoop requires a positive openLoopInterarrivalPS")
	}
	if !s.OpenLoop && s.OpenLoopInterarrivalPS != 0 {
		return fmt.Errorf("workload spec: openLoopInterarrivalPS %d has no effect without openLoop", s.OpenLoopInterarrivalPS)
	}
	return speckit.CheckWindow("workload spec", s.WarmupPS, s.DurationPS)
}

// Policies resolves a spec's placement and arbiter names into the
// policies a run uses; "" takes the defaults, compact and fifo. Errors
// start with prefix. Workload and app specs both validate and resolve
// their policies here (Validate with seed 0, discarding the values).
func Policies(prefix, placement, arbiter string, skips int, seed uint64) (machine.Placement, coherence.Arbiter, error) {
	DefaultPolicies(&placement, &arbiter)
	place, err := machine.PlacementByName(placement)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", prefix, err)
	}
	arb, err := coherence.NewByName(arbiter, skips, seed)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", prefix, err)
	}
	return place, arb, nil
}

// DefaultPolicies makes empty placement and arbiter names explicit:
// compact and fifo.
func DefaultPolicies(placement, arbiter *string) {
	if *placement == "" {
		*placement = "compact"
	}
	if *arbiter == "" {
		*arbiter = "fifo"
	}
}

// Defaulted returns a copy with every defaultable field made explicit:
// mode, placement, arbiter, line count, and measurement window. The
// digest is computed over this form, so a spec that spells out the
// defaults and one that omits them are the same cell.
func (s *Spec) Defaulted() *Spec {
	out := s.Clone()
	if out.Mode == "" {
		out.Mode = HighContention.String()
	}
	DefaultPolicies(&out.Placement, &out.Arbiter)
	if out.Lines == 0 {
		if out.Mode == LowContention.String() {
			out.Lines = 16
		} else {
			out.Lines = 1
		}
	}
	speckit.DefaultWindow(&out.WarmupPS, &out.DurationPS)
	return out
}

// Canonical returns the canonical JSON encoding of the defaulted spec —
// fixed field order, defaults explicit, no insignificant whitespace —
// the bytes the digest is computed over.
func (s *Spec) Canonical() ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return json.Marshal(s.Defaulted())
}

// Digest returns a short hex digest of the canonical encoding. Joined
// with the machine key it is the cell's identity in harness cache keys:
// two specs that differ in any effective knob can never alias a cache
// entry, and two spellings of the same cell always share one.
func (s *Spec) Digest() (string, error) { return speckit.Digest(s) }

// Expand returns the pinned single-thread-count specs this spec
// describes: itself if Threads is set, otherwise one clone per
// ThreadLadder point with Threads pinned and the ladder cleared.
func (s *Spec) Expand() []*Spec {
	return speckit.Expand(s, s.ThreadLadder, func(p *Spec, n int) { p.Threads, p.ThreadLadder = n, nil })
}

// Config joins the spec with a machine, resolving policy names into a
// runnable workload Config. The spec must be pinned (no thread ladder;
// see Expand). The resolved arbiter for "fifo" is the stateless value
// coherence.FIFOArbiter{} — identical in behaviour and fast-forward
// eligibility to the nil default a hand-written Config would carry.
func (s *Spec) Config(m *machine.Machine) (Config, error) {
	if err := s.Validate(); err != nil {
		return Config{}, err
	}
	if len(s.ThreadLadder) > 0 {
		return Config{}, fmt.Errorf("workload spec %s: expand the thread ladder before building a Config", s.Label())
	}
	d := s.Defaulted()
	prim, err := atomics.Parse(d.Primitive)
	if err != nil {
		return Config{}, err
	}
	mode, err := ParseMode(d.Mode)
	if err != nil {
		return Config{}, err
	}
	place, arb, err := Policies("workload spec", d.Placement, d.Arbiter, d.ArbiterSkips, d.Seed)
	if err != nil {
		return Config{}, err
	}
	return Config{
		Machine:              m,
		Arbiter:              arb,
		Placement:            place,
		Threads:              d.Threads,
		Primitive:            prim,
		Mode:                 mode,
		LocalWork:            d.LocalWorkPS,
		WorkJitter:           d.WorkJitter,
		Lines:                d.Lines,
		ReadFraction:         d.ReadFraction,
		Warmup:               d.WarmupPS,
		Duration:             d.DurationPS,
		Seed:                 d.Seed,
		CASRetryLoop:         d.CASRetryLoop,
		OpenLoop:             d.OpenLoop,
		OpenLoopInterarrival: d.OpenLoopInterarrivalPS,
	}, nil
}

// Label is the spec's display name: Name if set, else a
// primitive/mode summary.
func (s *Spec) Label() string {
	if s.Name != "" {
		return s.Name
	}
	mode := s.Mode
	if mode == "" {
		mode = HighContention.String()
	}
	return s.Primitive + "/" + mode
}

// RunSpec runs a pinned spec on the given machine and returns the
// measured Result.
func RunSpec(s *Spec, m *machine.Machine) (*Result, error) {
	cfg, err := s.Config(m)
	if err != nil {
		return nil, err
	}
	return Run(cfg)
}

// ParseSpec decodes a JSON workload spec strictly (speckit.Strict) and
// validates it.
func ParseSpec(data []byte) (*Spec, error) {
	s, err := speckit.Strict[Spec]("workload spec", data)
	if err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// LoadSpecFile reads, parses and validates a workload spec from a JSON
// file (the CLIs' -workloadfile path).
func LoadSpecFile(path string) (*Spec, error) {
	return speckit.LoadFile("workload spec", path, ParseSpec)
}

// The workload spec registry: every built-in workload is an embedded
// JSON spec under specs/. Adding a built-in workload requires zero Go
// code: drop a JSON file in specs/ and it becomes selectable by name in
// every CLI's -workloads flag.

//go:embed specs/*.json
var specFS embed.FS

var registry = speckit.NewRegistry[*Spec]("workload", "workload")

func init() {
	registry.MustLoad(specFS, "specs", ParseSpec, func(s *Spec) []string { return []string{s.Name} })
}

// SpecNames returns the canonical names of all registered workload
// specs, sorted.
func SpecNames() []string { return registry.Names() }

// SpecByName returns a deep copy of the registered spec for the given
// name (case-insensitive). Callers mutate the copy freely.
func SpecByName(name string) (*Spec, error) { return registry.Get(name) }

// SelectSpecs resolves the workload specs a CLI run targets: names is
// a comma-separated list of registered spec names, files a
// comma-separated list of JSON spec file paths (speckit.Select). Specs
// with duplicate digests are rejected.
func SelectSpecs(names, files string) ([]*Spec, error) {
	return speckit.Select("workload", names, files, SpecByName, LoadSpecFile, func(s *Spec) (string, error) {
		d, err := s.Digest()
		return "wl@" + d, err
	})
}
