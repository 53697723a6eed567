package apps

import (
	"embed"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"atomicsmodel/internal/atomics"
	"atomicsmodel/internal/coherence"
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/sim"
	"atomicsmodel/internal/speckit"
	"atomicsmodel/internal/workload"
)

// Spec is the declarative, serializable description of one
// concurrent-object benchmark cell: pure data — a structure name from
// the registry below, a thread count (or a ladder of counts),
// placement and arbiter policies by name, and the structure's knobs.
// It is the apps counterpart of workload.Spec: a JSON spec file is a
// first-class app definition with exactly the powers of a hand-written
// RunConfig, and its content digest is the cell's identity in the
// harness resume cache.
//
// A Spec is machine-independent; RunConfig joins it with a machine.
// All time fields are integer picoseconds (sim.Time's unit), so a spec
// round-trips through JSON byte-exactly and its digest is stable.
type Spec struct {
	// Name identifies the spec in tables, listings and -apps flags
	// (optional for inline/derived specs; required to register).
	Name string `json:"name,omitempty"`
	// Doc is a one-line description for listings (optional).
	Doc string `json:"doc,omitempty"`

	// Structure names the concurrent object under test — one of
	// StructureNames(): counter-faa, counter-cas, counter-striped,
	// treiber-stack, elimination-stack, ms-queue, lock-tas, lock-ttas,
	// lock-ttas-backoff, lock-ticket, lock-cohort, rwlock-central,
	// rwlock-distributed, ws-deque, big-atomic.
	Structure string `json:"structure"`

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

	// Depth pre-seeds container structures: nodes on the stacks and
	// queue, items per deque (0 takes the structure default). Rejected
	// for structures without a backing container.
	Depth int `json:"depth,omitempty"`
	// Stripes is the counter-striped stripe count (0 = 16).
	Stripes int `json:"stripes,omitempty"`
	// Slots is the elimination-stack collision-array width (0 = 4) or
	// the rwlock-distributed reader-slot count (0 = one per thread).
	Slots int `json:"slots,omitempty"`
	// Words is the big-atomic object width; 1 is the single-word CAS
	// baseline (0 = 4).
	Words int `json:"words,omitempty"`
	// Handoffs is the lock-cohort local hand-off bound (0 = 16).
	Handoffs int `json:"handoffs,omitempty"`

	// ReadFraction is the read mix for counter-striped, the RW locks
	// and big-atomic: the probability a Step is a read. Zero means all
	// writes. Rejected for structures without a read path.
	ReadFraction float64 `json:"readFraction,omitempty"`

	// CritPS is the lock-family critical-section length in picoseconds
	// (0 = 50ns for the mutual-exclusion locks, 20ns for RW locks).
	CritPS sim.Time `json:"critPS,omitempty"`
	// BackoffBasePS/BackoffMaxPS bound lock-ttas-backoff's exponential
	// backoff (0 = 100ns / 3.2µs).
	BackoffBasePS sim.Time `json:"backoffBasePS,omitempty"`
	BackoffMaxPS  sim.Time `json:"backoffMaxPS,omitempty"`
	// WindowPS is the elimination-stack collision window (0 = 200ns).
	WindowPS sim.Time `json:"windowPS,omitempty"`

	// WarmupPS and DurationPS bound the run in picoseconds; only
	// operations completing in [warmup, warmup+duration] are measured.
	// Zero means the runner defaults (20µs / 200µs); the harness pins
	// its own window per Options.
	WarmupPS   sim.Time `json:"warmupPS,omitempty"`
	DurationPS sim.Time `json:"durationPS,omitempty"`

	// Seed seeds the cell's RNG streams (thread jitter, structure
	// coin flips, the random arbiter). The harness derives per-cell
	// seeds from its base seed when a spec leaves this zero.
	Seed uint64 `json:"seed,omitempty"`
}

// Knob bounds. Thread counts share the machine layer's hardware-thread
// ceiling; container depths and widths are bounded well above any
// plausible benchmark — a spec beyond them is a typo, not a plan.
const (
	maxSpecDepth   = 1 << 16
	maxSpecStripes = 1 << 12
	maxSpecSlots   = 1 << 10
	maxSpecWords   = 64
)

// Structure knobs, used to reject ineffective settings: a knob set on
// a structure that ignores it would silently change the digest (and
// the cache identity) without changing the simulation.
const (
	knobDepth = 1 << iota
	knobStripes
	knobSlots
	knobWords
	knobHandoffs
	knobReadFraction
	knobCrit
	knobBackoff
	knobWindow
)

// structureInfo is one registry entry: the knobs the structure
// honours, its defaults, the hot line its contended traffic lands on
// (for tracing), and the builder RunConfig wires into apps.Run.
type structureInfo struct {
	name        string
	knobs       int
	multiSocket bool             // requires Sockets > 1 (lock-cohort)
	hot         coherence.LineID // most-contended line, for atomictrace
	build       func(d *Spec, m *machine.Machine, eng *sim.Engine, mem *atomics.Memory) App
}

// structures is the named-builder registry. Every structure an app
// spec can name lives here, under a one-line description; the
// F-experiments and the CLIs resolve builders through it rather than
// hard-coding constructors.
var structures = map[string]*structureInfo{
	// shared counter, fetch-and-add increments
	"counter-faa": {
		hot: counterLine,
		build: func(d *Spec, m *machine.Machine, eng *sim.Engine, mem *atomics.Memory) App {
			return NewFAACounter(mem)
		},
	},
	// shared counter, CAS retry-loop increments
	"counter-cas": {
		hot: counterLine,
		build: func(d *Spec, m *machine.Machine, eng *sim.Engine, mem *atomics.Memory) App {
			return NewCASCounter(mem)
		},
	},
	// striped counter: FAA a per-thread stripe, reads sweep all stripes
	"counter-striped": {
		knobs: knobStripes | knobReadFraction,
		hot:   stripeBase,
		build: func(d *Spec, m *machine.Machine, eng *sim.Engine, mem *atomics.Memory) App {
			return NewStripedCounter(mem, d.Stripes, d.ReadFraction)
		},
	},
	// Treiber lock-free stack, 50/50 push-pop
	"treiber-stack": {
		knobs: knobDepth,
		hot:   topLine,
		build: func(d *Spec, m *machine.Machine, eng *sim.Engine, mem *atomics.Memory) App {
			return NewTreiberStack(mem, d.Depth)
		},
	},
	// Treiber stack with an elimination collision array
	"elimination-stack": {
		knobs: knobDepth | knobSlots | knobWindow,
		hot:   topLine,
		build: func(d *Spec, m *machine.Machine, eng *sim.Engine, mem *atomics.Memory) App {
			return NewEliminationStack(eng, mem, d.Depth, d.Slots, d.WindowPS)
		},
	},
	// Michael-Scott lock-free queue, 50/50 enqueue-dequeue
	"ms-queue": {
		knobs: knobDepth,
		hot:   headLine,
		build: func(d *Spec, m *machine.Machine, eng *sim.Engine, mem *atomics.Memory) App {
			return NewMSQueue(mem, d.Depth)
		},
	},
	// test-and-set spinlock guarding a critical section
	"lock-tas": {
		knobs: knobCrit,
		hot:   lockLine,
		build: func(d *Spec, m *machine.Machine, eng *sim.Engine, mem *atomics.Memory) App {
			return NewTASLock(eng, mem, d.CritPS)
		},
	},
	// test-and-test-and-set spinlock
	"lock-ttas": {
		knobs: knobCrit,
		hot:   lockLine,
		build: func(d *Spec, m *machine.Machine, eng *sim.Engine, mem *atomics.Memory) App {
			return NewTTASLock(eng, mem, d.CritPS)
		},
	},
	// TTAS spinlock with exponential backoff
	"lock-ttas-backoff": {
		knobs: knobCrit | knobBackoff,
		hot:   lockLine,
		build: func(d *Spec, m *machine.Machine, eng *sim.Engine, mem *atomics.Memory) App {
			return NewTTASBackoffLock(eng, mem, d.CritPS, d.BackoffBasePS, d.BackoffMaxPS)
		},
	},
	// FIFO ticket lock (FAA ticket, spin on serving)
	"lock-ticket": {
		knobs: knobCrit,
		hot:   servingLine,
		build: func(d *Spec, m *machine.Machine, eng *sim.Engine, mem *atomics.Memory) App {
			return NewTicketLock(eng, mem, d.CritPS)
		},
	},
	// cohort lock: per-socket TAS under a global CAS (multi-socket machines only)
	"lock-cohort": {
		knobs:       knobCrit | knobHandoffs,
		multiSocket: true,
		hot:         cohortGlobalLine,
		build: func(d *Spec, m *machine.Machine, eng *sim.Engine, mem *atomics.Memory) App {
			return NewCohortLock(eng, mem, m.SocketOf, d.CritPS, d.Handoffs)
		},
	},
	// reader-writer lock, central reader-count word
	"rwlock-central": {
		knobs: knobReadFraction | knobCrit,
		hot:   rwLockLine,
		build: func(d *Spec, m *machine.Machine, eng *sim.Engine, mem *atomics.Memory) App {
			return NewCentralRWLock(eng, mem, d.ReadFraction, d.CritPS)
		},
	},
	// reader-writer lock, per-slot reader announcements (slots 0 = one per thread)
	"rwlock-distributed": {
		knobs: knobReadFraction | knobCrit | knobSlots,
		hot:   rwFlagLine,
		build: func(d *Spec, m *machine.Machine, eng *sim.Engine, mem *atomics.Memory) App {
			slots := d.Slots
			if slots == 0 {
				slots = d.Threads
			}
			return NewDistributedRWLock(eng, mem, slots, d.ReadFraction, d.CritPS)
		},
	},
	// Chase-Lev work-stealing deques, one per thread, random-victim steals
	"ws-deque": {
		knobs: knobDepth,
		hot:   dequeTopBase,
		build: func(d *Spec, m *machine.Machine, eng *sim.Engine, mem *atomics.Memory) App {
			dq, err := NewWSDeque(mem, d.Threads, d.Depth)
			if err != nil {
				// Validate bounds depth and threads; reaching here is a
				// registry bug, not bad user input.
				panic(fmt.Sprintf("apps: ws-deque builder: %v", err))
			}
			return dq
		},
	},
	// multi-word atomic object: seqlock reads, CAS2-locked updates (words 1 = single-word CAS baseline)
	"big-atomic": {
		knobs: knobWords | knobReadFraction,
		hot:   bigAtomicBase,
		build: func(d *Spec, m *machine.Machine, eng *sim.Engine, mem *atomics.Memory) App {
			a, err := NewBigAtomic(mem, d.Words, d.ReadFraction)
			if err != nil {
				panic(fmt.Sprintf("apps: big-atomic builder: %v", err))
			}
			return a
		},
	},
}

func init() {
	for name, info := range structures {
		info.name = name
	}
}

// StructureNames returns the registered structure names, sorted.
func StructureNames() []string {
	out := make([]string, 0, len(structures))
	for name := range structures {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// structureByName resolves a structure case-insensitively.
func structureByName(name string) (*structureInfo, error) {
	info, ok := structures[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("app spec: unknown structure %q (registered: %s)", name, strings.Join(StructureNames(), ", "))
	}
	return info, nil
}

// HotLine returns the structure's most-contended line — the one a
// trace of the cell should watch.
func (s *Spec) HotLine() (coherence.LineID, error) {
	info, err := structureByName(s.Structure)
	if err != nil {
		return 0, err
	}
	return info.hot, nil
}

// Clone returns a deep copy; callers derive variants (a thread ladder
// point, a tweaked knob) by cloning and mutating.
func (s *Spec) Clone() *Spec {
	out := *s
	out.ThreadLadder = append([]int(nil), s.ThreadLadder...)
	return &out
}

// Validate checks the spec's machine-independent invariants: the
// structure exists, policy names resolve, knob values are in range,
// and no knob is set that the chosen structure would silently ignore.
// Capacity against a concrete machine (threads vs hardware slots,
// cohort's socket requirement) is checked at RunConfig time.
func (s *Spec) Validate() error {
	info, err := structureByName(s.Structure)
	if err != nil {
		return err
	}
	if err := speckit.CheckThreads("app spec", s.Threads, s.ThreadLadder); err != nil {
		return err
	}
	if _, _, err := workload.Policies("app spec", s.Placement, s.Arbiter, s.ArbiterSkips, 0); err != nil {
		return err
	}
	// Ineffective knobs are rejected: they would fork the digest (and
	// the resume-cache identity) without changing the simulation.
	for _, k := range []struct {
		set  bool
		mask int
		name string
	}{
		{s.Depth != 0, knobDepth, "depth"},
		{s.Stripes != 0, knobStripes, "stripes"},
		{s.Slots != 0, knobSlots, "slots"},
		{s.Words != 0, knobWords, "words"},
		{s.Handoffs != 0, knobHandoffs, "handoffs"},
		{s.ReadFraction != 0, knobReadFraction, "readFraction"},
		{s.CritPS != 0, knobCrit, "critPS"},
		{s.BackoffBasePS != 0 || s.BackoffMaxPS != 0, knobBackoff, "backoffBasePS/backoffMaxPS"},
		{s.WindowPS != 0, knobWindow, "windowPS"},
	} {
		if k.set && info.knobs&k.mask == 0 {
			return fmt.Errorf("app spec: %s has no effect for structure %s", k.name, info.name)
		}
	}
	maxDepth := maxSpecDepth
	if info.name == "ws-deque" {
		maxDepth = dequeBufSlots
	}
	switch {
	case s.Depth < 0 || s.Depth > maxDepth:
		return fmt.Errorf("app spec: depth = %d (want 0..%d)", s.Depth, maxDepth)
	case s.Stripes < 0 || s.Stripes > maxSpecStripes:
		return fmt.Errorf("app spec: stripes = %d (want 0..%d)", s.Stripes, maxSpecStripes)
	case s.Slots < 0 || s.Slots > maxSpecSlots:
		return fmt.Errorf("app spec: slots = %d (want 0..%d)", s.Slots, maxSpecSlots)
	case s.Words < 0 || s.Words > maxSpecWords:
		return fmt.Errorf("app spec: words = %d (want 0..%d)", s.Words, maxSpecWords)
	case s.Handoffs < 0 || s.Handoffs > speckit.MaxThreads:
		return fmt.Errorf("app spec: handoffs = %d (want 0..%d)", s.Handoffs, speckit.MaxThreads)
	case s.ReadFraction < 0 || s.ReadFraction > 1:
		return fmt.Errorf("app spec: readFraction %v out of [0,1]", s.ReadFraction)
	case s.CritPS < 0 || s.BackoffBasePS < 0 || s.BackoffMaxPS < 0 || s.WindowPS < 0:
		return fmt.Errorf("app spec: negative time knob")
	}
	if err := speckit.CheckWindow("app spec", s.WarmupPS, s.DurationPS); err != nil {
		return err
	}
	if info.knobs&knobBackoff != 0 {
		base, max := s.BackoffBasePS, s.BackoffMaxPS
		if base == 0 {
			base = defaultBackoffBase
		}
		if max == 0 {
			max = defaultBackoffMax
		}
		if max < base {
			return fmt.Errorf("app spec: backoffMaxPS %d below backoffBasePS %d", max, base)
		}
	}
	return nil
}

// Structure defaults, applied by Defaulted. They match the knobs the
// F-experiments pin, so a bare {"structure": ..., "threads": ...} spec
// reproduces the corresponding figure's cell.
const (
	defaultDepth       = 256
	defaultDequeDepth  = 64
	defaultStripes     = 16
	defaultElimSlots   = 4
	defaultWords       = 4
	defaultHandoffs    = 16
	defaultLockCrit    = 50 * sim.Nanosecond
	defaultRWCrit      = 20 * sim.Nanosecond
	defaultBackoffBase = 100 * sim.Nanosecond
	defaultBackoffMax  = 3200 * sim.Nanosecond
	defaultElimWindow  = 200 * sim.Nanosecond
)

// Defaulted returns a copy with every defaultable field made explicit:
// placement, arbiter, the structure's knob defaults, and the
// measurement window. The digest is computed over this form, so a spec
// that spells out the defaults and one that omits them are the same
// cell. Knobs the structure ignores stay zero (Validate rejects them
// when set), so they never perturb the digest.
func (s *Spec) Defaulted() *Spec {
	out := s.Clone()
	info, err := structureByName(out.Structure)
	if err != nil {
		return out
	}
	out.Structure = info.name
	workload.DefaultPolicies(&out.Placement, &out.Arbiter)
	if info.knobs&knobDepth != 0 && out.Depth == 0 {
		if info.name == "ws-deque" {
			out.Depth = defaultDequeDepth
		} else {
			out.Depth = defaultDepth
		}
	}
	if info.knobs&knobStripes != 0 && out.Stripes == 0 {
		out.Stripes = defaultStripes
	}
	if info.name == "elimination-stack" && out.Slots == 0 {
		out.Slots = defaultElimSlots
	}
	if info.knobs&knobWords != 0 && out.Words == 0 {
		out.Words = defaultWords
	}
	if info.knobs&knobHandoffs != 0 && out.Handoffs == 0 {
		out.Handoffs = defaultHandoffs
	}
	if info.knobs&knobCrit != 0 && out.CritPS == 0 {
		if strings.HasPrefix(info.name, "rwlock") {
			out.CritPS = defaultRWCrit
		} else {
			out.CritPS = defaultLockCrit
		}
	}
	if info.knobs&knobBackoff != 0 {
		if out.BackoffBasePS == 0 {
			out.BackoffBasePS = defaultBackoffBase
		}
		if out.BackoffMaxPS == 0 {
			out.BackoffMaxPS = defaultBackoffMax
		}
	}
	if info.knobs&knobWindow != 0 && out.WindowPS == 0 {
		out.WindowPS = defaultElimWindow
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

// CheckMachine reports whether the spec's structure can run on the
// machine (lock-cohort needs more than one socket). The harness skips
// incompatible machine × spec pairs instead of failing the suite.
func (s *Spec) CheckMachine(m *machine.Machine) error {
	info, err := structureByName(s.Structure)
	if err != nil {
		return err
	}
	if info.multiSocket && m.Sockets < 2 {
		return fmt.Errorf("app spec %s: structure %s needs a multi-socket machine, %s has %d socket",
			s.Label(), info.name, m.Name, m.Sockets)
	}
	return nil
}

// RunConfig joins the spec with a machine, resolving the structure and
// policy names into a runnable apps.RunConfig. The spec must be pinned
// (no thread ladder; see Expand). The resolved arbiter for "fifo" is
// the stateless value coherence.FIFOArbiter{} — identical in behaviour
// and fast-forward eligibility to the nil default a hand-written
// RunConfig would carry.
func (s *Spec) RunConfig(m *machine.Machine) (RunConfig, error) {
	if err := s.Validate(); err != nil {
		return RunConfig{}, err
	}
	if len(s.ThreadLadder) > 0 {
		return RunConfig{}, fmt.Errorf("app spec %s: expand the thread ladder before building a RunConfig", s.Label())
	}
	d := s.Defaulted()
	info, err := structureByName(d.Structure)
	if err != nil {
		return RunConfig{}, err
	}
	if err := d.CheckMachine(m); err != nil {
		return RunConfig{}, err
	}
	place, arb, err := workload.Policies("app spec", d.Placement, d.Arbiter, d.ArbiterSkips, d.Seed)
	if err != nil {
		return RunConfig{}, err
	}
	return RunConfig{
		Machine:   m,
		Arbiter:   arb,
		Placement: place,
		Threads:   d.Threads,
		Build: func(eng *sim.Engine, mem *atomics.Memory) App {
			return info.build(d, m, eng, mem)
		},
		Warmup:   d.WarmupPS,
		Duration: d.DurationPS,
		Seed:     d.Seed,
	}, nil
}

// Label is the spec's display name: Name if set, else the structure.
func (s *Spec) Label() string {
	if s.Name != "" {
		return s.Name
	}
	return s.Structure
}

// RunSpec runs a pinned spec on the given machine and returns the
// measured RunResult.
func RunSpec(s *Spec, m *machine.Machine) (*RunResult, error) {
	cfg, err := s.RunConfig(m)
	if err != nil {
		return nil, err
	}
	return Run(cfg)
}

// ParseSpec decodes a JSON app spec strictly (speckit.Strict) and
// validates it.
func ParseSpec(data []byte) (*Spec, error) {
	s, err := speckit.Strict[Spec]("app spec", data)
	if err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// LoadSpecFile reads, parses and validates an app spec from a JSON
// file (the CLIs' -appfile path).
func LoadSpecFile(path string) (*Spec, error) {
	return speckit.LoadFile("app spec", path, ParseSpec)
}

// The app spec registry: every built-in app benchmark is an embedded
// JSON spec under specs/. Adding a built-in app requires zero Go code:
// drop a JSON file in specs/ and it becomes selectable by name in every
// CLI's -apps flag.

//go:embed specs/*.json
var specFS embed.FS

var registry = speckit.NewRegistry[*Spec]("apps", "app")

func init() {
	registry.MustLoad(specFS, "specs", ParseSpec, func(s *Spec) []string { return []string{s.Name} })
}

// SpecNames returns the canonical names of all registered app specs,
// sorted.
func SpecNames() []string { return registry.Names() }

// SpecByName returns a deep copy of the registered spec for the given
// name (case-insensitive). Callers mutate the copy freely.
func SpecByName(name string) (*Spec, error) { return registry.Get(name) }

// SelectSpecs resolves the app specs a CLI run targets: names is a
// comma-separated list of registered spec names, files a
// comma-separated list of JSON spec file paths (speckit.Select). Specs
// with duplicate digests are rejected.
func SelectSpecs(names, files string) ([]*Spec, error) {
	return speckit.Select("apps", names, files, SpecByName, LoadSpecFile, func(s *Spec) (string, error) {
		d, err := s.Digest()
		return "app@" + d, err
	})
}
