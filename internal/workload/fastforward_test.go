package workload

import (
	"path/filepath"
	"testing"

	"atomicsmodel/internal/atomics"
	"atomicsmodel/internal/coherence"
	"atomicsmodel/internal/faults"
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/sim"
)

// TestMemoVerdict pins the memoizer's eligibility verdict: the reason
// named for every preset, every example spec, all eight F3 primitives,
// and each remaining disqualifying knob on its own.
func TestMemoVerdict(t *testing.T) {
	m := machine.XeonE5()
	verdict := func(cfg Config) string {
		t.Helper()
		if err := cfg.fillDefaults(); err != nil {
			t.Fatal(err)
		}
		return memoVerdict(&cfg, primitives{})
	}

	for _, p := range atomics.All() {
		want := ""
		if p == atomics.Load {
			want = "parked-load"
		}
		if got := verdict(quickCfg(m, p, 8)); got != want {
			t.Errorf("F3 %v: verdict %q, want %q", p, got, want)
		}
	}

	wantSpec := map[string]string{
		"high-faa":       "",
		"high-cas-retry": "",
		"low-faa":        "",
		"read-mix":       "read-mix",
		"open-loop-faa":  "open-loop",
		"cas2-slow-path": "jitter",
		"scatter-low":    "",
		"swap-ladder":    "",
	}
	var specs []*Spec
	for _, name := range SpecNames() {
		s, err := SpecByName(name)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, s)
	}
	files, err := filepath.Glob("../../examples/workloads/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no example workload specs found (err %v)", err)
	}
	for _, f := range files {
		s, err := LoadSpecFile(f)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, s)
	}
	for _, s := range specs {
		want, ok := wantSpec[s.Name]
		if !ok {
			t.Errorf("spec %q has no expected verdict; add it to the table", s.Name)
			continue
		}
		for _, pt := range s.Expand() {
			cfg, err := pt.Config(m)
			if err != nil {
				t.Fatal(err)
			}
			if got := verdict(cfg); got != want {
				t.Errorf("spec %s (threads %d): verdict %q, want %q", s.Name, pt.Threads, got, want)
			}
		}
	}

	buffered, narrow := *m, *m
	buffered.StoreBufferDepth = 4
	narrow.LinkOccupancy = sim.Nanosecond
	knobs := []struct {
		name string
		edit func(*Config)
		want string
	}{
		{"think time", func(c *Config) { c.LocalWork = 20 * sim.Nanosecond }, ""},
		{"jitter without think time", func(c *Config) { c.WorkJitter = true }, ""},
		{"jittered think time", func(c *Config) { c.LocalWork, c.WorkJitter = 20*sim.Nanosecond, true }, "jitter"},
		{"read mix", func(c *Config) { c.Mode, c.ReadFraction = ReadWriteMix, 0.5 }, "read-mix"},
		{"pure-load read mix", func(c *Config) { c.Mode, c.ReadFraction = ReadWriteMix, 1 }, "read-mix"},
		// At fraction 0 every coin says RMW: an RMW loop whose coins feed
		// nothing else, so the outcome decides, not the mode.
		{"read mix at fraction 0", func(c *Config) { c.Mode = ReadWriteMix }, ""},
		{"cas read mix at fraction 0", func(c *Config) { c.Mode, c.Primitive = ReadWriteMix, atomics.CAS }, ""},
		{"open loop", func(c *Config) { c.OpenLoop, c.OpenLoopInterarrival = true, 50*sim.Nanosecond }, "open-loop"},
		{"cas", func(c *Config) { c.Primitive = atomics.CAS }, ""},
		{"cas retry loop", func(c *Config) { c.Primitive, c.CASRetryLoop = atomics.CAS, true }, ""},
		{"cas2 retry loop", func(c *Config) { c.Primitive, c.CASRetryLoop = atomics.CAS2, true }, ""},
		{"low-contention cas", func(c *Config) { c.Primitive, c.Mode = atomics.CAS, LowContention }, ""},
		// Open-loop arrivals are not periodic, whatever the primitive.
		{"open-loop cas", func(c *Config) {
			c.Primitive, c.OpenLoop, c.OpenLoopInterarrival = atomics.CAS, true, 50*sim.Nanosecond
		}, "open-loop"},
		{"metrics", func(c *Config) { c.Metrics = true }, ""},
		{"lines", func(c *Config) { c.Lines = 4 }, ""},
		{"explicit FIFO", func(c *Config) { c.Arbiter = coherence.FIFOArbiter{} }, ""},
		{"random arbiter", func(c *Config) { c.Arbiter = coherence.NewRandomArbiter(1) }, "arbiter"},
		{"store buffer", func(c *Config) { c.Machine = &buffered }, "store-buffer"},
		{"bandwidth", func(c *Config) { c.Machine = &narrow }, "bandwidth"},
		{"check", func(c *Config) { c.Check = true }, "check"},
		{"faults", func(c *Config) { c.Faults = &faults.CellPlan{} }, "faults"},
		// A Load loop that re-reads one line back to back parks instead;
		// any think time or a second line keeps it memoizable.
		{"load", func(c *Config) { c.Primitive = atomics.Load }, "parked-load"},
		{"low-contention load", func(c *Config) { c.Primitive, c.Mode, c.Lines = atomics.Load, LowContention, 1 }, "parked-load"},
		{"load with metrics", func(c *Config) { c.Primitive, c.Metrics = atomics.Load, true }, "parked-load"},
		{"load with think time", func(c *Config) { c.Primitive, c.LocalWork = atomics.Load, 20*sim.Nanosecond }, ""},
		{"load on four lines", func(c *Config) { c.Primitive, c.Lines = atomics.Load, 4 }, ""},
		{"load with faults", func(c *Config) { c.Primitive, c.Faults = atomics.Load, &faults.CellPlan{} }, "faults"},
	}
	for _, k := range knobs {
		cfg := quickCfg(m, atomics.FAA, 8)
		k.edit(&cfg)
		if got := verdict(cfg); got != k.want {
			t.Errorf("%s: verdict %q, want %q", k.name, got, k.want)
		}
	}

	// Any other driver — an app structure — is named as such, even on
	// a configuration the primitive loop could memoize.
	cfg := quickCfg(m, atomics.FAA, 8)
	if got := memoVerdict(&cfg, otherDriver{}); got != "app" {
		t.Errorf("app driver: verdict %q, want \"app\"", got)
	}
}

// otherDriver stands in for a driver from another package.
type otherDriver struct{}

func (otherDriver) Setup(*Cell) error   { return nil }
func (otherDriver) Step(*Cell, *Thread) {}

// lastCell returns the cell the last run on m ran on: the last one
// released to m's pool (the package's tests run one at a time).
func lastCell(m *machine.Machine) *Cell {
	poolsMu.Lock()
	p := cellPools[poolKeyOf(m)]
	poolsMu.Unlock()
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.free[len(p.free)-1]
}

// lastRunJumps reports how many jumps the memoizer took in the last
// cell run on m.
func lastRunJumps(m *machine.Machine) int { return lastCell(m).memo.jumps }

// lastRunParked reports how many re-reads the last cell run on m
// parked, over all its threads.
func lastRunParked(m *machine.Machine) uint64 {
	c := lastCell(m)
	var n uint64
	for _, th := range c.Threads() {
		n += th.loads
	}
	return n
}

// ffShapes is every cell shape, an edit of an 8-thread quick FAA cell,
// that fast-forward takes beyond one contended FAA line: the parked
// Load loop (plain and metrics-on), and for the memoizer fences,
// private lines, several shared lines, constant think time, metrics-on
// cells, and the value-relative CAS and CAS2 loops, with and without
// the retry loop, on shared and private lines (low-cas settles into
// all-failing rounds, whose value delta is zero), and read mixes at
// fraction 0, whose every coin says RMW.
var ffShapes = []struct {
	name string
	edit func(*Config)
}{
	{"load", func(c *Config) { c.Primitive = atomics.Load }},
	{"fence", func(c *Config) { c.Primitive = atomics.Fence }},
	{"low-faa", func(c *Config) { c.Mode = LowContention }},
	{"lines4-swap", func(c *Config) { c.Primitive, c.Lines = atomics.SWAP, 4 }},
	{"think-faa", func(c *Config) { c.LocalWork = 20 * sim.Nanosecond }},
	{"metrics-faa", func(c *Config) { c.Metrics = true }},
	{"metrics-low-store", func(c *Config) { c.Primitive, c.Mode, c.Metrics = atomics.Store, LowContention, true }},
	{"metrics-load", func(c *Config) { c.Primitive, c.Metrics = atomics.Load, true }},
	{"metrics-think-tas", func(c *Config) { c.Primitive, c.LocalWork, c.Metrics = atomics.TAS, 30*sim.Nanosecond, true }},
	{"cas", func(c *Config) { c.Primitive = atomics.CAS }},
	{"cas2", func(c *Config) { c.Primitive = atomics.CAS2 }},
	{"cas-retry", func(c *Config) { c.Primitive, c.CASRetryLoop = atomics.CAS, true }},
	{"cas-lines4", func(c *Config) { c.Primitive, c.Lines = atomics.CAS, 4 }},
	{"think-cas", func(c *Config) { c.Primitive, c.LocalWork = atomics.CAS, 20*sim.Nanosecond }},
	{"metrics-cas2-retry", func(c *Config) { c.Primitive, c.CASRetryLoop, c.Metrics = atomics.CAS2, true, true }},
	{"low-think-cas", lowThinkCAS},
	{"low-cas", func(c *Config) { c.Primitive, c.Mode = atomics.CAS, LowContention }},
	{"mix0-faa", func(c *Config) { c.Mode = ReadWriteMix }},
	{"metrics-mix0-cas", func(c *Config) { c.Primitive, c.Mode, c.Metrics = atomics.CAS, ReadWriteMix, true }},
}

// lowThinkCAS edits a cell into CAS on one private line per thread with
// think time: every CAS succeeds, and a thread's lastSeen is live while
// it thinks.
func lowThinkCAS(c *Config) {
	c.Primitive, c.Mode, c.Lines, c.LocalWork = atomics.CAS, LowContention, 1, 20*sim.Nanosecond
}

// ffDiff runs cfg with fast-forward off and on and returns both results'
// JSON and what fast-forward took in the fast run: the number of
// memoizer jumps, or for a loop whose loads park (a Load loop or a read
// mix) the re-reads it parked.
func ffDiff(t *testing.T, cfg Config) (slow, fast string, took uint64) {
	t.Helper()
	if err := cfg.fillDefaults(); err != nil {
		t.Fatal(err)
	}
	defer SetFastForward(true)
	SetFastForward(false)
	s, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	SetFastForward(true)
	f, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if loopParks(&cfg) {
		return resultJSON(t, s), resultJSON(t, f), lastRunParked(cfg.Machine)
	}
	return resultJSON(t, s), resultJSON(t, f), uint64(lastRunJumps(cfg.Machine))
}

// TestFastForwardShapesDifferential runs every shape of ffShapes on
// every registered machine with fast-forward off and on, and requires
// byte-identical Result JSON (counters, both latency histograms,
// energy, coherence stats, metrics snapshot). It also requires the
// memoizer to have actually jumped in every memoized shape, and the
// Load loop to have parked in the parked shapes, so a silently
// ineligible shape cannot pass vacuously.
func TestFastForwardShapesDifferential(t *testing.T) {
	for _, name := range machine.Names() {
		m, err := machine.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		threads := min(8, m.NumHWThreads())
		for _, sh := range ffShapes {
			cfg := quickCfg(m, atomics.FAA, threads)
			sh.edit(&cfg)
			if err := cfg.fillDefaults(); err != nil {
				t.Fatal(err)
			}
			slow, fast, took := ffDiff(t, cfg)
			// The 5µs warmup can be too short for the pre-warmup pass
			// on the slower machines; the measured window never is.
			if took == 0 && loopParks(&cfg) {
				t.Errorf("%s/%s: the cell never parked", name, sh.name)
			} else if took == 0 {
				t.Errorf("%s/%s: the memoizer never jumped", name, sh.name)
			}
			if slow != fast {
				t.Errorf("%s/%s: fast-forward changed the result\noff: %s\non:  %s", name, sh.name, slow, fast)
			}
		}
	}
}

// TestFastForwardValueShiftMutation proves the differential sees the
// value translation: with a jump that leaves every thread's lastSeen
// unshifted, the low-think-cas shape must come out different on every
// machine. That shape keeps lastSeen live across a jump — a thinking
// thread's next expected value — and every CAS of it would succeed, so
// a stale lastSeen shows as failures (in contended shapes the next CAS
// of a thinking thread tends to fail either way, masking the defect).
func TestFastForwardValueShiftMutation(t *testing.T) {
	defer func() { skipLastSeenShift = false }()
	skipLastSeenShift = true
	for _, name := range machine.Names() {
		m, err := machine.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := quickCfg(m, atomics.FAA, min(8, m.NumHWThreads()))
		lowThinkCAS(&cfg)
		slow, fast, jumps := ffDiff(t, cfg)
		if jumps == 0 {
			t.Errorf("%s: the mutated memoizer never jumped", name)
		} else if slow == fast {
			t.Errorf("%s: a jump that skips the lastSeen shift went unnoticed", name)
		}
	}
}

// TestParkedLoadEndMutation proves the differential sees the window's
// end: with the access each parked tick at the end credited left in,
// the load shapes must come out different on at least one machine —
// one whose chains tick exactly at the end.
func TestParkedLoadEndMutation(t *testing.T) {
	defer func() { skipEndRetract = false }()
	skipEndRetract = true
	caught := 0
	for _, name := range machine.Names() {
		m, err := machine.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := quickCfg(m, atomics.Load, min(8, m.NumHWThreads()))
		if slow, fast, parked := ffDiff(t, cfg); parked == 0 {
			t.Errorf("%s: the mutated Load loop never parked", name)
		} else if slow != fast {
			caught++
		}
	}
	if caught == 0 {
		t.Error("a parked Load loop that keeps its end-of-window accesses went unnoticed on every machine")
	}
}
