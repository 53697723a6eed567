package harness

import (
	"fmt"
	"testing"

	"atomicsmodel/internal/apps"
	"atomicsmodel/internal/atomics"
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/runlog"
	"atomicsmodel/internal/sim"
	"atomicsmodel/internal/workload"
)

// fullCell is the benchmark cell — the unit the parallel scheduler fans
// out — at quick-run length: a 16-thread high-contention FAA sweep
// point on the Xeon, with edit applied.
func fullCell(m *machine.Machine, edit func(*workload.Config)) workload.Config {
	cfg := workload.Config{
		Machine: m, Threads: 16, Primitive: atomics.FAA,
		Mode:   workload.HighContention,
		Warmup: 10 * sim.Microsecond, Duration: 100 * sim.Microsecond,
		Seed: 1,
	}
	if edit != nil {
		edit(&cfg)
	}
	return cfg
}

// BenchmarkFullCell measures one complete simulation cell.
func BenchmarkFullCell(b *testing.B) {
	benchFullCell(b, nil)
}

// BenchmarkFullCellMetrics is the same cell with the observability
// registry live (Config.Metrics set): registry setup, per-event counts,
// and the end-of-run snapshot. The delta against BenchmarkFullCell is
// the whole-cell cost of -metrics.
func BenchmarkFullCellMetrics(b *testing.B) {
	benchFullCell(b, func(c *workload.Config) { c.Metrics = true })
}

func benchFullCell(b *testing.B, edit func(*workload.Config)) {
	cfg := fullCell(machine.XeonE5(), edit)
	b.ReportAllocs()
	b.ResetTimer()
	// Recycle one Result so the benchmark measures the simulation
	// itself: with the cell pool warm, steady-state cells are
	// allocation-free.
	var res *workload.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = workload.RunReusing(cfg, res)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMemoizedCell measures the 72-thread high-contention cells of
// full F3 on XeonE5 that fast-forward takes, over the full 20µs warmup
// and 200µs window, for Load, CAS, CAS2 and FAA. The CAS, CAS2 and FAA
// cells are memoized: their cost is the fingerprint search and verify
// cycles plus a jump whose energy credit does not grow with the cycles
// it elides. The Load cell parks instead (atomics.Memory.SpinLoad): its cost
// is the start-up convoy behind the cold fill, after which every
// thread's re-reads are one parked chain the engine crosses in closed
// form. These are the layer numbers behind the f3-xeon benchmark. With
// the pool and the recycled Result warm, each cell is allocation-free.
func BenchmarkMemoizedCell(b *testing.B) {
	for _, p := range []atomics.Primitive{atomics.Load, atomics.CAS, atomics.CAS2, atomics.FAA} {
		b.Run(p.String(), func(b *testing.B) {
			cfg := workload.Config{
				Machine: machine.XeonE5(), Threads: 72, Primitive: p,
				Mode: workload.HighContention, Seed: 42 + 72,
			}
			b.ReportAllocs()
			var res *workload.Result
			for i := 0; i < b.N; i++ {
				var err error
				if res, err = workload.RunReusing(cfg, res); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAppCell measures one complete app cell on the pooled cell
// runtime at quick-run length, 8 threads each on XeonE5: the ticket
// lock (waiters spin on their local copy of the serving counter, so
// most of its events are parked re-reads), the distributed reader-
// writer lock with examples/apps/rwlock-read-mostly.json's mix (readers
// spin on the writer flag, the writer on reader slots), the
// work-stealing deques (the A suite's most event-heavy structure, with
// no spin loop), the elimination stack (the Treiber stack's push and
// pop with its collision-slot diversion), the cohort lock (scattered
// over XeonE5's two sockets: local and global lock words, then the
// section every lock shares), and the Treiber stack and MS queue, the
// two structures that resolve a node's line each time they use it (node
// IDs grow without bound). An app cell allocates its structure,
// per-thread contexts and result once per cell and nothing per
// operation, so allocs/op is a small per-cell constant.
func BenchmarkAppCell(b *testing.B) {
	for _, sp := range []apps.Spec{
		{Structure: "lock-ticket"},
		{Structure: "rwlock-distributed", ReadFraction: 0.98, CritPS: 20 * sim.Nanosecond},
		{Structure: "ws-deque"},
		{Structure: "elimination-stack"},
		{Structure: "lock-cohort", Placement: "scatter"},
		{Structure: "treiber-stack"},
		{Structure: "ms-queue"},
	} {
		b.Run(sp.Structure, func(b *testing.B) {
			sp.Threads, sp.Seed = 8, 1
			sp.WarmupPS, sp.DurationPS = 10*sim.Microsecond, 100*sim.Microsecond
			cfg, err := sp.RunConfig(machine.XeonE5())
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := apps.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReplayCell measures one cached cell through FanoutKeyed, the
// unit of a resume: the cache lookup, the decode of the stored result,
// and the manifest record of the replay. The cell is F3-sized: the
// 72-thread high-contention FAA cell of full F3 on XeonE5.
func BenchmarkReplayCell(b *testing.B) {
	dir := b.TempDir()
	w, err := runlog.Create(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	c, err := runlog.OpenCache(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	o := Options{Exp: "F3", Seed: 42, Manifest: w, Cache: c}
	cfg := workload.Config{
		Machine: machine.XeonE5(), Threads: 72, Primitive: atomics.FAA,
		Mode: workload.HighContention, Seed: 42 + 72,
	}
	specs := []workload.Config{cfg}
	key := func(workload.Config) string { return "XeonE5/FAA/t72" }
	fresh := func(_ int, cfg workload.Config) (*workload.Result, error) { return workload.Run(cfg) }
	if _, err := FanoutKeyed(o, specs, key, fresh); err != nil {
		b.Fatal(err)
	}
	replay := func(int, workload.Config) (*workload.Result, error) {
		return nil, fmt.Errorf("cell simulated instead of replayed")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FanoutKeyed(o, specs, key, replay); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFullCellsDoNotAllocate pins the steady state of every cell shape
// the fast-forward layer runs — the contended FAA cell of
// BenchmarkFullCell, loads, fences, CAS loops, private lines, and
// metrics-on cells — at zero allocations per cell once the cell pool, the
// memoizer's scratch, and the recycled Result are warm.
func TestFullCellsDoNotAllocate(t *testing.T) {
	m := machine.XeonE5()
	shapes := []struct {
		name string
		edit func(*workload.Config)
	}{
		{"faa", nil},
		{"load", func(c *workload.Config) { c.Primitive = atomics.Load }},
		{"fence", func(c *workload.Config) { c.Primitive = atomics.Fence }},
		{"cas", func(c *workload.Config) { c.Primitive = atomics.CAS }},
		{"cas2-retry", func(c *workload.Config) { c.Primitive, c.CASRetryLoop = atomics.CAS2, true }},
		{"low-faa", func(c *workload.Config) { c.Mode = workload.LowContention }},
		{"metrics-faa", func(c *workload.Config) { c.Metrics = true }},
		{"metrics-low-faa", func(c *workload.Config) { c.Mode, c.Metrics = workload.LowContention, true }},
	}
	for _, sh := range shapes {
		cfg := fullCell(m, sh.edit)
		var res *workload.Result
		run := func() {
			var err error
			if res, err = workload.RunReusing(cfg, res); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 3; i++ {
			run()
		}
		if allocs := testing.AllocsPerRun(5, run); allocs != 0 {
			t.Errorf("%s: %.1f allocs per cell, want 0", sh.name, allocs)
		}
	}
}
