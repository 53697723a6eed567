package workload

import (
	"testing"

	"atomicsmodel/internal/atomics"
	"atomicsmodel/internal/coherence"
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/sim"
)

func quickCfg(m *machine.Machine, p atomics.Primitive, threads int) Config {
	return Config{
		Machine:   m,
		Threads:   threads,
		Primitive: p,
		Mode:      HighContention,
		Warmup:    5 * sim.Microsecond,
		Duration:  50 * sim.Microsecond,
		Seed:      1,
	}
}

func TestRunBasicFAA(t *testing.T) {
	res, err := Run(quickCfg(machine.Ideal(8), atomics.FAA, 4))
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 {
		t.Fatal("no ops measured")
	}
	if res.Attempts != res.Ops || res.Failures != 0 {
		t.Fatalf("FAA attempts=%d ops=%d failures=%d", res.Attempts, res.Ops, res.Failures)
	}
	if res.ThroughputMops <= 0 {
		t.Fatal("no throughput")
	}
	var sum uint64
	for _, v := range res.PerThreadOps {
		sum += v
	}
	if sum != res.Ops {
		t.Fatalf("per-thread sum %d != ops %d", sum, res.Ops)
	}
	if res.Latency.Count() != res.Attempts {
		t.Fatalf("latency samples %d != attempts %d", res.Latency.Count(), res.Attempts)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Error("nil machine accepted")
	}
	if _, err := Run(Config{Machine: machine.Ideal(4), Threads: 0}); err == nil {
		t.Error("0 threads accepted")
	}
	if _, err := Run(Config{Machine: machine.Ideal(4), Threads: 99}); err == nil {
		t.Error("oversubscription accepted")
	}
	bad := quickCfg(machine.Ideal(4), atomics.FAA, 2)
	bad.Mode = ReadWriteMix
	bad.ReadFraction = 1.5
	if _, err := Run(bad); err == nil {
		t.Error("bad ReadFraction accepted")
	}
}

func TestDeterminism(t *testing.T) {
	cfg := quickCfg(machine.XeonE5(), atomics.CAS, 8)
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Ops != b.Ops || a.Failures != b.Failures {
		t.Fatalf("same seed diverged: %d/%d vs %d/%d", a.Ops, a.Failures, b.Ops, b.Failures)
	}
	cfg.Seed = 2
	c, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Ops == a.Ops && c.Failures == a.Failures {
		t.Log("different seeds coincided (possible but unlikely)")
	}
}

func TestCASFailsUnderContention(t *testing.T) {
	res, err := Run(quickCfg(machine.Ideal(8), atomics.CAS, 8))
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures == 0 {
		t.Fatal("contended CAS never failed")
	}
	if res.SuccessRate() >= 1 {
		t.Fatalf("success rate = %v", res.SuccessRate())
	}
	// Single-thread CAS never fails.
	solo, err := Run(quickCfg(machine.Ideal(8), atomics.CAS, 1))
	if err != nil {
		t.Fatal(err)
	}
	if solo.Failures != 0 {
		t.Fatalf("solo CAS failed %d times", solo.Failures)
	}
}

func TestCASRetryLoopMeasuresSpans(t *testing.T) {
	cfg := quickCfg(machine.Ideal(8), atomics.CAS, 8)
	cfg.CASRetryLoop = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SuccessLatency.Count() == 0 {
		t.Fatal("no success spans recorded")
	}
	if res.SuccessLatency.Mean() < res.Latency.Mean() {
		t.Fatal("span latency should be >= attempt latency")
	}
}

func TestThroughputSaturatesWithThreads(t *testing.T) {
	// Paper shape: high-contention throughput does not scale with
	// threads; it flattens (or dips) once the line serializes.
	m := machine.XeonE5()
	t1, err := Run(quickCfg(m, atomics.FAA, 1))
	if err != nil {
		t.Fatal(err)
	}
	t8, err := Run(quickCfg(m, atomics.FAA, 8))
	if err != nil {
		t.Fatal(err)
	}
	if t8.ThroughputMops > 1.5*t1.ThroughputMops {
		t.Fatalf("contended FAA scaled: 1t=%.1f 8t=%.1f Mops", t1.ThroughputMops, t8.ThroughputMops)
	}
}

func TestLatencyGrowsWithThreads(t *testing.T) {
	m := machine.XeonE5()
	l := map[int]float64{}
	for _, n := range []int{1, 4, 16} {
		res, err := Run(quickCfg(m, atomics.FAA, n))
		if err != nil {
			t.Fatal(err)
		}
		l[n] = res.Latency.Mean().Nanoseconds()
	}
	if !(l[1] < l[4] && l[4] < l[16]) {
		t.Fatalf("latency not increasing: %v", l)
	}
	// Roughly linear: 16-thread latency should be several times the
	// 4-thread latency, not equal and not explosive.
	if ratio := l[16] / l[4]; ratio < 2 || ratio > 8 {
		t.Fatalf("latency scaling 4->16 threads = %.1fx, want ~4x", ratio)
	}
}

func TestLowContentionStaysFast(t *testing.T) {
	m := machine.XeonE5()
	cfg := quickCfg(m, atomics.FAA, 16)
	cfg.Mode = LowContention
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Private lines: mean latency stays near the owned-line cost.
	owned := (m.Lat.L1Hit + m.Lat.ExecFAA).Nanoseconds()
	if got := res.Latency.Mean().Nanoseconds(); got > 3*owned {
		t.Fatalf("low-contention latency %.1fns, owned-line cost %.1fns", got, owned)
	}
	// And throughput scales ~linearly with threads.
	cfg1 := cfg
	cfg1.Threads = 1
	solo, err := Run(cfg1)
	if err != nil {
		t.Fatal(err)
	}
	if res.ThroughputMops < 10*solo.ThroughputMops {
		t.Fatalf("low contention did not scale: 1t=%.1f 16t=%.1f", solo.ThroughputMops, res.ThroughputMops)
	}
}

func TestFIFOFairness(t *testing.T) {
	cfg := quickCfg(machine.XeonE5(), atomics.FAA, 16)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Jain < 0.95 {
		t.Fatalf("FIFO Jain = %v, want ~1", res.Jain)
	}
}

func TestLocalityArbitrationUnfairOnTwoSockets(t *testing.T) {
	cfg := quickCfg(machine.XeonE5(), atomics.FAA, 24)
	cfg.Arbiter = &coherence.LocalityArbiter{}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fifo, err := Run(quickCfg(machine.XeonE5(), atomics.FAA, 24))
	if err != nil {
		t.Fatal(err)
	}
	if res.Jain >= fifo.Jain {
		t.Fatalf("locality Jain %v should be below FIFO %v", res.Jain, fifo.Jain)
	}
}

func TestLocalWorkReducesContention(t *testing.T) {
	m := machine.XeonE5()
	hot := quickCfg(m, atomics.FAA, 8)
	cold := hot
	cold.LocalWork = 2 * sim.Microsecond
	rHot, err := Run(hot)
	if err != nil {
		t.Fatal(err)
	}
	rCold, err := Run(cold)
	if err != nil {
		t.Fatal(err)
	}
	if rCold.Latency.Mean() >= rHot.Latency.Mean() {
		t.Fatalf("local work did not reduce op latency: %v vs %v",
			rCold.Latency.Mean(), rHot.Latency.Mean())
	}
}

func TestWorkJitterStillRuns(t *testing.T) {
	cfg := quickCfg(machine.Ideal(8), atomics.FAA, 4)
	cfg.LocalWork = 100 * sim.Nanosecond
	cfg.WorkJitter = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 {
		t.Fatal("no ops with jittered work")
	}
}

func TestReadWriteMix(t *testing.T) {
	cfg := quickCfg(machine.XeonE5(), atomics.FAA, 8)
	cfg.Mode = ReadWriteMix
	cfg.ReadFraction = 0.9
	mostlyRead, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ReadFraction = 0
	allWrite, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if mostlyRead.ThroughputMops <= allWrite.ThroughputMops {
		t.Fatalf("90%% reads (%.1f Mops) should beat 0%% reads (%.1f Mops)",
			mostlyRead.ThroughputMops, allWrite.ThroughputMops)
	}
}

func TestMultipleSharedLinesRelieveContention(t *testing.T) {
	m := machine.XeonE5()
	one := quickCfg(m, atomics.FAA, 16)
	four := one
	four.Lines = 4
	r1, err := Run(one)
	if err != nil {
		t.Fatal(err)
	}
	r4, err := Run(four)
	if err != nil {
		t.Fatal(err)
	}
	if r4.ThroughputMops <= r1.ThroughputMops {
		t.Fatalf("4 lines (%.1f) should outperform 1 line (%.1f)",
			r4.ThroughputMops, r1.ThroughputMops)
	}
}

func TestScatterPlacementHurtsOnXeon(t *testing.T) {
	m := machine.XeonE5()
	compact := quickCfg(m, atomics.FAA, 8)
	scatter := compact
	scatter.Placement = machine.Scatter{}
	rc, err := Run(compact)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Run(scatter)
	if err != nil {
		t.Fatal(err)
	}
	if rs.ThroughputMops >= rc.ThroughputMops {
		t.Fatalf("scatter (%.1f) should be slower than compact (%.1f) on a shared line",
			rs.ThroughputMops, rc.ThroughputMops)
	}
	if rs.Coh.CrossSocket == 0 {
		t.Fatal("scatter produced no cross-socket transfers")
	}
}

func TestEnergyAccountedDuringMeasurement(t *testing.T) {
	res, err := Run(quickCfg(machine.XeonE5(), atomics.FAA, 8))
	if err != nil {
		t.Fatal(err)
	}
	if res.Energy.TotalJ <= 0 || res.Energy.PerOpNJ <= 0 {
		t.Fatalf("energy report empty: %+v", res.Energy)
	}
	if res.Energy.DynamicJ <= 0 {
		t.Fatal("no dynamic energy recorded")
	}
}

func TestOpenLoopBelowSaturation(t *testing.T) {
	// Offered load well under the service rate: achieved ≈ offered and
	// latency stays near the uncontended transfer cost.
	m := machine.XeonE5()
	cfg := quickCfg(m, atomics.FAA, 8)
	cfg.OpenLoop = true
	cfg.OpenLoopInterarrival = 2 * sim.Microsecond // 8/2µs = 4 Mops offered
	cfg.Duration = 300 * sim.Microsecond
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ThroughputMops < 3.5 || res.ThroughputMops > 4.5 {
		t.Fatalf("achieved %.2f Mops, offered 4", res.ThroughputMops)
	}
	if res.Latency.Mean() > 200*sim.Nanosecond {
		t.Fatalf("sub-saturation latency blew up: %v", res.Latency.Mean())
	}
}

func TestOpenLoopAboveSaturationExplodes(t *testing.T) {
	m := machine.XeonE5()
	under := quickCfg(m, atomics.FAA, 8)
	under.OpenLoop = true
	under.OpenLoopInterarrival = 2 * sim.Microsecond
	over := under
	over.OpenLoopInterarrival = 100 * sim.Nanosecond // 80 Mops offered >> ~40 service
	rU, err := Run(under)
	if err != nil {
		t.Fatal(err)
	}
	rO, err := Run(over)
	if err != nil {
		t.Fatal(err)
	}
	if rO.Latency.Mean() < 10*rU.Latency.Mean() {
		t.Fatalf("no queueing explosion past saturation: %v vs %v",
			rO.Latency.Mean(), rU.Latency.Mean())
	}
	// Achieved throughput capped at the service rate, far below offer.
	if rO.ThroughputMops > 60 {
		t.Fatalf("achieved %.2f exceeds any plausible service rate", rO.ThroughputMops)
	}
}

// TestOpenLoopRunnerNotPooled pins the pool policy: a closed-loop run
// returns its cell to the machine's pool, an open-loop run (whose
// backlog past saturation would stay in the cell's pools) does not.
func TestOpenLoopRunnerNotPooled(t *testing.T) {
	pooled := func(m *machine.Machine) int {
		poolsMu.Lock()
		p := cellPools[poolKeyOf(m)]
		poolsMu.Unlock()
		if p == nil {
			return 0
		}
		p.mu.Lock()
		defer p.mu.Unlock()
		return len(p.free)
	}
	m := machine.XeonE5()
	m.Name = "XeonE5-open-loop-pool" // content no other test runs: its own pool
	open := quickCfg(m, atomics.FAA, 8)
	open.OpenLoop = true
	open.OpenLoopInterarrival = 100 * sim.Nanosecond
	if _, err := Run(open); err != nil {
		t.Fatal(err)
	}
	if n := pooled(m); n != 0 {
		t.Fatalf("open-loop run left %d pooled cell(s), want 0", n)
	}
	if _, err := Run(quickCfg(m, atomics.FAA, 8)); err != nil {
		t.Fatal(err)
	}
	if n := pooled(m); n != 1 {
		t.Fatalf("closed-loop run left %d pooled cell(s), want 1", n)
	}
}

func TestOpenLoopValidation(t *testing.T) {
	cfg := quickCfg(machine.Ideal(4), atomics.FAA, 2)
	cfg.OpenLoop = true
	if _, err := Run(cfg); err == nil {
		t.Error("OpenLoop without interarrival accepted")
	}
	cfg.OpenLoopInterarrival = sim.Microsecond
	cfg.CASRetryLoop = true
	if _, err := Run(cfg); err == nil {
		t.Error("OpenLoop with CASRetryLoop accepted")
	}
}

func TestModeStrings(t *testing.T) {
	if HighContention.String() != "high-contention" ||
		LowContention.String() != "low-contention" ||
		ReadWriteMix.String() != "read-write-mix" {
		t.Error("mode strings")
	}
}
