package core

import (
	"math"
	"testing"

	"atomicsmodel/internal/apps"
	"atomicsmodel/internal/atomics"
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/sim"
)

// appThroughput runs an application benchmark at n threads on m.
func appThroughput(t *testing.T, m *machine.Machine, n int, build func(*sim.Engine, *atomics.Memory) apps.App) float64 {
	t.Helper()
	res, err := apps.Run(apps.RunConfig{
		Machine: m, Threads: n, Build: build,
		Warmup: 25 * sim.Microsecond, Duration: 300 * sim.Microsecond, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.ThroughputMops
}

// stackSteps describes one Treiber stack operation (half pushes, half
// pops) to the composite model.
func stackSteps() []AlgoStep {
	return []AlgoStep{
		{Primitive: atomics.Store, Line: PrivateLine, Weight: 0.5, Retry: true},
		{Primitive: atomics.Load, Line: 0, Weight: 0.5, Retry: true},
		{Primitive: atomics.Load, Line: MigratoryLine, Weight: 0.5, Retry: true},
		{Primitive: atomics.CAS, Line: 0, Retry: true},
	}
}

// queueSteps describes one Michael-Scott queue operation (half
// enqueues, half dequeues): head and tail are separate contended lines.
func queueSteps() []AlgoStep {
	return []AlgoStep{
		{Primitive: atomics.Store, Line: PrivateLine, Weight: 0.5},
		{Primitive: atomics.Load, Line: 1, Weight: 0.5, Retry: true},
		{Primitive: atomics.Load, Line: MigratoryLine, Weight: 1, Retry: true},
		{Primitive: atomics.CAS, Line: MigratoryLine, Weight: 0.5, Retry: true},
		{Primitive: atomics.CAS, Line: 1, Weight: 0.5},
		{Primitive: atomics.Load, Line: 0, Weight: 0.5, Retry: true},
		{Primitive: atomics.CAS, Line: 0, Weight: 0.5, Retry: true},
	}
}

func TestPredictAlgorithmCounters(t *testing.T) {
	// The composite model must agree with the primitive model — and
	// the simulator — on the counters it was built from.
	m := machine.XeonE5()
	md := NewDetailed(m)
	cores := compactCores(m, 16)

	faa, err := md.PredictAlgorithm([]AlgoStep{{Primitive: atomics.FAA, Line: 0}}, cores, 0)
	if err != nil {
		t.Fatal(err)
	}
	simFAA := appThroughput(t, m, 16, func(e *sim.Engine, mem *atomics.Memory) apps.App {
		return apps.NewFAACounter(mem)
	})
	if e := math.Abs(faa.ThroughputMops-simFAA) / simFAA; e > 0.10 {
		t.Errorf("FAA counter: model %.2f vs sim %.2f (%.0f%%)", faa.ThroughputMops, simFAA, e*100)
	}

	cas, err := md.PredictAlgorithm([]AlgoStep{{Primitive: atomics.CAS, Line: 0, Retry: true}}, cores, 0)
	if err != nil {
		t.Fatal(err)
	}
	simCAS := appThroughput(t, m, 16, func(e *sim.Engine, mem *atomics.Memory) apps.App {
		return apps.NewCASCounter(mem)
	})
	if e := math.Abs(cas.ThroughputMops-simCAS) / simCAS; e > 0.10 {
		t.Errorf("CAS counter: model %.2f vs sim %.2f (%.0f%%)", cas.ThroughputMops, simCAS, e*100)
	}
	if cas.SuccessRate != 1.0/16 || cas.Jain != 1.0/16 {
		t.Errorf("retry loop stats: %+v", cas)
	}
}

func TestPredictAlgorithmDataStructures(t *testing.T) {
	// Stack and queue are compositions of several line accesses; the
	// model's job is design decisions, so require correct ranking and
	// ~40% accuracy across thread counts.
	m := machine.XeonE5()
	md := NewDetailed(m)
	for _, n := range []int{8, 16} {
		cores := compactCores(m, n)
		simStack := appThroughput(t, m, n, func(e *sim.Engine, mem *atomics.Memory) apps.App {
			return apps.NewTreiberStack(mem, 128)
		})
		simQueue := appThroughput(t, m, n, func(e *sim.Engine, mem *atomics.Memory) apps.App {
			return apps.NewMSQueue(mem, 128)
		})
		pStack, err := md.PredictAlgorithm(stackSteps(), cores, 0)
		if err != nil {
			t.Fatal(err)
		}
		pQueue, err := md.PredictAlgorithm(queueSteps(), cores, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name      string
			sim, pred float64
		}{{"stack", simStack, pStack.ThroughputMops}, {"queue", simQueue, pQueue.ThroughputMops}} {
			if e := math.Abs(c.pred-c.sim) / c.sim; e > 0.40 {
				t.Errorf("n=%d %s: model %.2f vs sim %.2f (%.0f%%)", n, c.name, c.pred, c.sim, e*100)
			}
		}
		// Ranking: queue (two hot lines split the load) beats stack.
		if !(pQueue.ThroughputMops > pStack.ThroughputMops) || !(simQueue > simStack) {
			t.Errorf("n=%d: ranking broken: model %.2f/%.2f sim %.2f/%.2f",
				n, pQueue.ThroughputMops, pStack.ThroughputMops, simQueue, simStack)
		}
	}
}

func TestPredictAlgorithmPrivateOnly(t *testing.T) {
	// A fully private algorithm scales linearly with threads.
	m := machine.KNL()
	md := NewDetailed(m)
	steps := []AlgoStep{{Primitive: atomics.FAA, Line: PrivateLine}}
	p4, err := md.PredictAlgorithm(steps, compactCores(m, 4), 0)
	if err != nil {
		t.Fatal(err)
	}
	p16, err := md.PredictAlgorithm(steps, compactCores(m, 16), 0)
	if err != nil {
		t.Fatal(err)
	}
	if r := p16.ThroughputMops / p4.ThroughputMops; math.Abs(r-4) > 0.01 {
		t.Fatalf("private scaling = %.2fx, want 4x", r)
	}
}

func TestPredictAlgorithmBottleneckLine(t *testing.T) {
	// Two hot lines: the busier one bounds throughput.
	m := machine.XeonE5()
	md := NewDetailed(m)
	cores := compactCores(m, 8)
	oneHot, err := md.PredictAlgorithm([]AlgoStep{
		{Primitive: atomics.FAA, Line: 0},
		{Primitive: atomics.FAA, Line: 0},
	}, cores, 0)
	if err != nil {
		t.Fatal(err)
	}
	twoHot, err := md.PredictAlgorithm([]AlgoStep{
		{Primitive: atomics.FAA, Line: 0},
		{Primitive: atomics.FAA, Line: 1},
	}, cores, 0)
	if err != nil {
		t.Fatal(err)
	}
	if twoHot.ThroughputMops <= oneHot.ThroughputMops {
		t.Fatal("splitting accesses across two lines should raise the bound")
	}
	if math.Abs(twoHot.ThroughputMops/oneHot.ThroughputMops-2) > 0.01 {
		t.Fatalf("two-line speedup = %.2f, want 2", twoHot.ThroughputMops/oneHot.ThroughputMops)
	}
}

func TestPredictAlgorithmThinkTime(t *testing.T) {
	m := machine.XeonE5()
	md := NewDetailed(m)
	cores := compactCores(m, 4)
	steps := []AlgoStep{{Primitive: atomics.FAA, Line: 0}}
	sat, err := md.PredictAlgorithm(steps, cores, 0)
	if err != nil {
		t.Fatal(err)
	}
	idle, err := md.PredictAlgorithm(steps, cores, 10*sim.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if idle.ThroughputMops >= sat.ThroughputMops {
		t.Fatal("think time should reduce throughput")
	}
	// Unsaturated: X = n/(path+w).
	want := 4.0 / (10*sim.Microsecond + sat.ServiceTime).Seconds() / 1e6
	if math.Abs(idle.ThroughputMops-want)/want > 0.01 {
		t.Fatalf("unsaturated X = %.3f, want %.3f", idle.ThroughputMops, want)
	}
}

func TestPredictAlgorithmValidation(t *testing.T) {
	md := NewDetailed(machine.XeonE5())
	cores := compactCores(machine.XeonE5(), 2)
	if _, err := md.PredictAlgorithm([]AlgoStep{{Primitive: atomics.FAA, Line: -3}}, cores, 0); err == nil {
		t.Error("invalid line accepted")
	}
	if _, err := md.PredictAlgorithm([]AlgoStep{{Primitive: atomics.FAA, Line: 0, Weight: -1}}, cores, 0); err == nil {
		t.Error("negative weight accepted")
	}
	p, err := md.PredictAlgorithm(nil, nil, 0)
	if err != nil || p.ThroughputMops != 0 {
		t.Error("empty inputs should degrade gracefully")
	}
}

func TestComposeNoLatencyPath(t *testing.T) {
	// Threads with nothing to do and no think time have no finite
	// rate: the model must say so rather than predict +Inf.
	md := NewDetailed(machine.XeonE5())
	cores := compactCores(machine.XeonE5(), 4)
	if p, err := md.PredictAlgorithm(nil, cores, 0); err == nil {
		t.Errorf("empty recipe at 4 threads: %v Mops, want an error", p.ThroughputMops)
	}
	// Think time alone is a finite cycle: n/work.
	p, err := md.PredictAlgorithm(nil, cores, 10*sim.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if want := 4.0 / (10 * sim.Microsecond).Seconds() / 1e6; math.Abs(p.ThroughputMops-want) > 1e-9 {
		t.Errorf("think-time-only rate = %v Mops, want %v", p.ThroughputMops, want)
	}
}

func TestComposeRetryFactor(t *testing.T) {
	// PredictAlgorithm is Compose at the blind factor n; a measured
	// factor between 1 and n lands between the conflict-free and the
	// blind predictions, and a factor below 1 counts as 1.
	m := machine.XeonE5()
	md := NewDetailed(m)
	cores := compactCores(m, 8)
	steps := []AlgoStep{
		{Primitive: atomics.Load, Line: 0, Retry: true},
		{Primitive: atomics.CAS, Line: 0, Retry: true},
	}
	blind, err := md.PredictAlgorithm(steps, cores, 0)
	if err != nil {
		t.Fatal(err)
	}
	atN, err := md.Compose(steps, cores, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if atN.ThroughputMops != blind.ThroughputMops || atN.SuccessRate != 1.0/8 {
		t.Errorf("Compose at n = %+v, PredictAlgorithm = %+v", atN, blind)
	}
	if blind.Jain != 1.0/8 || atN.Jain != 1 {
		t.Errorf("Jain: blind %v, measured %v; want 1/8 and 1", blind.Jain, atN.Jain)
	}
	free, err := md.Compose(steps, cores, 0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	mid, err := md.Compose(steps, cores, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !(free.ThroughputMops > mid.ThroughputMops && mid.ThroughputMops > blind.ThroughputMops) {
		t.Errorf("retry 1/3/8: %v, %v, %v Mops; want strictly decreasing",
			free.ThroughputMops, mid.ThroughputMops, blind.ThroughputMops)
	}
	if free.SuccessRate != 1 || math.Abs(mid.AttemptsMops-3*mid.ThroughputMops) > 1e-9 {
		t.Errorf("retry 1: success %v; retry 3: attempts %v for %v ops", free.SuccessRate, mid.AttemptsMops, mid.ThroughputMops)
	}
}

func TestComposeHold(t *testing.T) {
	// A critical section held on the line adds to its occupancy: a
	// saturated lock's rate is 1/(service+hold).
	m := machine.XeonE5()
	md := NewDetailed(m)
	cores := compactCores(m, 16)
	const hold = 50 * sim.Nanosecond
	p, err := md.Compose([]AlgoStep{{Primitive: atomics.Store, Line: 0, Hold: hold}}, cores, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := md.ServiceTime(atomics.Store, cores) + hold; p.ServiceTime != want {
		t.Errorf("occupancy %v, want %v", p.ServiceTime, want)
	}
}
