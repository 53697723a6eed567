package core

import (
	"math"
	"testing"

	"atomicsmodel/internal/atomics"
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/sim"
	"atomicsmodel/internal/workload"
)

func compactCores(m *machine.Machine, n int) []int {
	slots, err := (machine.Compact{}).Place(m, n)
	if err != nil {
		panic(err)
	}
	cores := make([]int, n)
	for i, s := range slots {
		cores[i] = m.CoreOf(s)
	}
	return cores
}

func simHigh(t *testing.T, m *machine.Machine, p atomics.Primitive, n int) *workload.Result {
	t.Helper()
	res, err := workload.Run(workload.Config{
		Machine: m, Threads: n, Primitive: p, Mode: workload.HighContention,
		Warmup: 20 * sim.Microsecond, Duration: 300 * sim.Microsecond, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestCASSuccessRateFIFO(t *testing.T) {
	if CASSuccessRateFIFO(1) != 1 {
		t.Error("n=1")
	}
	if CASSuccessRateFIFO(4) != 0.25 {
		t.Error("n=4")
	}
}

func TestCASSuccessRateRandomFixedPoint(t *testing.T) {
	if CASSuccessRateRandom(1) != 1 {
		t.Error("n=1")
	}
	for _, n := range []int{2, 4, 8, 16, 64} {
		p := CASSuccessRateRandom(n)
		if p <= 0 || p >= 1 {
			t.Fatalf("n=%d: p=%v out of (0,1)", n, p)
		}
		// Verify the geometric-gap fixed point p²q + p/n - 1/n = 0.
		inv := 1 / float64(n)
		q := 1 - inv
		if diff := math.Abs(p*p*q + p*inv - inv); diff > 1e-12 {
			t.Fatalf("n=%d: p=%v is not a fixed point (residual %v)", n, p, diff)
		}
	}
	// Monotonically decreasing in n.
	prev := 1.0
	for n := 2; n <= 128; n *= 2 {
		p := CASSuccessRateRandom(n)
		if p >= prev {
			t.Fatalf("not decreasing at n=%d", n)
		}
		prev = p
	}
	// Random arbitration gives CAS a better chance than FIFO lockstep.
	if CASSuccessRateRandom(16) <= CASSuccessRateFIFO(16) {
		t.Error("random should beat FIFO success rate")
	}
}

func TestServiceTimeSingleThreadIsLocal(t *testing.T) {
	m := machine.XeonE5()
	md := NewDetailed(m)
	want := m.Lat.L1Hit + m.Lat.ExecFAA
	if got := md.ServiceTime(atomics.FAA, []int{0}); got != want {
		t.Fatalf("solo service = %v, want %v", got, want)
	}
}

func TestServiceTimeGrowsWithDistance(t *testing.T) {
	m := machine.XeonE5()
	md := NewDetailed(m)
	near := md.ServiceTime(atomics.FAA, []int{0, 1})
	far := md.ServiceTime(atomics.FAA, []int{0, 9})
	cross := md.ServiceTime(atomics.FAA, []int{0, 27})
	if !(near < far && far < cross) {
		t.Fatalf("service ordering near=%v far=%v cross=%v", near, far, cross)
	}
}

func TestPredictHighMatchesSimulationFAA(t *testing.T) {
	// The headline validation: detailed-model throughput within 10% of
	// simulation across the sweep, both machines.
	for _, m := range machine.All() {
		md := NewDetailed(m)
		for _, n := range []int{1, 2, 4, 8, 16} {
			res := simHigh(t, m, atomics.FAA, n)
			pred := md.PredictHigh(atomics.FAA, compactCores(m, n), 0)
			err := math.Abs(pred.ThroughputMops-res.ThroughputMops) / res.ThroughputMops
			if err > 0.10 {
				t.Errorf("%s n=%d: model %.2f vs sim %.2f Mops (%.0f%% error)",
					m.Name, n, pred.ThroughputMops, res.ThroughputMops, err*100)
			}
			lerr := math.Abs(float64(pred.AttemptLatency-res.Latency.Mean())) / float64(res.Latency.Mean())
			if lerr > 0.12 {
				t.Errorf("%s n=%d: model latency %v vs sim %v (%.0f%% error)",
					m.Name, n, pred.AttemptLatency, res.Latency.Mean(), lerr*100)
			}
		}
	}
}

func TestPredictHighMatchesSimulationCAS(t *testing.T) {
	for _, m := range machine.All() {
		md := NewDetailed(m)
		for _, n := range []int{2, 8, 16} {
			res := simHigh(t, m, atomics.CAS, n)
			pred := md.PredictHigh(atomics.CAS, compactCores(m, n), 0)
			if math.Abs(pred.SuccessRate-res.SuccessRate()) > 0.02 {
				t.Errorf("%s n=%d: success rate model %.3f vs sim %.3f",
					m.Name, n, pred.SuccessRate, res.SuccessRate())
			}
			err := math.Abs(pred.ThroughputMops-res.ThroughputMops) / res.ThroughputMops
			if err > 0.12 {
				t.Errorf("%s n=%d: CAS throughput model %.2f vs sim %.2f (%.0f%% error)",
					m.Name, n, pred.ThroughputMops, res.ThroughputMops, err*100)
			}
			if math.Abs(pred.Jain-res.Jain) > 0.05 {
				t.Errorf("%s n=%d: Jain model %.3f vs sim %.3f", m.Name, n, pred.Jain, res.Jain)
			}
		}
	}
}

func TestPredictHighFourSocketExtrapolation(t *testing.T) {
	// The model was parameterized on the 2-socket machine; it must
	// still track the simulator on the 4-socket extrapolation.
	m := machine.XeonMultiSocket(4)
	md := NewDetailed(m)
	for _, n := range []int{8, 16, 32} {
		slots, err := (machine.Scatter{}).Place(m, n)
		if err != nil {
			t.Fatal(err)
		}
		cores := make([]int, n)
		for i, s := range slots {
			cores[i] = m.CoreOf(s)
		}
		res, err := workload.Run(workload.Config{
			Machine: m, Threads: n, Primitive: atomics.FAA,
			Mode: workload.HighContention, Placement: machine.Scatter{},
			Warmup: 25 * sim.Microsecond, Duration: 300 * sim.Microsecond, Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		pred := md.PredictHigh(atomics.FAA, cores, 0)
		e := math.Abs(pred.ThroughputMops-res.ThroughputMops) / res.ThroughputMops
		if e > 0.15 {
			t.Errorf("4S n=%d: model %.2f vs sim %.2f (%.0f%%)",
				n, pred.ThroughputMops, res.ThroughputMops, e*100)
		}
	}
}

func TestPredictHighWithThinkTime(t *testing.T) {
	m := machine.XeonE5()
	md := NewDetailed(m)
	cores := compactCores(m, 8)
	work := 2 * sim.Microsecond
	pred := md.PredictHigh(atomics.FAA, cores, work)
	res, err := workload.Run(workload.Config{
		Machine: m, Threads: 8, Primitive: atomics.FAA, Mode: workload.HighContention,
		LocalWork: work, Warmup: 50 * sim.Microsecond, Duration: 500 * sim.Microsecond, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := math.Abs(pred.ThroughputMops-res.ThroughputMops) / res.ThroughputMops
	if e > 0.10 {
		t.Fatalf("think-time model %.2f vs sim %.2f Mops (%.0f%% error)",
			pred.ThroughputMops, res.ThroughputMops, e*100)
	}
	// Unsaturated: throughput ~ N/(s+w), far below server bound.
	saturated := 1e6 / float64(pred.ServiceTime) * 1e6
	if pred.ThroughputMops > 0.5*saturated {
		t.Fatal("expected unsaturated regime in this configuration")
	}
}

func TestPredictLowMatchesSimulation(t *testing.T) {
	m := machine.KNL()
	md := NewDetailed(m)
	pred := md.PredictLow(atomics.FAA, 16, 0)
	res, err := workload.Run(workload.Config{
		Machine: m, Threads: 16, Primitive: atomics.FAA, Mode: workload.LowContention,
		Warmup: 20 * sim.Microsecond, Duration: 200 * sim.Microsecond, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := math.Abs(pred.ThroughputMops-res.ThroughputMops) / res.ThroughputMops
	if e > 0.10 {
		t.Fatalf("low-contention model %.2f vs sim %.2f (%.0f%% error)",
			pred.ThroughputMops, res.ThroughputMops, e*100)
	}
	if pred.AttemptLatency != md.ServiceTime(atomics.FAA, []int{0}) {
		t.Error("low-contention latency should equal local service time")
	}
}

func TestLowLatencyMatchesMeasuredStates(t *testing.T) {
	// Model's low-contention latency table must match the simulator's
	// single-op measurements exactly (same cost structure).
	for _, m := range machine.All() {
		md := NewDetailed(m)
		for _, p := range []atomics.Primitive{atomics.FAA, atomics.Load, atomics.CAS} {
			for _, st := range workload.AllLineStates() {
				meas, err := workload.MeasureStateLatency(m, p, st)
				if err != nil {
					continue // state unavailable on this machine
				}
				pred, err := md.LowLatency(p, st)
				if err != nil {
					t.Errorf("%s %v %v: model rejected available state: %v", m.Name, p, st, err)
					continue
				}
				if pred != meas {
					t.Errorf("%s %v %v: model %v != measured %v", m.Name, p, st, pred, meas)
				}
			}
		}
	}
}

func TestLowLatencyErrors(t *testing.T) {
	md := NewDetailed(machine.KNL())
	if _, err := md.LowLatency(atomics.FAA, workload.StateRemoteOtherSocket); err == nil {
		t.Error("cross-socket on KNL accepted")
	}
	if _, err := md.LowLatency(atomics.FAA, workload.LineState(99)); err == nil {
		t.Error("unknown state accepted")
	}
}

func TestCalibrate(t *testing.T) {
	for _, m := range machine.All() {
		md, cal, err := Calibrate(m)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if md.Variant() != Simple {
			t.Error("calibrated model should be Simple")
		}
		tl, ts, tc := md.Constants()
		if !(tl < ts && ts <= tc) {
			t.Errorf("%s: constants not ordered: %v %v %v", m.Name, tl, ts, tc)
		}
		if m.Sockets == 1 && ts != tc {
			t.Errorf("%s: single socket should have tSame == tCross", m.Name)
		}
		if cal.TLocal != tl {
			t.Error("calibration struct mismatch")
		}
		if cal.String() == "" {
			t.Error("empty calibration string")
		}
	}
}

func TestSimpleModelQualitativeShape(t *testing.T) {
	// The 3-constant model is coarser than the detailed one, but must
	// preserve the paper's qualitative conclusions.
	m := machine.XeonE5()
	md, _, err := Calibrate(m)
	if err != nil {
		t.Fatal(err)
	}
	cores16 := compactCores(m, 16)
	faa := md.PredictHigh(atomics.FAA, cores16, 0)
	cas := md.PredictHigh(atomics.CAS, cores16, 0)
	if cas.ThroughputMops >= faa.ThroughputMops {
		t.Error("simple model must predict FAA > CAS under contention")
	}
	// Within the right order of magnitude of simulation (factor 3).
	res := simHigh(t, m, atomics.FAA, 16)
	ratio := faa.ThroughputMops / res.ThroughputMops
	if ratio < 1/3.0 || ratio > 3 {
		t.Errorf("simple model off by more than 3x: %.2f vs %.2f", faa.ThroughputMops, res.ThroughputMops)
	}
}

func TestEnergyPredictionTrend(t *testing.T) {
	// J/op must grow with thread count under high contention.
	m := machine.XeonE5()
	md := NewDetailed(m)
	prev := 0.0
	for _, n := range []int{1, 4, 16} {
		p := md.PredictHigh(atomics.FAA, compactCores(m, n), 0)
		if p.EnergyPerOpNJ <= prev {
			t.Fatalf("energy/op not increasing at n=%d: %v <= %v", n, p.EnergyPerOpNJ, prev)
		}
		prev = p.EnergyPerOpNJ
	}
}

func TestEnergyPredictionMatchesSimulatedTrend(t *testing.T) {
	m := machine.XeonE5()
	md := NewDetailed(m)
	for _, n := range []int{4, 16} {
		res := simHigh(t, m, atomics.FAA, n)
		pred := md.PredictHigh(atomics.FAA, compactCores(m, n), 0)
		ratio := pred.EnergyPerOpNJ / res.Energy.PerOpNJ
		if ratio < 0.7 || ratio > 1.4 {
			t.Errorf("n=%d: energy model %.1f nJ/op vs sim %.1f (ratio %.2f)",
				n, pred.EnergyPerOpNJ, res.Energy.PerOpNJ, ratio)
		}
	}
}

func TestPredictDegenerateInputs(t *testing.T) {
	md := NewDetailed(machine.XeonE5())
	p := md.PredictHigh(atomics.FAA, nil, 0)
	if p.ThroughputMops != 0 || p.Threads != 0 {
		t.Error("empty cores should predict nothing")
	}
	pl := md.PredictLow(atomics.FAA, 0, 0)
	if pl.ThroughputMops != 0 {
		t.Error("zero threads low contention")
	}
}
