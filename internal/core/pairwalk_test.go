package core

import (
	"math"
	"testing"

	"atomicsmodel/internal/atomics"
	"atomicsmodel/internal/coherence"
	"atomicsmodel/internal/energy"
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/sim"
)

// The two-walk model as it was before pairSums: ServiceTime and the
// energy per operation each walked every ordered pair of cores, and
// each mapped both cores of a pair to nodes. TestPairSumsMatchTwoWalks
// holds the one-walk model to it bit for bit.

func twoWalkPairCost(md *Model, o, c int) sim.Time {
	lat := &md.m.Lat
	if o == c {
		if md.variant == Simple {
			return md.tLocal
		}
		return lat.L1Hit
	}
	no, nc := md.m.NodeOf(o), md.m.NodeOf(c)
	cross := md.pairs.CrossSocket(nc, no)
	if md.variant == Simple {
		if cross {
			return md.tCross
		}
		return md.tSame
	}
	cost := lat.DirLookup + sim.Time(twoWalkLegHops(md, no, nc))*lat.HopLatency
	if cross {
		cost += lat.CrossSocketPenalty
	}
	return cost
}

func twoWalkLegHops(md *Model, no, nc int) int {
	return md.pairs.Hops(nc, md.home) + md.pairs.Hops(md.home, no) + md.pairs.Hops(no, nc)
}

func twoWalkServiceTime(md *Model, p atomics.Primitive, cores []int) sim.Time {
	exec := atomics.ExecCost(md.m, p)
	if len(cores) <= 1 {
		if md.variant == Simple {
			return md.tLocal + exec - atomics.ExecCost(md.m, atomics.FAA)
		}
		return md.m.Lat.L1Hit + exec
	}
	var sum sim.Time
	pairs := 0
	for i, c := range cores {
		for j, o := range cores {
			if i == j {
				continue
			}
			sum += twoWalkPairCost(md, o, c)
			pairs++
		}
	}
	mean := sum / sim.Time(pairs)
	if md.variant == Simple {
		return mean + exec - atomics.ExecCost(md.m, atomics.FAA)
	}
	return mean + exec
}

func twoWalkPairEnergyNJ(md *Model, o, c int) float64 {
	if o == c {
		return energy.ChargeNJ(&md.m.Energy, coherence.ClassOf(coherence.SrcLocal, 0, false))
	}
	no, nc := md.m.NodeOf(o), md.m.NodeOf(c)
	cls := coherence.ClassOf(coherence.SrcRemoteCache, twoWalkLegHops(md, no, nc), md.pairs.CrossSocket(no, nc))
	return energy.ChargeNJ(&md.m.Energy, cls)
}

func twoWalkEnergyPerOp(md *Model, cores []int, pred Prediction) float64 {
	if pred.ThroughputMops == 0 {
		return 0
	}
	e := md.m.Energy
	distinct := map[int]bool{}
	for _, c := range cores {
		distinct[c] = true
	}
	watts := e.StaticWattsPerCore*float64(len(distinct)) + e.ActiveWattsPerThread*float64(len(cores))
	staticNJ := watts / (pred.ThroughputMops * 1e6) * 1e9
	var dynNJ float64
	if n := len(cores); n == 1 {
		dynNJ = e.LocalOpNJ
	} else {
		pairs := 0
		for i, c := range cores {
			for j, o := range cores {
				if i == j {
					continue
				}
				dynNJ += twoWalkPairEnergyNJ(md, o, c)
				pairs++
			}
		}
		dynNJ /= float64(pairs)
	}
	return staticNJ + dynNJ/pred.SuccessRate
}

func twoWalkPredictHigh(md *Model, p atomics.Primitive, cores []int, work sim.Time) Prediction {
	n := len(cores)
	if p == atomics.Fence {
		exec := atomics.ExecCost(md.m, p)
		pred := Prediction{Threads: n, ServiceTime: exec, SuccessRate: 1, Jain: 1, AttemptLatency: exec}
		if n > 0 {
			pred.AttemptsMops = float64(n) / float64(exec+work) * 1e12 / 1e6
			pred.ThroughputMops = pred.AttemptsMops
			pred.EnergyPerOpNJ = md.energyPerOpLow(n, pred)
		}
		return pred
	}
	s := twoWalkServiceTime(md, p, cores)
	pred := Prediction{Threads: n, ServiceTime: s, SuccessRate: 1, Jain: 1}
	if n == 0 {
		return pred
	}
	sf, wf := float64(s), float64(work)
	attemptsPerPs := math.Min(float64(n)/(sf+wf), 1/sf)
	pred.AttemptsMops = attemptsPerPs * 1e12 / 1e6
	pred.AttemptLatency = sim.Time(float64(n)/attemptsPerPs - wf)
	if (p == atomics.CAS || p == atomics.CAS2) && n > 1 {
		pred.SuccessRate = CASSuccessRateFIFO(n)
		pred.Jain = 1 / float64(n)
	}
	pred.ThroughputMops = pred.AttemptsMops * pred.SuccessRate
	pred.EnergyPerOpNJ = twoWalkEnergyPerOp(md, cores, pred)
	return pred
}

// samePrediction reports whether a and b agree in every field, floats
// bit for bit.
func samePrediction(a, b Prediction) bool {
	fs := func(p Prediction) []float64 {
		return []float64{p.AttemptsMops, p.ThroughputMops, p.SuccessRate, p.Jain, p.EnergyPerOpNJ}
	}
	fa, fb := fs(a), fs(b)
	for i := range fa {
		if math.Float64bits(fa[i]) != math.Float64bits(fb[i]) {
			return false
		}
	}
	return a.Threads == b.Threads && a.ServiceTime == b.ServiceTime && a.AttemptLatency == b.AttemptLatency
}

// TestPairSumsMatchTwoWalks: ServiceTime and PredictHigh, which share
// one pair walk, give exactly what the two-walk model gave, on every
// registered machine, for 1 to every hardware thread under compact and
// scatter placement, in both variants. CAS exercises the walk with
// every term of the prediction (its success rate scales the energy);
// FAA and think time enter only after the walk, so the few thread
// counts that try them suffice. Under -short every seventh thread
// count runs.
func TestPairSumsMatchTwoWalks(t *testing.T) {
	step := 1
	if testing.Short() {
		step = 7
	}
	for _, name := range machine.Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			m, err := machine.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			models := []*Model{NewDetailed(m), NewSimple(m, 9000, 31000, 87000)}
			for _, pl := range []machine.Placement{machine.Compact{}, machine.Scatter{}} {
				for n := 1; n <= m.NumHWThreads(); n += step {
					slots, err := pl.Place(m, n)
					if err != nil {
						t.Fatal(err)
					}
					cores := make([]int, n)
					for i, s := range slots {
						cores[i] = m.CoreOf(s)
					}
					type call struct {
						p    atomics.Primitive
						work sim.Time
					}
					calls := []call{{atomics.CAS, 0}, {atomics.Fence, 0}}
					if n <= 8 {
						calls = append(calls, call{atomics.FAA, 0}, call{atomics.FAA, 50 * sim.Nanosecond},
							call{atomics.CAS, 50 * sim.Nanosecond})
					}
					for _, md := range models {
						if got, want := md.ServiceTime(atomics.FAA, cores), twoWalkServiceTime(md, atomics.FAA, cores); got != want {
							t.Fatalf("%s n=%d variant %d: ServiceTime %v, two walks %v", pl.Name(), n, md.variant, got, want)
						}
						for _, c := range calls {
							got, want := md.PredictHigh(c.p, cores, c.work), twoWalkPredictHigh(md, c.p, cores, c.work)
							if !samePrediction(got, want) {
								t.Fatalf("%s n=%d variant %d %v work %v:\n got %+v\nwant %+v",
									pl.Name(), n, md.variant, c.p, c.work, got, want)
							}
						}
					}
				}
			}
		})
	}
}

// predictionSink keeps the benchmarked predictions live.
var predictionSink Prediction

// BenchmarkPredictHigh times one detailed-model prediction of FAA on
// compactly placed threads, the unit T3 repeats for every perturbed
// machine: 36 threads on XeonE5 walk 1,260 ordered core pairs.
func BenchmarkPredictHigh(b *testing.B) {
	m := machine.XeonE5()
	cores, err := machine.PlaceCores(m, nil, 36)
	if err != nil {
		b.Fatal(err)
	}
	md := NewDetailed(m)
	b.Run("XeonE5-36", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			predictionSink = md.PredictHigh(atomics.FAA, cores, 0)
		}
	})
}
