package predict

import (
	"math"
	"testing"

	"atomicsmodel/internal/apps"
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/sim"
)

func TestMeasuredQuantities(t *testing.T) {
	if q := Measured(nil); q.RetryFactor != 1 || q.ElimFraction != 0 {
		t.Fatalf("nil result: %+v", q)
	}
	res := &apps.RunResult{TotalOps: 100, Attempts: 250, Eliminations: 30}
	q := Measured(res)
	if q.RetryFactor != 2.5 {
		t.Fatalf("retry factor = %v, want 2.5", q.RetryFactor)
	}
	if q.ElimFraction != 0.3 {
		t.Fatalf("elim fraction = %v, want 0.3", q.ElimFraction)
	}
	// Structures without attempt reporting default to conflict-free.
	if q := Measured(&apps.RunResult{TotalOps: 100}); q.RetryFactor != 1 {
		t.Fatalf("attempt-free retry factor = %v, want 1", q.RetryFactor)
	}
	if q := Blind(8); q.RetryFactor != 8 {
		t.Fatalf("Blind(8) = %+v", q)
	}
}

// TestStepsCoverAllStructures demands a recipe for every registered
// structure: a structure the model cannot price would silently drop
// the A-suite's prediction column.
func TestStepsCoverAllStructures(t *testing.T) {
	for _, name := range apps.StructureNames() {
		s := &apps.Spec{Structure: name, Threads: 8, Seed: 1}
		steps, err := Steps(s, Blind(8))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if len(steps) == 0 {
			t.Errorf("%s: empty recipe", name)
		}
		mops, err := ForSpec(machine.XeonE5(), s, Blind(8))
		if err != nil {
			t.Errorf("%s: ForSpec: %v", name, err)
			continue
		}
		if mops <= 0 || math.IsInf(mops, 0) || math.IsNaN(mops) {
			t.Errorf("%s: predicted %v Mops", name, mops)
		}
	}
}

// TestRetryFactorMonotonicity: more measured conflict must never
// predict more throughput.
func TestRetryFactorMonotonicity(t *testing.T) {
	m := machine.XeonE5()
	s := &apps.Spec{Structure: "counter-cas", Threads: 16}
	prev := math.Inf(1)
	for _, rf := range []float64{1, 2, 4, 8, 16} {
		mops, err := ForSpec(m, s, Quantities{RetryFactor: rf})
		if err != nil {
			t.Fatal(err)
		}
		if mops > prev {
			t.Fatalf("retry factor %v predicts %v Mops > %v at lower conflict", rf, mops, prev)
		}
		prev = mops
	}
}

// TestEliminationSheddingHelps: shifting completed operations onto the
// collision array must raise the elimination stack's prediction.
func TestEliminationSheddingHelps(t *testing.T) {
	m := machine.XeonE5()
	s := &apps.Spec{Structure: "elimination-stack", Threads: 16}
	none, err := ForSpec(m, s, Quantities{RetryFactor: 4})
	if err != nil {
		t.Fatal(err)
	}
	half, err := ForSpec(m, s, Quantities{RetryFactor: 4, ElimFraction: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if half <= none {
		t.Fatalf("elimination does not help: %v Mops with vs %v without", half, none)
	}
}

// TestFAABeatsCASUnderConflict: with any conflict measured on the CAS
// counter, the wait-free FAA counter must predict at least as fast —
// the paper's core qualitative ranking.
func TestFAABeatsCASUnderConflict(t *testing.T) {
	m := machine.XeonE5()
	faa, err := ForSpec(m, &apps.Spec{Structure: "counter-faa", Threads: 16}, Quantities{RetryFactor: 1})
	if err != nil {
		t.Fatal(err)
	}
	cas, err := ForSpec(m, &apps.Spec{Structure: "counter-cas", Threads: 16}, Quantities{RetryFactor: 6})
	if err != nil {
		t.Fatal(err)
	}
	if cas >= faa {
		t.Fatalf("CAS counter at retry factor 6 predicts %v Mops >= FAA's %v", cas, faa)
	}
}

// TestStripingRelievesBottleneck: the striped counter's per-stripe
// occupancy must beat the single hot line at the same thread count.
func TestStripingRelievesBottleneck(t *testing.T) {
	m := machine.XeonE5()
	one, err := ForSpec(m, &apps.Spec{Structure: "counter-striped", Threads: 16, Stripes: 1}, Quantities{RetryFactor: 1})
	if err != nil {
		t.Fatal(err)
	}
	sixteen, err := ForSpec(m, &apps.Spec{Structure: "counter-striped", Threads: 16, Stripes: 16}, Quantities{RetryFactor: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sixteen <= one {
		t.Fatalf("16 stripes predict %v Mops <= 1 stripe's %v", sixteen, one)
	}
}

// TestPredictionTracksSimulation runs real cells and checks the
// measured-quantity prediction lands within a loose band of the
// simulated throughput — the model is an analytical estimate, not a
// replay, but it must be the right order of magnitude and rank the
// contended cell below the private one.
func TestPredictionTracksSimulation(t *testing.T) {
	m := machine.XeonE5()
	for _, structure := range []string{"counter-faa", "counter-cas", "treiber-stack"} {
		s := &apps.Spec{
			Structure: structure, Threads: 8,
			WarmupPS: 5 * sim.Microsecond, DurationPS: 50 * sim.Microsecond, Seed: 42,
		}
		res, err := apps.RunSpec(s, m)
		if err != nil {
			t.Fatal(err)
		}
		mops, err := ForSpec(m, s, Measured(res))
		if err != nil {
			t.Fatal(err)
		}
		ratio := mops / res.ThroughputMops
		if ratio < 0.2 || ratio > 5 {
			t.Errorf("%s: predicted %.2f Mops vs simulated %.2f (ratio %.2f) — out of band",
				structure, mops, res.ThroughputMops, ratio)
		}
	}
}

func TestStepsRejections(t *testing.T) {
	if _, err := Steps(&apps.Spec{Structure: "nope", Threads: 4}, Blind(4)); err == nil {
		t.Fatal("unknown structure accepted")
	}
	if _, err := Steps(&apps.Spec{Structure: "counter-faa", ThreadLadder: []int{1, 2}}, Blind(4)); err == nil {
		t.Fatal("unexpanded ladder accepted")
	}
}

// TestBlindRankingStackQueue ranks the A suite's own recipes for the
// Treiber stack and the Michael-Scott queue under the blind retry
// factor, against the simulator: the queue's head and tail split the
// contended traffic over two lines, so it must beat the stack at every
// contended rung, in the model as in the simulation. (The model's
// error on these recipes is not bounded here; see ROADMAP item 4.)
func TestBlindRankingStackQueue(t *testing.T) {
	m := machine.XeonE5()
	for _, n := range []int{8, 16} {
		var model, simulated [2]float64
		for i, structure := range []string{"treiber-stack", "ms-queue"} {
			s := &apps.Spec{
				Structure: structure, Threads: n,
				WarmupPS: 25 * sim.Microsecond, DurationPS: 300 * sim.Microsecond, Seed: 7,
			}
			res, err := apps.RunSpec(s, m)
			if err != nil {
				t.Fatal(err)
			}
			mops, err := ForSpec(m, s, Blind(n))
			if err != nil {
				t.Fatal(err)
			}
			model[i], simulated[i] = mops, res.ThroughputMops
			t.Logf("n=%d %s: model %.2f sim %.2f", n, structure, mops, res.ThroughputMops)
		}
		if !(model[1] > model[0]) || !(simulated[1] > simulated[0]) {
			t.Errorf("n=%d: stack/queue ranking broken: model %.2f/%.2f, sim %.2f/%.2f",
				n, model[0], model[1], simulated[0], simulated[1])
		}
	}
}
