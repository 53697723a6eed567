// Package predict implements the conflict-based throughput model for
// the concurrent objects in internal/apps: each structure's operation
// is a recipe of core.AlgoStep accesses over contended lines, evaluated
// by core.Model.Compose — the one composite model (MODEL.md §6) — with
// the retry expansion driven by *measured* quantities (the structure's
// observed attempts per completed operation) instead of the blind
// 1/p ≈ n worst case of core.PredictAlgorithm.
//
// This is the paper-family methodology of Atalar, Renaud-Goud and
// Tsigas: measure the cheap, stable per-structure quantities (retry
// factor, elimination fraction) in one run, then predict throughput
// analytically for the same cell from primitive service times. The
// harness A-suite prints the prediction next to the simulated value
// with its relative error, so model drift is visible per cell.
package predict

import (
	"fmt"

	"atomicsmodel/internal/apps"
	"atomicsmodel/internal/atomics"
	"atomicsmodel/internal/core"
	"atomicsmodel/internal/machine"
)

// Quantities are the measured per-structure inputs the conflict model
// consumes: cheap scalars one simulation (or one hardware run) yields.
type Quantities struct {
	// RetryFactor is gating attempts per completed operation —
	// RunResult.Attempts / RunResult.TotalOps. 1 means conflict-free;
	// values below 1 (structures that do not report attempts) are
	// clamped to 1.
	RetryFactor float64
	// ElimFraction is the fraction of operations completed through a
	// collision array rather than the main structure (elimination
	// stacks); it shifts weight off the hot line.
	ElimFraction float64
}

// Measured extracts the model's quantities from a finished run.
func Measured(res *apps.RunResult) Quantities {
	q := Quantities{RetryFactor: 1}
	if res == nil || res.TotalOps == 0 {
		return q
	}
	if res.Attempts > 0 {
		q.RetryFactor = float64(res.Attempts) / float64(res.TotalOps)
	}
	if res.Eliminations > 0 {
		q.ElimFraction = float64(res.Eliminations) / float64(res.TotalOps)
		if q.ElimFraction > 1 {
			q.ElimFraction = 1
		}
	}
	return q
}

// Blind returns the a-priori quantities for n threads with no
// measurement: the FIFO blind-retry worst case (success rate 1/n),
// matching core.PredictAlgorithm's expansion. This is what a pure
// model query (no simulation) uses.
func Blind(n int) Quantities {
	if n < 1 {
		n = 1
	}
	return Quantities{RetryFactor: float64(n)}
}

// Recipe-local line indices. Only distinctness matters; the model
// treats each as an independent serial resource.
const (
	hotLine  = 0 // the structure's primary serialization point
	auxLine  = 1 // secondary shared line (tail, ticket, writer flag)
	wordBase = 2 // big-atomic word lines start here
)

// Steps builds the conflict-model recipe for a pinned app spec: the
// accesses one operation performs, with weights resolved from the
// spec's mix knobs and the measured quantities. The spec is defaulted
// internally, so callers may pass the sparse form.
func Steps(s *apps.Spec, q Quantities) ([]core.AlgoStep, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if len(s.ThreadLadder) > 0 {
		return nil, fmt.Errorf("predict: expand the thread ladder before building a recipe")
	}
	d := s.Defaulted()
	rf := d.ReadFraction
	wf := 1 - rf
	crit := d.CritPS
	switch d.Structure {
	case "counter-faa":
		return []core.AlgoStep{{Primitive: atomics.FAA, Line: hotLine}}, nil
	case "counter-cas":
		// Each retry round re-reads the counter and issues the CAS.
		return []core.AlgoStep{
			{Primitive: atomics.Load, Line: hotLine, Retry: true},
			{Primitive: atomics.CAS, Line: hotLine, Retry: true},
		}, nil
	case "counter-striped":
		// Writes FAA one stripe (uniform over stripes); reads sweep all
		// of them. Each stripe is its own serial resource.
		steps := make([]core.AlgoStep, 0, 2*d.Stripes)
		for i := 0; i < d.Stripes; i++ {
			if wf > 0 {
				steps = append(steps, core.AlgoStep{Primitive: atomics.FAA, Line: hotLine + i, Weight: wf / float64(d.Stripes)})
			}
			if rf > 0 {
				steps = append(steps, core.AlgoStep{Primitive: atomics.Load, Line: hotLine + i, Weight: rf})
			}
		}
		return steps, nil
	case "treiber-stack":
		return treiberSteps(1), nil
	case "elimination-stack":
		// The eliminated fraction pairs off on collision slots
		// (per-pair lines, no shared point): two slot CASes replace the
		// hot-line traffic of two operations.
		main := treiberSteps(1 - q.ElimFraction)
		if q.ElimFraction > 0 {
			main = append(main, core.AlgoStep{Primitive: atomics.CAS, Line: core.MigratoryLine, Weight: q.ElimFraction})
		}
		return main, nil
	case "ms-queue":
		return []core.AlgoStep{
			// Enqueue half: read the tail, link the next pointer on the
			// tail node (per-node line), swing the tail.
			{Primitive: atomics.Load, Line: auxLine, Weight: 0.5},
			{Primitive: atomics.CAS, Line: core.MigratoryLine, Weight: 0.5, Retry: true},
			{Primitive: atomics.CAS, Line: auxLine, Weight: 0.5},
			// Dequeue half: read the head, read the node, swing the head.
			{Primitive: atomics.Load, Line: hotLine, Weight: 0.5},
			{Primitive: atomics.Load, Line: core.MigratoryLine, Weight: 0.5},
			{Primitive: atomics.CAS, Line: hotLine, Weight: 0.5, Retry: true},
		}, nil
	case "lock-tas":
		return []core.AlgoStep{
			{Primitive: atomics.TAS, Line: hotLine, Retry: true},
			{Primitive: atomics.Store, Line: hotLine, Hold: crit},
		}, nil
	case "lock-ttas", "lock-ttas-backoff":
		// The spin re-reads ride the retry factor with the TAS; backoff
		// shrinks the measured factor rather than the recipe.
		return []core.AlgoStep{
			{Primitive: atomics.Load, Line: hotLine, Retry: true},
			{Primitive: atomics.TAS, Line: hotLine, Retry: true},
			{Primitive: atomics.Store, Line: hotLine, Hold: crit},
		}, nil
	case "lock-ticket":
		// FAA takes a ticket wait-free; the serving-word spin is the
		// retry loop; the holder bumps serving after the section.
		return []core.AlgoStep{
			{Primitive: atomics.FAA, Line: auxLine},
			{Primitive: atomics.Load, Line: hotLine, Retry: true},
			{Primitive: atomics.Store, Line: hotLine, Hold: crit},
		}, nil
	case "lock-cohort":
		// The local TAS carries the spin; the global CAS is amortized
		// over the cohort's hand-off budget.
		return []core.AlgoStep{
			{Primitive: atomics.CAS, Line: auxLine, Weight: 1 / float64(d.Handoffs)},
			{Primitive: atomics.TAS, Line: hotLine, Retry: true},
			{Primitive: atomics.Store, Line: hotLine, Hold: crit},
		}, nil
	case "rwlock-central":
		steps := []core.AlgoStep{
			{Primitive: atomics.CAS, Line: hotLine, Retry: true},
		}
		if rf > 0 {
			// Readers hold concurrently, so only their count updates
			// occupy the lock word; the section itself overlaps.
			steps = append(steps, core.AlgoStep{Primitive: atomics.FAA, Line: hotLine, Weight: rf})
		}
		if wf > 0 {
			steps = append(steps, core.AlgoStep{Primitive: atomics.Store, Line: hotLine, Weight: wf, Hold: crit})
		}
		return steps, nil
	case "rwlock-distributed":
		steps := []core.AlgoStep{}
		if rf > 0 {
			// Readers announce on their own slot and check the writer
			// flag; the announce rounds ride the retry factor.
			steps = append(steps,
				core.AlgoStep{Primitive: atomics.Store, Line: core.PrivateLine, Weight: rf, Retry: true},
				core.AlgoStep{Primitive: atomics.Load, Line: auxLine, Weight: rf},
				core.AlgoStep{Primitive: atomics.Store, Line: core.PrivateLine, Weight: rf},
			)
		}
		if wf > 0 {
			slots := d.Slots
			if slots == 0 {
				slots = d.Threads
			}
			steps = append(steps,
				core.AlgoStep{Primitive: atomics.TAS, Line: auxLine, Weight: wf, Retry: true},
				// The writer sweeps every reader slot (per-slot lines).
				core.AlgoStep{Primitive: atomics.Load, Line: core.MigratoryLine, Weight: wf * float64(slots)},
				core.AlgoStep{Primitive: atomics.Store, Line: auxLine, Weight: wf, Hold: crit},
			)
		}
		return steps, nil
	case "ws-deque":
		// Owner pushes and takes run on owner-private lines; only the
		// last-element race and steals CAS a top pointer — per-victim
		// lines, so they migrate without one shared bottleneck.
		return []core.AlgoStep{
			{Primitive: atomics.Load, Line: core.PrivateLine, Weight: 1.5},
			{Primitive: atomics.Store, Line: core.PrivateLine, Weight: 1.5},
			{Primitive: atomics.Load, Line: core.MigratoryLine, Weight: 0.5},
			{Primitive: atomics.CAS, Line: core.MigratoryLine, Retry: true, Weight: 0.5},
		}, nil
	case "big-atomic":
		if d.Words == 1 {
			// Single-word baseline: the classic CAS loop, plus plain
			// loads for the read fraction.
			steps := []core.AlgoStep{}
			if rf > 0 {
				steps = append(steps, core.AlgoStep{Primitive: atomics.Load, Line: wordBase, Weight: rf})
			}
			if wf > 0 {
				steps = append(steps,
					core.AlgoStep{Primitive: atomics.Load, Line: wordBase, Weight: wf, Retry: true},
					core.AlgoStep{Primitive: atomics.CAS, Line: wordBase, Weight: wf, Retry: true},
				)
			}
			return steps, nil
		}
		steps := []core.AlgoStep{
			// Both paths start at the version line; the seqlock rounds
			// and failed acquires ride the retry factor.
			{Primitive: atomics.Load, Line: hotLine, Retry: true},
		}
		if wf > 0 {
			steps = append(steps,
				core.AlgoStep{Primitive: atomics.CAS2, Line: hotLine, Weight: wf, Retry: true},
				core.AlgoStep{Primitive: atomics.Store, Line: hotLine, Weight: wf},
			)
		}
		if rf > 0 {
			// The read's closing version re-check.
			steps = append(steps, core.AlgoStep{Primitive: atomics.Load, Line: hotLine, Weight: rf})
		}
		for i := 0; i < d.Words; i++ {
			if rf > 0 {
				steps = append(steps, core.AlgoStep{Primitive: atomics.Load, Line: wordBase + i, Weight: rf})
			}
			if wf > 0 {
				steps = append(steps, core.AlgoStep{Primitive: atomics.Store, Line: wordBase + i, Weight: wf})
			}
		}
		return steps, nil
	}
	return nil, fmt.Errorf("predict: no recipe for structure %s", d.Structure)
}

// treiberSteps is the Treiber stack recipe at the given hot-line
// weight (50/50 push-pop; node lines are per-element).
func treiberSteps(w float64) []core.AlgoStep {
	return []core.AlgoStep{
		{Primitive: atomics.Store, Line: core.MigratoryLine, Weight: 0.5 * w},
		{Primitive: atomics.Load, Line: hotLine, Retry: true, Weight: w},
		{Primitive: atomics.Load, Line: core.MigratoryLine, Weight: 0.5 * w},
		{Primitive: atomics.CAS, Line: hotLine, Retry: true, Weight: w},
	}
}

// ForSpec predicts a pinned app spec's throughput on a machine from
// the given quantities: it resolves the spec's placement into cores,
// builds the recipe, and evaluates it against the machine's detailed
// service-time model. Returns Mops.
func ForSpec(m *machine.Machine, s *apps.Spec, q Quantities) (float64, error) {
	steps, err := Steps(s, q)
	if err != nil {
		return 0, err
	}
	d := s.Defaulted()
	place, err := machine.PlacementByName(d.Placement)
	if err != nil {
		return 0, err
	}
	cores, err := machine.PlaceCores(m, place, d.Threads)
	if err != nil {
		return 0, err
	}
	pred, err := core.NewDetailed(m).Compose(steps, cores, 0, q.RetryFactor)
	return pred.ThroughputMops, err
}
