package core

import (
	"fmt"

	"atomicsmodel/internal/atomics"
	"atomicsmodel/internal/sim"
)

// AlgoStep is one memory access in an algorithm's high-level operation
// (one counter increment, one stack push, one lock cycle). A concurrent
// algorithm is, for the model's purposes, just the multiset of accesses
// each operation performs on each contended line.
type AlgoStep struct {
	// Primitive performed by this step.
	Primitive atomics.Primitive
	// Line identifies which contended line the step touches. Only
	// identity and distinctness matter: each line is an independent
	// serial resource. PrivateLine marks a per-thread line (local, no
	// cross-thread traffic); MigratoryLine marks per-element lines that
	// transfer between threads (a pop reading the pusher's node) — they
	// pay a transfer latency but are not a shared serialization point.
	Line int
	// Retry marks a step inside a repeat-until-success loop (a CAS
	// loop body — typically the gating CAS plus the re-reads it
	// retries with): it executes the retry factor's number of times
	// per completed operation, each execution paying its full service.
	Retry bool
	// Weight scales the step for operation mixes (0.5 = half the
	// operations perform this step). Zero means 1.
	Weight float64
	// Hold is serial time each execution of the step keeps the line
	// busy beyond the primitive's own service: the critical section
	// the step's line protects.
	Hold sim.Time
}

// Line sentinels for AlgoStep.
const (
	// PrivateLine is a per-thread line: local cost, no serialization.
	PrivateLine = -1
	// MigratoryLine is a per-element line that moves between threads:
	// transfer cost, no shared serialization point.
	MigratoryLine = -2
)

// Compose predicts the aggregate operation throughput of an algorithm
// whose every operation performs the given steps, when the given cores
// run it back to back (think time work between operations) and each
// Retry step executes retry times per completed operation (a retry
// factor below 1 counts as 1).
//
// The model composes the paper's primitive-level reasoning: each
// contended line is a serial resource whose per-operation occupancy is
// the sum of the services of the steps touching it; the line with the
// largest occupancy is the bottleneck; every step, private and
// migratory ones too, adds to the latency path of one operation, so
// the population bound n/(path+work) caps the rate when the bottleneck
// is not saturated.
func (md *Model) Compose(steps []AlgoStep, cores []int, work sim.Time, retry float64) (Prediction, error) {
	n := len(cores)
	pred := Prediction{Threads: n, SuccessRate: 1, Jain: 1}
	if n == 0 {
		return pred, nil
	}
	if retry < 1 {
		retry = 1
	}
	retries := 1.0
	occupancy := map[int]float64{}
	var path float64
	for _, st := range steps {
		if st.Line < MigratoryLine {
			return pred, fmt.Errorf("core: invalid line %d in algorithm step", st.Line)
		}
		w := st.Weight
		if w == 0 {
			w = 1
		}
		if w < 0 {
			return pred, fmt.Errorf("core: negative step weight %v", w)
		}
		attempts := w
		if st.Retry {
			attempts = w * retry
			retries = retry
		}
		// A private access hits the thread's own warmed line; the
		// others pay the contending cores' transfer.
		on := cores
		if st.Line == PrivateLine {
			on = cores[:1]
		}
		s := float64(md.ServiceTime(st.Primitive, on) + st.Hold)
		if st.Line >= 0 {
			occupancy[st.Line] += attempts * s
		}
		path += attempts * s
	}
	var bottleneck float64
	for _, occ := range occupancy {
		if occ > bottleneck {
			bottleneck = occ
		}
	}
	cycle := path + float64(work)
	if cycle <= 0 {
		return pred, fmt.Errorf("core: algorithm has no latency path and no think time")
	}
	// Closed system: the population bound against the bottleneck
	// line's service rate.
	rate := float64(n) / cycle
	if bottleneck > 0 {
		if serial := 1 / bottleneck; serial < rate {
			rate = serial
		}
	}
	pred.ServiceTime = sim.Time(bottleneck)
	pred.ThroughputMops = rate * 1e12 / 1e6
	pred.AttemptsMops = pred.ThroughputMops * retries
	pred.SuccessRate = 1 / retries
	pred.AttemptLatency = sim.Time(float64(n)/rate) - work
	return pred, nil // composite energy is not modeled
}

// PredictAlgorithm is Compose with the blind retry factor: with no
// measurement, a FIFO retry loop succeeds once per n attempts, so
// every Retry step executes n times per operation, and the
// winner-keeps-winning dynamics of blind retry loops predict a Jain
// index of 1/n. Nothing in the module calls it outside tests: it is
// public API through the root package's Model alias, shown in
// example_test.go.
func (md *Model) PredictAlgorithm(steps []AlgoStep, cores []int, work sim.Time) (Prediction, error) {
	pred, err := md.Compose(steps, cores, work, float64(len(cores)))
	if err == nil && pred.SuccessRate < 1 {
		pred.Jain = 1 / float64(len(cores))
	}
	return pred, err
}
