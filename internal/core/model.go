// Package core implements the paper's contribution: a simple analytical
// performance model for atomic primitives, centered on the bouncing of
// cache lines between the threads that execute atomics on them.
//
// The model's state is tiny — a handful of transfer-time constants —
// and from them it predicts, for any primitive, thread placement and
// local-work level:
//
//   - per-operation latency and throughput in the high-contention
//     setting (the line's directory serializes requests, so service
//     time = expected line-transfer time + the primitive's execution
//     occupancy, and the system behaves as a closed queueing network
//     around a single server);
//   - CAS success rate (and hence the successful-update throughput of
//     CAS-based code versus FAA-based code);
//   - latency in the low-contention setting as a function of where the
//     line initially is;
//   - fairness and energy per operation.
//
// Two variants are provided. The detailed model computes expected
// transfer times from the machine's topology (hop counts between the
// contending cores and the line's home). The simple model is the one a
// practitioner would use on real hardware: it takes just three measured
// constants (local, same-socket transfer, cross-socket transfer) and
// still captures the behaviour — Calibrate obtains those constants from
// three probe runs, mirroring how the paper fits its model.
//
// MODEL.md states every equation this package implements, in the same
// order; ARCHITECTURE.md carries the equation-to-symbol index (§1 →
// LowLatency, §2 → ServiceTime/PredictHigh, §3 → CASSuccessRateFIFO/
// Random, §4 → PredictHighArb, §6 → Compose/PredictAlgorithm, §7 →
// NewSimple/Calibrate). In the pipeline this package is a consumer of
// machine descriptions only — it never touches the simulator, which is
// what makes F7's model-vs-simulation comparison meaningful.
package core

import (
	"fmt"
	"math"

	"atomicsmodel/internal/atomics"
	"atomicsmodel/internal/coherence"
	"atomicsmodel/internal/energy"
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/sim"
	"atomicsmodel/internal/topology"
	"atomicsmodel/internal/workload"
)

// Variant selects how transfer times are obtained.
type Variant uint8

const (
	// Detailed derives expected transfer times from topology hop counts.
	Detailed Variant = iota
	// Simple uses three calibrated constants (tLocal, tSame, tCross).
	Simple
)

// Model predicts atomic-primitive performance on one machine.
type Model struct {
	m       *machine.Machine
	variant Variant

	// Simple-variant constants: time to complete one RMW (excluding the
	// primitive-specific execution delta) when the line is local, in a
	// same-socket cache, or in a cross-socket cache.
	tLocal, tSame, tCross sim.Time

	// home is the topology node assumed to host the contended line's
	// directory (line ID 1 in the workloads).
	home int
	// pairs is m's node-pair table, which pairSums reads for every
	// ordered pair of contending cores.
	pairs *topology.PairTable
}

// NewDetailed builds the topology-aware model for m.
func NewDetailed(m *machine.Machine) *Model {
	return &Model{m: m, variant: Detailed, home: 1 % m.Topo.Nodes(), pairs: m.NodePairs()}
}

// NewSimple builds the three-constant model. tLocal is the cost of an
// RMW on an owned line including execution; tSame and tCross are the
// costs when the line is in a same-socket / cross-socket cache. For a
// single-socket machine pass tCross = tSame.
func NewSimple(m *machine.Machine, tLocal, tSame, tCross sim.Time) *Model {
	return &Model{m: m, variant: Simple, tLocal: tLocal, tSame: tSame, tCross: tCross,
		home: 1 % m.Topo.Nodes(), pairs: m.NodePairs()}
}

// Machine returns the machine the model describes.
func (md *Model) Machine() *machine.Machine { return md.m }

// Variant returns the model variant.
func (md *Model) Variant() Variant { return md.variant }

// Constants returns the simple-variant constants (zero for Detailed).
// Nothing in the module calls it outside tests; it stays as public API
// through the root package's Model alias.
func (md *Model) Constants() (tLocal, tSame, tCross sim.Time) {
	return md.tLocal, md.tSame, md.tCross
}

// pairSums walks every ordered pair (o, c) of distinct entries of
// cores, c the core granted the line and o its previous owner, and
// returns two sums over them: cost, the expected completion cost of
// the grant (excluding execution occupancy) under the model's variant,
// and dynNJ, the simulator's energy charge (energy.ChargeNJ) for the
// transfer. Equal cores (hyperthreads of one core) cost a local hit;
// distinct cores always pay a directory trip, even on the same tile
// (KNL tile-mates have private L1s; their transfers are cheap —
// zero-hop legs — but not free), and a forward from o's cache over
// the three-leg path through the line's home: requester to home, home
// to owner, and owner back to requester. The cores are mapped to nodes,
// and their legs to and from the home looked up, once per call; each
// pair's hops and cross-socket flag (a property of the two nodes, in
// either order) serve both sums.
func (md *Model) pairSums(cores []int) (cost sim.Time, dynNJ float64) {
	lat, e := &md.m.Lat, &md.m.Energy
	local := energy.ChargeNJ(e, coherence.ClassOf(coherence.SrcLocal, 0, false))
	type leg struct{ node, toHome, fromHome int }
	legs := make([]leg, len(cores))
	for i, c := range cores {
		n := md.m.NodeOf(c)
		legs[i] = leg{n, md.pairs.Hops(n, md.home), md.pairs.Hops(md.home, n)}
	}
	for i, c := range cores {
		nc := legs[i].node
		for j, o := range cores {
			switch {
			case i == j:
				continue
			case o == c:
				if md.variant == Simple {
					cost += md.tLocal
				} else {
					cost += lat.L1Hit
				}
				dynNJ += local
				continue
			}
			no := legs[j].node
			hops := legs[i].toHome + legs[j].fromHome + md.pairs.Hops(no, nc)
			cross := md.pairs.CrossSocket(no, nc)
			switch {
			case md.variant == Simple && cross:
				cost += md.tCross
			case md.variant == Simple:
				cost += md.tSame
			case cross:
				cost += lat.DirLookup + sim.Time(hops)*lat.HopLatency + lat.CrossSocketPenalty
			default:
				cost += lat.DirLookup + sim.Time(hops)*lat.HopLatency
			}
			dynNJ += energy.ChargeNJ(e, coherence.ClassOf(coherence.SrcRemoteCache, hops, cross))
		}
	}
	return cost, dynNJ
}

// ServiceTime returns the expected time the contended line is occupied
// per operation of primitive p when the given physical cores contend.
// Under FIFO arbitration the grants cycle through the threads in their
// (random) arrival order, so the expected consecutive-owner transfer
// cost is the mean of the pair cost over all ordered distinct pairs;
// the primitive's execution occupancy is added on top.
func (md *Model) ServiceTime(p atomics.Primitive, cores []int) sim.Time {
	s, _ := md.service(p, cores)
	return s
}

// service returns ServiceTime and the expected dynamic energy of one
// attempt, in nJ: the mean transfer charge over random consecutive-
// owner pairs, or a local operation's when one thread runs.
func (md *Model) service(p atomics.Primitive, cores []int) (sim.Time, float64) {
	exec := atomics.ExecCost(md.m, p)
	if len(cores) <= 1 {
		if md.variant == Simple {
			return md.tLocal + exec - atomics.ExecCost(md.m, atomics.FAA), md.m.Energy.LocalOpNJ
		}
		return md.m.Lat.L1Hit + exec, md.m.Energy.LocalOpNJ
	}
	sum, dynNJ := md.pairSums(cores)
	pairs := len(cores) * (len(cores) - 1)
	mean, dynNJ := sum/sim.Time(pairs), dynNJ/float64(pairs)
	if md.variant == Simple {
		// tLocal/tSame/tCross were calibrated with FAA; adjust by the
		// primitive's execution delta.
		return mean + exec - atomics.ExecCost(md.m, atomics.FAA), dynNJ
	}
	return mean + exec, dynNJ
}

// Prediction is the model's output for one configuration.
type Prediction struct {
	Threads int
	// ServiceTime is the expected line occupancy per attempt.
	ServiceTime sim.Time
	// AttemptsMops is the rate of completed primitives (including
	// failed CAS), in millions per second.
	AttemptsMops float64
	// ThroughputMops is the rate of successful operations.
	ThroughputMops float64
	// AttemptLatency is the expected issue-to-completion latency of one
	// primitive (including waiting for the line).
	AttemptLatency sim.Time
	// SuccessRate is Ops/Attempts (1 for everything but contended CAS).
	SuccessRate float64
	// Jain is the predicted Jain fairness index over per-thread
	// successful ops under FIFO arbitration.
	Jain float64
	// EnergyPerOpNJ is predicted energy per successful operation.
	EnergyPerOpNJ float64
}

// CASSuccessRateFIFO models the blind-CAS retry pattern under FIFO
// (round-robin) arbitration. The grants cycle through the threads, so
// only the thread holding the freshest expected value succeeds: exactly
// one success per N attempts.
func CASSuccessRateFIFO(n int) float64 {
	if n <= 1 {
		return 1
	}
	return 1 / float64(n)
}

// CASSuccessRateRandom models blind CAS under memoryless (random)
// arbitration. Between a thread's consecutive grants, the number of
// other grants G is geometric with mean n-1 (each grant is the
// thread's with probability 1/n), and the CAS succeeds iff none of
// those intermediate grants succeeded. With the symmetric assumption
// that every grant succeeds independently with probability p,
//
//	p = E[(1-p)^G] = (1/n) / (1 - (1-1/n)(1-p)),
//
// a quadratic p²q + p/n - 1/n = 0 with q = 1-1/n, solved in closed
// form. The simulator's random-arbiter runs match it within a few
// percent (see arbmodel tests).
func CASSuccessRateRandom(n int) float64 {
	if n <= 1 {
		return 1
	}
	inv := 1 / float64(n)
	q := 1 - inv
	return (-inv + math.Sqrt(inv*inv+4*q*inv)) / (2 * q)
}

// PredictHigh predicts the high-contention setting: the given physical
// cores (one per thread; repeats mean hyperthread sharing) all hammer
// one line with primitive p, separated by think time work.
func (md *Model) PredictHigh(p atomics.Primitive, cores []int, work sim.Time) Prediction {
	pred, _ := md.predictHigh(p, cores, work)
	return pred
}

// predictHigh is PredictHigh, which also returns the dynamic energy of
// one attempt (service) for a caller that re-prices the energy per
// operation under another success rate (PredictHighArb).
func (md *Model) predictHigh(p atomics.Primitive, cores []int, work sim.Time) (Prediction, float64) {
	n := len(cores)
	if p == atomics.Fence {
		// Fences are core-local: no shared line, so "high contention"
		// degenerates to independent threads.
		exec := atomics.ExecCost(md.m, p)
		pred := Prediction{Threads: n, ServiceTime: exec, SuccessRate: 1, Jain: 1, AttemptLatency: exec}
		if n > 0 {
			pred.AttemptsMops = float64(n) / float64(exec+work) * 1e12 / 1e6
			pred.ThroughputMops = pred.AttemptsMops
			pred.EnergyPerOpNJ = md.energyPerOpLow(n, pred)
		}
		return pred, 0
	}
	s, dynNJ := md.service(p, cores)
	pred := Prediction{Threads: n, ServiceTime: s, SuccessRate: 1, Jain: 1}
	if n == 0 {
		return pred, dynNJ
	}
	// Closed system around one server: each thread cycles through
	// think (work) and service; attempts rate is bounded by both the
	// population and the server.
	sf, wf := float64(s), float64(work)
	attemptsPerPs := math.Min(float64(n)/(sf+wf), 1/sf)
	pred.AttemptsMops = attemptsPerPs * 1e12 / 1e6 // per ps -> per s -> Mops
	// Mean attempt latency from the closed-system identity
	// N = X * (latency + think).
	pred.AttemptLatency = sim.Time(float64(n)/attemptsPerPs - wf)

	if (p == atomics.CAS || p == atomics.CAS2) && n > 1 {
		pred.SuccessRate = CASSuccessRateFIFO(n)
		// One thread wins every round under FIFO: Jain = 1/n.
		pred.Jain = 1 / float64(n)
	}
	pred.ThroughputMops = pred.AttemptsMops * pred.SuccessRate

	pred.EnergyPerOpNJ = md.energyPerOp(cores, pred, dynNJ)
	return pred, dynNJ
}

// PredictLow predicts the low-contention setting: n threads on private
// lines, each line always found in the owner's cache.
func (md *Model) PredictLow(p atomics.Primitive, n int, work sim.Time) Prediction {
	s := md.ServiceTime(p, []int{0})
	pred := Prediction{Threads: n, ServiceTime: s, SuccessRate: 1, Jain: 1}
	if n == 0 {
		return pred
	}
	perThread := 1 / float64(s+work)
	pred.AttemptsMops = perThread * float64(n) * 1e12 / 1e6
	pred.ThroughputMops = pred.AttemptsMops
	pred.AttemptLatency = s
	pred.EnergyPerOpNJ = md.energyPerOpLow(n, pred)
	return pred
}

// energyPerOp predicts J/op (in nJ) for the high-contention setting:
// static+active power divided by successful throughput, plus the
// dynamic energy dynNJ of one attempt (service) times the attempts
// needed per success.
func (md *Model) energyPerOp(cores []int, pred Prediction, dynNJ float64) float64 {
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
	return staticNJ + dynNJ/pred.SuccessRate
}

func (md *Model) energyPerOpLow(n int, pred Prediction) float64 {
	if pred.ThroughputMops == 0 {
		return 0
	}
	e := md.m.Energy
	watts := (e.StaticWattsPerCore + e.ActiveWattsPerThread) * float64(n)
	return watts/(pred.ThroughputMops*1e6)*1e9 + e.LocalOpNJ
}

// LowLatency predicts the latency of a single primitive whose line is
// initially in the given state (the paper's low-contention latency
// table). It mirrors the protocol's cost structure; the simple variant
// substitutes its calibrated constants for the transfer terms. The
// states and core choices match workload.MeasureStateLatency so
// predictions and measurements are directly comparable. Nothing in the
// module calls it outside tests; it stays as public API through the
// root package's Model alias, and as the low-contention model that
// TestLowLatencyMatchesMeasuredStates holds to the simulator.
func (md *Model) LowLatency(p atomics.Primitive, st workload.LineState) (sim.Time, error) {
	if p == atomics.Fence {
		// A fence never touches the line: its cost is state-independent.
		return atomics.ExecCost(md.m, p), nil
	}
	lat := md.m.Lat
	exec := atomics.ExecCost(md.m, p)
	measuredNode := md.m.NodeOf(0)
	sameNode := md.m.NodeOf(md.m.CoresPerSocket / 2)
	var otherNode int
	if md.m.Sockets > 1 {
		otherNode = md.m.NodeOf(md.m.CoresPerSocket + md.m.CoresPerSocket/2)
	}
	// Line 77 is the probe line MeasureStateLatency uses.
	home := int(uint64(77) % uint64(md.m.Topo.Nodes()))

	transfer := func(ownerNode int) sim.Time {
		hops := md.m.Topo.Hops(measuredNode, home) + md.m.Topo.Hops(home, ownerNode) + md.m.Topo.Hops(ownerNode, measuredNode)
		c := lat.DirLookup + sim.Time(hops)*lat.HopLatency
		if md.m.Topo.CrossSocket(measuredNode, ownerNode) {
			c += lat.CrossSocketPenalty
		}
		return c
	}
	llcTrip := func() sim.Time {
		hops := 2 * md.m.Topo.Hops(measuredNode, home)
		return lat.DirLookup + lat.LLCHit + sim.Time(hops)*lat.HopLatency
	}

	switch st {
	case workload.StateModifiedLocal, workload.StateExclusiveLocal:
		return lat.L1Hit + exec, nil
	case workload.StateShared:
		if !p.IsRMW() && p != atomics.Store {
			return lat.L1Hit + exec, nil
		}
		return llcTrip() + lat.InvalidateCost + exec, nil
	case workload.StateRemoteSameSocket:
		if md.variant == Simple {
			return md.tSame + exec - atomics.ExecCost(md.m, atomics.FAA), nil
		}
		return transfer(sameNode) + exec, nil
	case workload.StateRemoteOtherSocket:
		if md.m.Sockets < 2 {
			return 0, fmt.Errorf("core: %s has a single socket", md.m.Name)
		}
		if md.variant == Simple {
			return md.tCross + exec - atomics.ExecCost(md.m, atomics.FAA), nil
		}
		return transfer(otherNode) + exec, nil
	case workload.StateLLC:
		return llcTrip() + exec, nil
	case workload.StateMemory:
		hops := 2 * md.m.Topo.Hops(measuredNode, home)
		return lat.DirLookup + lat.DRAM + sim.Time(hops)*lat.HopLatency + exec, nil
	}
	return 0, fmt.Errorf("core: unknown line state %d", st)
}
