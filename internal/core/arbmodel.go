package core

import (
	"atomicsmodel/internal/atomics"
	"atomicsmodel/internal/sim"
)

// ArbPolicy names an arbitration policy for model predictions,
// mirroring the coherence package's arbiters.
type ArbPolicy uint8

const (
	// ArbFIFO grants requests in arrival order (the default).
	ArbFIFO ArbPolicy = iota
	// ArbRandom grants a uniformly random queued request.
	ArbRandom
	// ArbLocality grants the requester nearest the current owner.
	ArbLocality
)

func (a ArbPolicy) String() string {
	switch a {
	case ArbFIFO:
		return "fifo"
	case ArbRandom:
		return "random"
	case ArbLocality:
		return "locality"
	}
	return "unknown"
}

// PredictHighArb extends PredictHigh with the arbitration policy. The
// policy changes three things the plain model cannot see:
//
//   - FIFO: grants rotate through all contenders; the service time is
//     the mean transfer over random consecutive-owner pairs (PredictHigh).
//   - Random: the same expected service time and throughput as FIFO
//     (a uniformly random grant sequence has the same pair distribution),
//     but the CAS success rate follows the memoryless fixed point
//     p=(1-p)^(n-1) instead of the deterministic 1/n, and per-thread
//     work stays statistically balanced.
//   - Locality: grants collapse onto the cheapest cluster. If some
//     contenders share a cache (same core) or a topology node (KNL
//     tile-mates), ownership alternates inside that cluster at its
//     internal transfer cost; otherwise the current owner re-wins every
//     race and runs at local speed. Throughput is maximal and fairness
//     is the cluster size over n.
func (md *Model) PredictHighArb(p atomics.Primitive, cores []int, work sim.Time, arb ArbPolicy) Prediction {
	switch arb {
	case ArbRandom:
		pred, dynNJ := md.predictHigh(p, cores, work)
		if (p == atomics.CAS || p == atomics.CAS2) && len(cores) > 1 {
			pred.SuccessRate = CASSuccessRateRandom(len(cores))
			pred.ThroughputMops = pred.AttemptsMops * pred.SuccessRate
			// Wins are memoryless, so per-thread successes balance out.
			pred.Jain = 1
			pred.EnergyPerOpNJ = md.energyPerOp(cores, pred, dynNJ)
		}
		return pred
	case ArbLocality:
		return md.predictLocality(p, cores, work)
	default:
		return md.PredictHigh(p, cores, work)
	}
}

// predictLocality models the ownership monopoly locality arbitration
// converges to.
func (md *Model) predictLocality(p atomics.Primitive, cores []int, work sim.Time) Prediction {
	n := len(cores)
	pred := Prediction{Threads: n, SuccessRate: 1, Jain: 1}
	if n == 0 {
		return pred
	}
	exec := atomics.ExecCost(md.m, p)
	if md.variant == Simple {
		exec = exec - atomics.ExecCost(md.m, atomics.FAA)
	}

	// Find the cheapest self-sustaining cluster: the largest set of
	// contenders on one node (they tie at distance zero from the owner
	// and rotate among themselves); if every contender sits alone on
	// its node, the owner re-wins every race.
	perNode := map[int][]int{}
	for _, c := range cores {
		perNode[md.m.NodeOf(c)] = append(perNode[md.m.NodeOf(c)], c)
	}
	// Every maximal multi-member node group is an absorbing state
	// (once ownership lands there, zero-distance ties keep it there),
	// and which one absorbs depends on the initial race. Predict the
	// expectation over the candidate clusters; with no multi-member
	// group the lone owner re-wins every race and runs locally.
	cluster := 1
	var clusterService sim.Time
	if md.variant == Simple {
		clusterService = md.tLocal
	} else {
		clusterService = md.m.Lat.L1Hit
	}
	var svcSum sim.Time
	nClusters := 0
	maxGroup := 1
	for _, group := range perNode {
		if len(group) < 2 {
			continue
		}
		// Ownership rotates among the group's cores; same-core pairs
		// are local, distinct-core pairs pay the zero-hop directory
		// trip. Use the mean over ordered distinct pairs within the
		// group.
		sum, _ := md.pairSums(group)
		svcSum += sum / sim.Time(len(group)*(len(group)-1))
		nClusters++
		if len(group) > maxGroup {
			maxGroup = len(group)
		}
	}
	if nClusters > 0 {
		cluster = maxGroup
		clusterService = svcSum / sim.Time(nClusters)
	}

	s := clusterService + exec
	sf, wf := float64(s), float64(work)
	ratePerPs := 1 / sf
	if wf > 0 {
		// The cluster still thinks between ops; with k members the
		// cluster sustains min(k/(s+w), 1/s).
		k := float64(cluster)
		if k/(sf+wf) < ratePerPs {
			ratePerPs = k / (sf + wf)
		}
	}
	pred.ServiceTime = s
	pred.AttemptsMops = ratePerPs * 1e12 / 1e6
	pred.AttemptLatency = s
	if (p == atomics.CAS || p == atomics.CAS2) && cluster > 1 {
		// Within the rotating cluster the CAS pattern behaves like a
		// FIFO round of size cluster.
		pred.SuccessRate = CASSuccessRateFIFO(cluster)
	}
	pred.ThroughputMops = pred.AttemptsMops * pred.SuccessRate
	// Only the cluster's members make progress.
	pred.Jain = float64(cluster) / float64(n)
	pred.EnergyPerOpNJ = md.energyPerOpLocality(cores, cluster, pred)
	return pred
}

func (md *Model) energyPerOpLocality(cores []int, cluster int, pred Prediction) float64 {
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
	return staticNJ + e.LocalOpNJ/pred.SuccessRate
}
