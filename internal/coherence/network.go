package coherence

import (
	"atomicsmodel/internal/metrics"
	"atomicsmodel/internal/sim"
	"atomicsmodel/internal/topology"
)

// network models finite interconnect bandwidth. When enabled (the
// params' LinkOccupancy > 0 and the topology is a topology.Router),
// every coherence message reserves each link it crosses for
// LinkOccupancy — so a storm on one line delays traffic on every line
// sharing those links, the cross-line interference infinite-bandwidth
// simulation misses.
type network struct {
	router    *topology.DenseRouter
	occupancy sim.Time
	// linkTime[l] is the transit time across link l (hop latency times
	// the link's transit weight), precomputed so the per-message loop is
	// pure table reads.
	linkTime []sim.Time
	// free[l] is the instant link l next becomes available.
	free []sim.Time
	// stalled accumulates total time messages waited for busy links.
	stalled sim.Time
	// mOccLink, when metrics are installed, accumulates per-link busy
	// time: each message's reservation adds occupancy to every link it
	// crosses. Nil-safe, so the hot loop needs no metrics branch.
	mOccLink *metrics.Vector
}

// newNetwork returns nil when bandwidth modeling is off (zero occupancy
// or a topology that cannot enumerate links).
func newNetwork(p *Params) *network {
	if p.LinkOccupancy <= 0 {
		return nil
	}
	r, ok := p.Topo.(topology.Router)
	if !ok {
		return nil
	}
	dr := topology.NewDenseRouter(r)
	linkTime := make([]sim.Time, dr.Links())
	for l := range linkTime {
		linkTime[l] = p.HopLatency * sim.Time(dr.LinkTransit(l))
	}
	return &network{
		router:    dr,
		occupancy: p.LinkOccupancy,
		linkTime:  linkTime,
		free:      make([]sim.Time, dr.Links()),
	}
}

// transit sends one message from node a to node b starting at time at;
// it reserves each link in order and returns the transit delay (arrival
// minus at). With no contention the delay is Hops(a,b)*HopLatency,
// identical to the closed-form cost. The link sequence is an interned
// read-only path from the dense router — no per-message allocation.
func (nw *network) transit(at sim.Time, a, b int) sim.Time {
	t := at
	for _, l := range nw.router.Path(a, b) {
		start := t
		if nw.free[l] > start {
			nw.stalled += nw.free[l] - start
			start = nw.free[l]
		}
		nw.free[l] = start + nw.occupancy
		nw.mOccLink.Add(l, uint64(nw.occupancy))
		t = start + nw.linkTime[l]
	}
	return t - at
}

// Stalled reports the cumulative time messages spent waiting for links.
func (nw *network) Stalled() sim.Time { return nw.stalled }

// Reset clears all link reservations and the stall accumulator so a
// pooled system starts its next cell with an idle interconnect.
func (nw *network) Reset() {
	for l := range nw.free {
		nw.free[l] = 0
	}
	nw.stalled = 0
	nw.mOccLink = nil
}
