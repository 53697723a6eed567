package coherence

import (
	"atomicsmodel/internal/metrics"
	"atomicsmodel/internal/sim"
)

// network models finite interconnect bandwidth. When enabled (the
// params' LinkOccupancy > 0), every coherence message reserves each
// link of its route (the topology's Path) for LinkOccupancy — so a
// storm on one line delays traffic on every line sharing those links,
// the cross-line interference infinite-bandwidth simulation misses.
type network struct {
	// legs lists the links of every node pair's route, and the transit
	// time across each link (hop latency times its transit weight), so
	// the per-message loop is pure table reads.
	legs      *linkLegs
	occupancy sim.Time
	// free[l] is the instant link l next becomes available.
	free []sim.Time
	// stalled accumulates total time messages waited for busy links.
	stalled sim.Time
	// mOccLink, when metrics are installed, accumulates per-link busy
	// time: each message's reservation adds occupancy to every link it
	// crosses. Nil-safe, so the hot loop needs no metrics branch.
	mOccLink *metrics.Vector
}

// newNetwork models finite bandwidth over the routes legs lists, each
// message reserving every link it crosses for occupancy.
func newNetwork(legs *linkLegs, occupancy sim.Time) *network {
	return &network{legs: legs, occupancy: occupancy, free: make([]sim.Time, len(legs.busy))}
}

// transit sends one message along leg, the index of its (source,
// destination) node pair in legs, starting at time at; it reserves each
// link in order and returns the transit delay (arrival minus at). With
// no contention the delay is the pair's hops times HopLatency,
// identical to the closed-form cost.
func (nw *network) transit(at sim.Time, leg int) sim.Time {
	o := nw.legs
	t := at
	for _, l := range o.links[o.at[leg]:o.at[leg+1]] {
		start := t
		if nw.free[l] > start {
			nw.stalled += nw.free[l] - start
			start = nw.free[l]
		}
		nw.free[l] = start + nw.occupancy
		nw.mOccLink.Add(int(l), uint64(nw.occupancy))
		t = start + sim.Time(o.busy[l])
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
