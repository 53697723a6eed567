// Package bottleneck rolls a metrics snapshot up into per-resource
// utilization figures and an automatic saturation verdict. The inputs
// are the duration-weighted occupancy accumulators the coherence and
// event layers record under metrics (coh.occ.dir_busy_ps,
// coh.occ.line_busy_ps, coh.occ.link_busy_ps, sim.queue_time_ps) and
// the measured-window length (work.window_ps); the output names which
// resource — a directory/LLC slice, a cache line's serialization
// point, or an interconnect link — is closest to saturation, and, over
// a thread ladder, the knee thread count where it first crosses a
// threshold. This is the measured mirror of MODEL.md's analytical
// occupancy bound: the model predicts max_j occ_j from the workload
// mix, this package reads it back out of a simulated cell.
package bottleneck

import (
	"errors"

	"atomicsmodel/internal/metrics"
)

// DefaultThreshold is the utilization at which a resource counts as
// saturating for knee detection. 0.9 rather than 1.0 because a
// serialization point pinned above 90% busy already sets throughput;
// the last few percent are arrival-jitter noise.
const DefaultThreshold = 0.9

// Utilization is one resource class's rollup: the busiest instance of
// the class (the max over the vector, since the hottest instance — not
// the average — is what bounds throughput) and its busy-fraction of
// the measured window. OK is false when the cell recorded no vector
// for the class (a snapshot whose memory system installed no occupancy
// vectors); such resources render as "n/a" and are skipped by Verdict.
type Utilization struct {
	Resource string  // "dir", "line", or "link"
	Busiest  int     // index of the busiest instance within its vector
	BusyPS   uint64  // busy picoseconds of that instance
	Util     float64 // BusyPS / window, clamped to [0, 1]
	OK       bool    // vector present in the snapshot
}

// Report is the full per-cell rollup.
type Report struct {
	WindowPS uint64 // measured-window length (work.window_ps)
	Dir      Utilization
	Line     Utilization
	Link     Utilization
	// QueueAvg is the mean number of outstanding events over the window
	// (sim.queue_time_ps / window). Not a utilization — it has no unit
	// ceiling — but engine pressure corroborating a saturated resource.
	QueueAvg float64
}

// Verdict names the resource closest to saturation.
type Verdict struct {
	Resource  string
	Util      float64
	Saturated bool // Util >= the threshold passed to Report.Verdict
}

// Analyze rolls a cell's metrics snapshot into a Report. The snapshot
// must carry work.window_ps (any workload-layer run with metrics on
// records it); occupancy vectors are optional and degrade to OK=false.
func Analyze(snap *metrics.Snapshot) (*Report, error) {
	if snap == nil {
		return nil, errors.New("bottleneck: nil snapshot")
	}
	window, ok := snap.Counter(metrics.WorkWindow)
	if !ok || window == 0 {
		return nil, errors.New("bottleneck: snapshot has no work.window_ps — was the cell run with metrics enabled through the workload layer?")
	}
	r := &Report{WindowPS: window}
	r.Dir = rollVector(snap, metrics.CohDirBusy, "dir", window)
	r.Line = rollVector(snap, metrics.CohLineBusy, "line", window)
	r.Link = rollVector(snap, metrics.CohLinkBusy, "link", window)
	if qt, ok := snap.Counter(metrics.SimQueueTime); ok {
		r.QueueAvg = float64(qt) / float64(window)
	}
	return r, nil
}

// rollVector finds the busiest instance of one resource class. Busy
// time is accrued at grant/reservation instants, so a transfer granted
// near the window's end can push an instance slightly past the window;
// utilization is clamped to [0, 1] to keep it a fraction.
func rollVector(snap *metrics.Snapshot, name, resource string, window uint64) Utilization {
	v := snap.Vector(name)
	if v == nil {
		return Utilization{Resource: resource}
	}
	u := Utilization{Resource: resource, OK: true}
	for i, busy := range v {
		if busy > u.BusyPS {
			u.Busiest, u.BusyPS = i, busy
		}
	}
	u.Util = float64(u.BusyPS) / float64(window)
	if u.Util > 1 {
		u.Util = 1
	}
	return u
}

// Verdict returns the resource with the highest utilization among
// those present, and whether it exceeds the threshold (<= 0 means
// DefaultThreshold).
func (r *Report) Verdict(threshold float64) Verdict {
	if threshold <= 0 {
		threshold = DefaultThreshold
	}
	v := Verdict{Resource: "none"}
	for _, u := range []Utilization{r.Dir, r.Line, r.Link} {
		if u.OK && (v.Resource == "none" || u.Util > v.Util) {
			v.Resource, v.Util = u.Resource, u.Util
		}
	}
	v.Saturated = v.Resource != "none" && v.Util >= threshold
	return v
}

// Point pairs one thread-ladder cell with its rollup.
type Point struct {
	Threads int
	Report  *Report
}

// Knee scans a ladder (in the given order, normally ascending thread
// counts) for the first point whose most-utilized resource crosses the
// threshold. It returns that point's thread count plus the saturating
// resource and its utilization there, or threads == 0 if no point on
// the ladder saturates.
func Knee(points []Point, threshold float64) (threads int, resource string, util float64) {
	for _, p := range points {
		if p.Report == nil {
			continue
		}
		if v := p.Report.Verdict(threshold); v.Saturated {
			return p.Threads, v.Resource, v.Util
		}
	}
	return 0, "", 0
}
