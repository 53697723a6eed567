// Package energy models the power and energy accounting the paper does
// with RAPL counters. The meter subscribes to coherence trace events and
// charges a per-event dynamic energy by provenance (local hit, remote
// transfer per hop, cross-socket, LLC, DRAM), then adds static power
// integrated over the run for every active core and thread. Absolute
// joules are synthetic; the reproduced quantity is the *shape* of
// energy-per-operation versus thread count and contention level.
//
// In the model pipeline (ARCHITECTURE.md) the meter is an observer:
// it subscribes to coherence trace events the same way internal/trace
// does, and internal/workload resets it at the warmup boundary so the
// reading covers the measured window. MODEL.md §5 states the
// analytical counterpart the F6 experiment compares against.
package energy

import (
	"fmt"

	"atomicsmodel/internal/coherence"
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/sim"
)

// Meter accumulates dynamic energy from coherence events. Install
// Observe as the coherence system's tracer.
//
// The meter keeps no running float sum. It counts events per
// provenance class — source × hops × cross-socket, the three fields
// the charge depends on — and DynamicNJ sums count × charge over the
// classes in one fixed order. Two runs that observe the same events in
// any order therefore report bit-identical energy, and the
// fast-forward layer credits k elided cycles with one integer add per
// access of the recorded cycle (Replay), whatever k is.
type Meter struct {
	m      *machine.Machine
	counts []uint64  // events per class, indexed by Class
	nj     []float64 // the charge of each class
	events uint64
}

// numSources is the number of coherence.Source values a class splits.
const numSources = int(coherence.SrcDRAM) + 1

// NewMeter returns a meter for machine m, with a class for every hop
// count an access on m can travel: a transaction crosses at most three
// legs (requester → home → owner → requester), each at most the
// topology's diameter. Observe grows the table for anything longer, so
// a meter fed hand-built events stays correct too.
func NewMeter(m *machine.Machine) *Meter {
	mt := &Meter{m: m}
	diam := 0
	for a := 0; a < m.Topo.Nodes(); a++ {
		for b := 0; b < m.Topo.Nodes(); b++ {
			diam = max(diam, m.Topo.Hops(a, b))
		}
	}
	mt.grow(classOf(coherence.SrcDRAM, 3*diam, true))
	return mt
}

// classOf is the class index of an access: hops outermost, so growing
// the table for a longer path appends classes without renumbering.
func classOf(src coherence.Source, hops int, cross bool) int {
	c := (hops*numSources + int(src)) * 2
	if cross {
		c++
	}
	return c
}

// grow extends the class table to cover class index c.
func (mt *Meter) grow(c int) {
	e := &mt.m.Energy
	for i := len(mt.counts); i <= c; i++ {
		cross := i%2 == 1
		src := coherence.Source(i / 2 % numSources)
		hops := float64(i / 2 / numSources)
		var nj float64
		switch src {
		case coherence.SrcLocal:
			nj = e.LocalOpNJ
		case coherence.SrcRemoteCache:
			nj = e.LocalOpNJ + hops*e.PerHopNJ
			if cross {
				nj += e.CrossSocketNJ
			}
		case coherence.SrcLLC:
			nj = e.LLCNJ + hops*e.PerHopNJ
		case coherence.SrcDRAM:
			nj = e.DRAMNJ + hops*e.PerHopNJ
		}
		mt.counts = append(mt.counts, 0)
		mt.nj = append(mt.nj, nj)
	}
}

// Class returns the provenance class of one coherence access, the
// index Replay takes.
func (mt *Meter) Class(ev coherence.TraceEvent) int {
	return classOf(ev.Result.Source, ev.Result.Hops, ev.Result.CrossSocket)
}

// Observe charges the dynamic energy of one coherence access. It is
// shaped to be used directly: sys.SetTracer(meter.Observe).
func (mt *Meter) Observe(ev coherence.TraceEvent) {
	c := mt.Class(ev)
	if c >= len(mt.counts) {
		mt.grow(c)
	}
	mt.counts[c]++
	mt.events++
}

// Replay credits k repetitions of the accesses whose classes are cls —
// the fast-forward hook for elided steady-state cycles. Counts add
// exactly, so the result is bit-identical to observing the accesses k
// times, at a cost independent of k.
func (mt *Meter) Replay(cls []int, k uint64) {
	for _, c := range cls {
		mt.counts[c] += k
	}
	mt.events += k * uint64(len(cls))
}

// DynamicNJ returns the accumulated dynamic energy in nanojoules: each
// class's count times its charge, summed in class order.
func (mt *Meter) DynamicNJ() float64 {
	sum := 0.0
	for c, n := range mt.counts {
		if n != 0 {
			sum += float64(n) * mt.nj[c]
		}
	}
	return sum
}

// Events returns the number of observed accesses.
func (mt *Meter) Events() uint64 { return mt.events }

// Reset clears the meter between experiment repetitions, keeping its
// class table.
func (mt *Meter) Reset() {
	clear(mt.counts)
	mt.events = 0
}

// Report summarizes a run's energy.
type Report struct {
	// StaticJ is leakage/uncore energy for the cores hosting threads.
	StaticJ float64
	// ActiveJ is the busy-thread energy (spinning threads burn this
	// without making progress).
	ActiveJ float64
	// DynamicJ is the event-charged communication/computation energy.
	DynamicJ float64
	// TotalJ is the sum.
	TotalJ float64
	// PerOpNJ is TotalJ per completed operation, in nanojoules — the
	// paper's headline energy metric.
	PerOpNJ float64
	// AvgPowerW is TotalJ over the run duration.
	AvgPowerW float64
}

// Report computes the energy report for a run of the given duration
// with the given number of placed threads (on coresUsed distinct
// cores) that completed ops operations.
func (mt *Meter) Report(duration sim.Time, threads, coresUsed int, ops uint64) Report {
	secs := duration.Seconds()
	r := Report{
		StaticJ:  mt.m.Energy.StaticWattsPerCore * float64(coresUsed) * secs,
		ActiveJ:  mt.m.Energy.ActiveWattsPerThread * float64(threads) * secs,
		DynamicJ: mt.DynamicNJ() * 1e-9,
	}
	r.TotalJ = r.StaticJ + r.ActiveJ + r.DynamicJ
	if ops > 0 {
		r.PerOpNJ = r.TotalJ * 1e9 / float64(ops)
	}
	if secs > 0 {
		r.AvgPowerW = r.TotalJ / secs
	}
	return r
}

// String renders the report compactly.
func (r Report) String() string {
	return fmt.Sprintf("total=%.3gJ (static %.3g, active %.3g, dynamic %.3g) %.1f nJ/op %.1f W",
		r.TotalJ, r.StaticJ, r.ActiveJ, r.DynamicJ, r.PerOpNJ, r.AvgPowerW)
}
