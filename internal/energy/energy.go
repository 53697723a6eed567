// Package energy models the power and energy accounting the paper does
// with RAPL counters. It prices the coherence layer's access ledger: a
// dynamic charge per access by provenance class (local hit, remote
// transfer per hop, cross-socket, LLC, DRAM), then static power
// integrated over the run for every active core and thread. Absolute
// joules are synthetic; the reproduced quantity is the *shape* of
// energy-per-operation versus thread count and contention level.
//
// In the model pipeline (ARCHITECTURE.md) energy is a reading, not an
// observer: internal/coherence counts each completed access once per
// class, internal/workload takes the ledger at the warmup boundary and
// again when the measured window closes, and NewReport prices the
// difference. MODEL.md §5 states the analytical counterpart the F6
// experiment compares against, and its per-pair charge (internal/core)
// is ChargeNJ too.
package energy

import (
	"fmt"

	"atomicsmodel/internal/coherence"
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/sim"
)

// ChargeNJ is the dynamic energy, in nanojoules, of one access of
// provenance class c (coherence.ClassOf) on a machine with energy
// table e: a local hit costs LocalOpNJ; a transfer from another cache
// adds PerHopNJ per hop and, across sockets, CrossSocketNJ; LLC and
// DRAM fills cost LLCNJ or DRAMNJ plus their hops.
func ChargeNJ(e *machine.Energies, c int) float64 {
	src, hops, cross := coherence.ClassFields(c)
	h := float64(hops)
	switch src {
	case coherence.SrcRemoteCache:
		nj := e.LocalOpNJ + h*e.PerHopNJ
		if cross {
			nj += e.CrossSocketNJ
		}
		return nj
	case coherence.SrcLLC:
		return e.LLCNJ + h*e.PerHopNJ
	case coherence.SrcDRAM:
		return e.DRAMNJ + h*e.PerHopNJ
	}
	return e.LocalOpNJ
}

// dynamicNJ prices the accesses a coherence ledger (coherence.System.
// Classes) counted since base, an earlier copy of it: each class's
// count delta times its charge, summed in class order. The sum depends
// only on the counts, so two runs whose accesses complete in any order
// report bit-identical energy.
func dynamicNJ(e *machine.Energies, classes, base []uint64) float64 {
	sum := 0.0
	for c, n := range classes {
		if n -= base[c]; n != 0 {
			sum += float64(n) * ChargeNJ(e, c)
		}
	}
	return sum
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

// NewReport computes the energy report of a window on machine m in
// which the ledger went from base to classes, with the given number of
// placed threads (on coresUsed distinct cores) completing ops
// operations over duration.
func NewReport(m *machine.Machine, classes, base []uint64, duration sim.Time, threads, coresUsed int, ops uint64) Report {
	secs := duration.Seconds()
	r := Report{
		StaticJ:  m.Energy.StaticWattsPerCore * float64(coresUsed) * secs,
		ActiveJ:  m.Energy.ActiveWattsPerThread * float64(threads) * secs,
		DynamicJ: dynamicNJ(&m.Energy, classes, base) * 1e-9,
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
