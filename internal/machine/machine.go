// Package machine describes simulated architectures as parameter
// tables for the coherence simulator: core/socket/SMT layout,
// interconnect topology, latency constants, per-primitive execution
// costs, and a power/energy table.
//
// Machines are declarative: every built-in — the paper's two-socket
// Intel Xeon E5 and Intel Xeon Phi (Knights Landing), plus an
// EPYC-like chiplet part and a mesh-uncore Xeon Scalable — is a JSON
// Spec embedded in this package (specs/*.json) and built by
// Spec.Build, the single constructor. A user-supplied spec file
// (LoadSpecFile, the CLIs' -machinefile flag) is a first-class machine
// with exactly the powers of a preset. ByName resolves presets from
// the registry; a Machine carries its spec's digest (Key) so harness
// resume caches distinguish machines by content, not by name.
//
// The preset latency constants are calibrated against publicly
// reported numbers for the real parts (L1 ≈ 4 cycles; Xeon
// same-socket cache-to-cache ≈ 25 ns, cross-socket ≈ 90–130 ns; KNL
// tile-to-tile ≈ 100–150 ns; locked RMW ≈ 20 cycles on an owned line
// on Xeon, considerably slower on KNL). The reproduction targets the
// *shape* of the paper's results; DESIGN.md records this substitution.
//
// In the model pipeline (ARCHITECTURE.md) these tables are the single
// source of truth both consumers read: CoherenceParams configures the
// simulator, and the same constants parameterize the analytical model
// (internal/core). ARCHITECTURE.md, "How do I add a new machine",
// covers writing a spec.
package machine

import (
	"fmt"
	"sync"

	"atomicsmodel/internal/coherence"
	"atomicsmodel/internal/sim"
	"atomicsmodel/internal/topology"
)

// Latencies is the timing table the coherence simulator consumes, plus
// per-primitive execution occupancies.
type Latencies struct {
	L1Hit              sim.Time
	DirLookup          sim.Time
	HopLatency         sim.Time
	CrossSocketPenalty sim.Time
	LLCHit             sim.Time
	DRAM               sim.Time
	InvalidateCost     sim.Time

	// Execution occupancy: how long the instruction holds the line at
	// its serialization point once the data has arrived. This is what
	// differentiates the primitives on an owned line.
	ExecCAS   sim.Time
	ExecFAA   sim.Time
	ExecSWAP  sim.Time
	ExecTAS   sim.Time
	ExecCAS2  sim.Time
	ExecFence sim.Time
	ExecLoad  sim.Time
	ExecStore sim.Time
}

// Energies is the per-access energy table (nanojoules) plus static power
// (watts) that internal/energy prices a run with. Only relative
// magnitudes matter for reproducing the paper's energy figures.
// The JSON tags are the field names machine spec files use.
type Energies struct {
	// StaticWattsPerCore models leakage and uncore power amortized per
	// active core; it accrues for every placed thread's core over the
	// whole run.
	StaticWattsPerCore float64 `json:"staticWattsPerCore"`
	// ActiveWattsPerThread accrues while a thread exists (spinning
	// threads burn power even when making no progress — the effect
	// behind rising J/op under contention).
	ActiveWattsPerThread float64 `json:"activeWattsPerThread"`
	// Dynamic per-event energies in nanojoules.
	LocalOpNJ     float64 `json:"localOpNJ"`
	PerHopNJ      float64 `json:"perHopNJ"`
	CrossSocketNJ float64 `json:"crossSocketNJ"`
	LLCNJ         float64 `json:"llcNJ"`
	DRAMNJ        float64 `json:"dramNJ"`
}

// Machine is a complete description of a simulated platform.
type Machine struct {
	Name           string
	Sockets        int
	CoresPerSocket int
	ThreadsPerCore int
	FreqGHz        float64
	Topo           topology.Topology
	// nodeOf maps a core index to its topology node.
	nodeOf func(core int) int
	Lat    Latencies
	Energy Energies
	// ForwardSharer enables MESIF-style sharer forwarding in the
	// coherence protocol (an ablation knob; both machine presets ship
	// with it off so the baseline protocol is plain MESI).
	ForwardSharer bool
	// LinkOccupancy enables finite interconnect bandwidth: each
	// coherence message holds every link it crosses for this long.
	// Zero (the presets' default) means infinite bandwidth; the
	// bandwidth ablation experiments set it to a fraction of the hop
	// latency (a 64-byte line at ~32 B/cycle occupies a link for about
	// two cycles).
	LinkOccupancy sim.Time
	// StoreBufferDepth enables TSO store buffering: plain stores retire
	// locally in ~1 cycle and drain asynchronously; fences and locked
	// RMWs wait for the drain. Zero (the presets' default) keeps
	// synchronous stores; the store-buffer ablation sets the Haswell-
	// class depth of 42.
	StoreBufferDepth int
	// digest is the short content digest of the Spec this machine was
	// built from (empty for hand-assembled machines in tests and
	// ablations). It is the content half of Key.
	digest string
	// pairs holds Topo's node-pair table once NodePairs has built it.
	// Copies of the machine share it, so T3's perturbed copies, which
	// keep Topo, reuse the table their base built.
	pairs *nodePairs
}

// nodePairs is the node-pair table of one topology value, built on
// first use.
type nodePairs struct {
	once  sync.Once
	topo  topology.Topology
	table *topology.PairTable
}

// NodePairs returns the node-pair table of m.Topo: every node pair's
// hop count and cross-socket flag. A machine from Spec.Build builds it
// once, on first use, and shares it with its copies; concurrent callers
// wait for that one build. A machine assembled by hand, or a copy
// whose Topo was replaced, gets a new table on each call.
func (m *Machine) NodePairs() *topology.PairTable {
	p := m.pairs
	if p == nil || p.topo != m.Topo {
		return topology.NewPairTable(m.Topo)
	}
	p.once.Do(func() { p.table = topology.NewPairTable(p.topo) })
	return p.table
}

// SpecDigest returns the content digest of the spec this machine was
// built from, or "" for a machine assembled by hand rather than by
// Spec.Build.
func (m *Machine) SpecDigest() string { return m.digest }

// Key returns the machine's cache identity, "Name@digest" for
// spec-built machines and plain Name otherwise. Harness cell cache
// keys use Key instead of Name so a custom spec that reuses a preset's
// name — or a spec edited between a crash and its resume — occupies
// its own cache namespace instead of replaying the other machine's
// cells.
func (m *Machine) Key() string {
	if m.digest == "" {
		return m.Name
	}
	return m.Name + "@" + m.digest
}

// Validate rejects structurally broken machine descriptions before they
// reach the simulator, where a zero core count or a negative latency
// would surface as a confusing panic (or worse, a silently wrong table)
// deep inside a run. ByName and the workload/apps entry points call it,
// so hand-built Machines in tests and ablations get the same screening
// as the presets.
func (m *Machine) Validate() error {
	switch {
	case m.Sockets <= 0:
		return fmt.Errorf("machine %s: Sockets = %d (want > 0)", m.Name, m.Sockets)
	case m.CoresPerSocket <= 0:
		return fmt.Errorf("machine %s: CoresPerSocket = %d (want > 0)", m.Name, m.CoresPerSocket)
	case m.ThreadsPerCore <= 0:
		return fmt.Errorf("machine %s: ThreadsPerCore = %d (want > 0)", m.Name, m.ThreadsPerCore)
	case m.FreqGHz <= 0:
		return fmt.Errorf("machine %s: FreqGHz = %g (want > 0)", m.Name, m.FreqGHz)
	case m.Topo == nil:
		return fmt.Errorf("machine %s: Topo is nil", m.Name)
	case m.nodeOf == nil:
		return fmt.Errorf("machine %s: node mapping is nil", m.Name)
	case m.LinkOccupancy < 0:
		return fmt.Errorf("machine %s: LinkOccupancy = %v (want >= 0)", m.Name, m.LinkOccupancy)
	case m.StoreBufferDepth < 0:
		return fmt.Errorf("machine %s: StoreBufferDepth = %d (want >= 0)", m.Name, m.StoreBufferDepth)
	}
	// Zero latencies are legitimate (ExecLoad, or CrossSocketPenalty on a
	// single-socket part); negative ones would run the simulated clock
	// backwards.
	lat := []struct {
		name string
		v    sim.Time
	}{
		{"L1Hit", m.Lat.L1Hit}, {"DirLookup", m.Lat.DirLookup},
		{"HopLatency", m.Lat.HopLatency}, {"CrossSocketPenalty", m.Lat.CrossSocketPenalty},
		{"LLCHit", m.Lat.LLCHit}, {"DRAM", m.Lat.DRAM},
		{"InvalidateCost", m.Lat.InvalidateCost},
		{"ExecCAS", m.Lat.ExecCAS}, {"ExecFAA", m.Lat.ExecFAA},
		{"ExecSWAP", m.Lat.ExecSWAP}, {"ExecTAS", m.Lat.ExecTAS},
		{"ExecCAS2", m.Lat.ExecCAS2}, {"ExecFence", m.Lat.ExecFence},
		{"ExecLoad", m.Lat.ExecLoad}, {"ExecStore", m.Lat.ExecStore},
	}
	for _, l := range lat {
		if l.v < 0 {
			return fmt.Errorf("machine %s: latency %s = %v (want >= 0)", m.Name, l.name, l.v)
		}
	}
	// Every core must map to a real topology node, or hop computations
	// will index out of range mid-run.
	nodes := m.Topo.Nodes()
	for core := 0; core < m.NumCores(); core++ {
		if n := m.nodeOf(core); n < 0 || n >= nodes {
			return fmt.Errorf("machine %s: core %d maps to node %d outside [0,%d)", m.Name, core, n, nodes)
		}
	}
	return nil
}

// NumCores returns the number of physical cores.
func (m *Machine) NumCores() int { return m.Sockets * m.CoresPerSocket }

// NumHWThreads returns the number of hardware thread slots.
func (m *Machine) NumHWThreads() int { return m.NumCores() * m.ThreadsPerCore }

// CoreOf maps a hardware-thread slot to its physical core. Slots are
// enumerated the way Linux numbers them on these parts: slot t in
// [0, cores) is the first hyperthread of core t, [cores, 2*cores) the
// second, and so on.
func (m *Machine) CoreOf(hw int) int {
	if hw < 0 || hw >= m.NumHWThreads() {
		panic(fmt.Sprintf("machine %s: hw thread %d out of range [0,%d)", m.Name, hw, m.NumHWThreads()))
	}
	return hw % m.NumCores()
}

// SocketOf maps a physical core to its socket.
func (m *Machine) SocketOf(core int) int { return core / m.CoresPerSocket }

// NodeOf maps a physical core to its topology node.
func (m *Machine) NodeOf(core int) int { return m.nodeOf(core) }

// Cycles converts a cycle count at this machine's frequency to Time.
func (m *Machine) Cycles(n float64) sim.Time {
	return sim.Time(n * 1000 / m.FreqGHz) // ps = cycles * (1000 ps/ns) / GHz
}

// CoherenceParams assembles the coherence.Params for this machine.
func (m *Machine) CoherenceParams() coherence.Params {
	var pairs *topology.PairTable
	if m.Topo != nil {
		pairs = m.NodePairs()
	}
	return coherence.Params{
		Pairs:              pairs,
		NumCores:           m.NumCores(),
		Topo:               m.Topo,
		NodeOf:             m.nodeOf,
		L1Hit:              m.Lat.L1Hit,
		DirLookup:          m.Lat.DirLookup,
		HopLatency:         m.Lat.HopLatency,
		CrossSocketPenalty: m.Lat.CrossSocketPenalty,
		LLCHit:             m.Lat.LLCHit,
		DRAM:               m.Lat.DRAM,
		InvalidateCost:     m.Lat.InvalidateCost,
		ForwardSharer:      m.ForwardSharer,
		LinkOccupancy:      m.LinkOccupancy,
	}
}

// String summarizes the machine for table headers.
func (m *Machine) String() string {
	return fmt.Sprintf("%s (%d×%d cores ×%d SMT @ %.1f GHz, %s)",
		m.Name, m.Sockets, m.CoresPerSocket, m.ThreadsPerCore, m.FreqGHz, m.Topo.Name())
}

// The built-in machines live as embedded JSON specs in specs/*.json;
// registry.go resolves them (ByName, All, Names) and provides the
// preset accessors (XeonE5, KNL, XeonMultiSocket, Ideal).
