package machine

import (
	"encoding/json"
	"fmt"

	"atomicsmodel/internal/speckit"
	"atomicsmodel/internal/topology"
)

// Spec is the declarative, serializable description of a machine: pure
// data — layout, frequency, cycle-denominated latency and occupancy
// tables, an energy table, a topology named from the builder registry
// (internal/topology), and a core→node map rule. Build turns a Spec
// into a validated *Machine; nothing else in the repo constructs
// machines, so a JSON spec file is a first-class machine definition
// with exactly the powers of a built-in preset.
//
// All timing constants are in cycles at FreqGHz (the form the
// calibration literature reports them in); Build converts them with
// Machine.Cycles, so a spec is frequency-portable: change FreqGHz and
// every latency rescales with it.
type Spec struct {
	// Name identifies the machine in tables, logs and -machines flags.
	Name string `json:"name"`
	// Doc is a one-line description for listings (optional).
	Doc string `json:"doc,omitempty"`
	// Aliases are additional ByName lookup keys (matched
	// case-insensitively, like Name itself).
	Aliases []string `json:"aliases,omitempty"`

	Sockets        int     `json:"sockets"`
	CoresPerSocket int     `json:"coresPerSocket"`
	ThreadsPerCore int     `json:"threadsPerCore"`
	FreqGHz        float64 `json:"freqGHz"`

	// Topology selects an interconnect from the topology builder
	// registry by kind and integer parameters.
	Topology TopoSpec `json:"topology"`
	// NodeMap is the core→topology-node rule.
	NodeMap NodeMapSpec `json:"nodeMap"`

	// LatencyCycles is the full timing table, in cycles at FreqGHz.
	LatencyCycles LatencyCycles `json:"latencyCycles"`
	// Energy is the per-event energy / static power table.
	Energy Energies `json:"energy"`

	// ForwardSharer enables MESIF-style sharer forwarding (ablation
	// knob; the presets ship with plain MESI).
	ForwardSharer bool `json:"forwardSharer,omitempty"`
	// LinkOccupancyCycles enables finite interconnect bandwidth: each
	// coherence message holds every link it crosses for this many
	// cycles. Zero means infinite bandwidth.
	LinkOccupancyCycles float64 `json:"linkOccupancyCycles,omitempty"`
	// StoreBufferDepth enables TSO store buffering (0 = synchronous
	// stores; the ablation uses the Haswell-class 42).
	StoreBufferDepth int `json:"storeBufferDepth,omitempty"`
}

// TopoSpec names a topology builder and its parameters (see
// topology.Build; booleans are 0/1).
type TopoSpec struct {
	Kind   string          `json:"kind"`
	Params topology.Params `json:"params,omitempty"`
}

// NodeMapSpec is the declarative core→node rule. Kinds:
//
//	"identity" — node i is core i (one network stop per core); the
//	             default when Kind is empty.
//	"div"      — node is core / Div (Div cores share a stop: KNL's
//	             2-core tiles, an EPYC CCD's 8 cores on one leaf).
type NodeMapSpec struct {
	Kind string `json:"kind,omitempty"`
	Div  int    `json:"div,omitempty"`
}

// LatencyCycles mirrors Latencies field-for-field, denominated in
// cycles at the spec's FreqGHz (see Latencies for what each constant
// means).
type LatencyCycles struct {
	L1Hit              float64 `json:"l1Hit"`
	DirLookup          float64 `json:"dirLookup"`
	HopLatency         float64 `json:"hopLatency"`
	CrossSocketPenalty float64 `json:"crossSocketPenalty"`
	LLCHit             float64 `json:"llcHit"`
	DRAM               float64 `json:"dram"`
	InvalidateCost     float64 `json:"invalidateCost"`

	ExecCAS   float64 `json:"execCAS"`
	ExecFAA   float64 `json:"execFAA"`
	ExecSWAP  float64 `json:"execSWAP"`
	ExecTAS   float64 `json:"execTAS"`
	ExecCAS2  float64 `json:"execCAS2"`
	ExecFence float64 `json:"execFence"`
	ExecLoad  float64 `json:"execLoad"`
	ExecStore float64 `json:"execStore"`
}

// Clone returns a deep copy; callers derive variant machines (a socket
// sweep, a tweaked constant) by cloning a preset's spec and rebuilding.
func (s *Spec) Clone() *Spec {
	out := *s
	out.Aliases = append([]string(nil), s.Aliases...)
	out.Topology.Params = s.Topology.Params.Clone()
	return &out
}

// Canonical returns the spec's canonical JSON encoding — fixed field
// order, sorted parameter keys, no insignificant whitespace — the bytes
// the digest is computed over. Two specs that build identical machines
// canonicalize identically regardless of the formatting (or key order)
// of the files they were loaded from.
func (s *Spec) Canonical() ([]byte, error) {
	return json.Marshal(s)
}

// Digest returns a short hex digest of the canonical encoding. It is
// the machine's identity in harness cell cache keys (Machine.Key): a
// custom spec file that shadows a preset's name — or a tweaked spec
// resuming over its previous self — lands in its own cache namespace.
func (s *Spec) Digest() (string, error) { return speckit.Digest(s) }

// ParseSpec decodes a JSON machine spec strictly (speckit.Strict).
// Validity is Build's job.
func ParseSpec(data []byte) (*Spec, error) {
	return speckit.Strict[Spec]("machine spec", data)
}

// LoadSpecFile reads, parses, validates and builds a machine from a
// JSON spec file (the CLIs' -machinefile path).
func LoadSpecFile(path string) (*Machine, error) {
	return speckit.LoadFile("machine spec", path, func(raw []byte) (*Machine, error) {
		s, err := ParseSpec(raw)
		if err != nil {
			return nil, err
		}
		return s.Build()
	})
}

// Validate reports whether the spec builds: the same checks as Build,
// without keeping the machine.
func (s *Spec) Validate() error {
	_, err := s.Build()
	return err
}

// Build turns the spec into a validated *Machine: the topology is
// constructed from the builder registry, cycle counts become simulated
// times at FreqGHz, the node map rule becomes the core→node function,
// and the result carries the spec's digest as its cache identity.
// Build never returns a machine that fails Machine.Validate.
func (s *Spec) Build() (*Machine, error) {
	if s.Name == "" {
		return nil, fmt.Errorf("machine spec: empty name")
	}
	if s.FreqGHz <= 0 {
		return nil, fmt.Errorf("machine %s: freqGHz = %g (want > 0)", s.Name, s.FreqGHz)
	}
	// Bound the layout before Validate walks every core: specs are user
	// input, and a simulated machine beyond this size is a typo, not a
	// plan.
	const maxHWThreads = 1 << 16
	for _, dim := range []struct {
		name string
		v    int
	}{{"sockets", s.Sockets}, {"coresPerSocket", s.CoresPerSocket}, {"threadsPerCore", s.ThreadsPerCore}} {
		if dim.v <= 0 || dim.v > maxHWThreads {
			return nil, fmt.Errorf("machine %s: %s = %d (want 1..%d)", s.Name, dim.name, dim.v, maxHWThreads)
		}
	}
	if total := int64(s.Sockets) * int64(s.CoresPerSocket) * int64(s.ThreadsPerCore); total > maxHWThreads {
		return nil, fmt.Errorf("machine %s: %d hardware threads (max %d)", s.Name, total, maxHWThreads)
	}
	topo, err := topology.Build(s.Topology.Kind, s.Topology.Params)
	if err != nil {
		return nil, fmt.Errorf("machine %s: %w", s.Name, err)
	}
	digest, err := s.Digest()
	if err != nil {
		return nil, fmt.Errorf("machine %s: %w", s.Name, err)
	}
	m := &Machine{
		Name:             s.Name,
		Sockets:          s.Sockets,
		CoresPerSocket:   s.CoresPerSocket,
		ThreadsPerCore:   s.ThreadsPerCore,
		FreqGHz:          s.FreqGHz,
		Topo:             topo,
		ForwardSharer:    s.ForwardSharer,
		StoreBufferDepth: s.StoreBufferDepth,
		digest:           digest,
	}
	switch s.NodeMap.Kind {
	case "", "identity":
		m.nodeOf = func(core int) int { return core }
	case "div":
		div := s.NodeMap.Div
		if div <= 0 {
			return nil, fmt.Errorf("machine %s: nodeMap div = %d (want > 0)", s.Name, div)
		}
		m.nodeOf = func(core int) int { return core / div }
	default:
		return nil, fmt.Errorf("machine %s: unknown nodeMap kind %q (want identity or div)", s.Name, s.NodeMap.Kind)
	}
	lc := s.LatencyCycles
	m.Lat = Latencies{
		L1Hit:              m.Cycles(lc.L1Hit),
		DirLookup:          m.Cycles(lc.DirLookup),
		HopLatency:         m.Cycles(lc.HopLatency),
		CrossSocketPenalty: m.Cycles(lc.CrossSocketPenalty),
		LLCHit:             m.Cycles(lc.LLCHit),
		DRAM:               m.Cycles(lc.DRAM),
		InvalidateCost:     m.Cycles(lc.InvalidateCost),
		ExecCAS:            m.Cycles(lc.ExecCAS),
		ExecFAA:            m.Cycles(lc.ExecFAA),
		ExecSWAP:           m.Cycles(lc.ExecSWAP),
		ExecTAS:            m.Cycles(lc.ExecTAS),
		ExecCAS2:           m.Cycles(lc.ExecCAS2),
		ExecFence:          m.Cycles(lc.ExecFence),
		ExecLoad:           m.Cycles(lc.ExecLoad),
		ExecStore:          m.Cycles(lc.ExecStore),
	}
	m.Energy = s.Energy
	m.LinkOccupancy = m.Cycles(s.LinkOccupancyCycles)
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}
