package machine

import (
	"embed"
	"fmt"

	"atomicsmodel/internal/speckit"
	"atomicsmodel/internal/topology"
)

// This file is the machine registry. Every built-in machine is an
// embedded JSON spec under specs/, resolved by ByName case-insensitively
// through canonical names and declared aliases. Registering a machine
// requires zero Go code beyond the spec file: drop a JSON file in
// specs/ and it becomes selectable by name in every CLI.

//go:embed specs/*.json
var specFS embed.FS

var registry = speckit.NewRegistry[*Spec]("machine", "machine")

func init() {
	registry.MustLoad(specFS, "specs", parseBuildable, registryKeys)
	// The crossbar ablation machine is parametric (Ideal(cores)); the
	// registry carries the 8-core instance the CLIs' "ideal" name always
	// meant.
	ideal := idealSpec(8)
	registry.MustAdd(ideal, ideal.Name, ideal.Aliases...)
}

// parseBuildable parses a spec and rejects it unless it builds: a
// registered machine must be runnable.
func parseBuildable(raw []byte) (*Spec, error) {
	s, err := ParseSpec(raw)
	if err != nil {
		return nil, err
	}
	return s, s.Validate()
}

func registryKeys(s *Spec) []string { return append([]string{s.Name}, s.Aliases...) }

// idealSpec describes a small machine on an ideal crossbar. It exists
// for model ablations: with uniform 1-hop transfers, measured
// contention effects are purely protocol serialization.
func idealSpec(cores int) *Spec {
	return &Spec{
		Name:           fmt.Sprintf("Ideal%d", cores),
		Doc:            "Idealized crossbar machine for protocol-serialization ablations",
		Aliases:        []string{"ideal"},
		Sockets:        1,
		CoresPerSocket: cores,
		ThreadsPerCore: 1,
		FreqGHz:        2.0,
		Topology:       TopoSpec{Kind: "crossbar", Params: topology.Params{"nodes": cores}},
		LatencyCycles: LatencyCycles{
			L1Hit: 4, DirLookup: 10, HopLatency: 20, LLCHit: 40, DRAM: 150,
			InvalidateCost: 10,
			ExecCAS:        18, ExecFAA: 16, ExecSWAP: 16, ExecTAS: 15,
			ExecCAS2: 24, ExecFence: 20, ExecLoad: 0, ExecStore: 1,
		},
		Energy: Energies{
			StaticWattsPerCore:   1,
			ActiveWattsPerThread: 1,
			LocalOpNJ:            1,
			PerHopNJ:             1,
			LLCNJ:                5,
			DRAMNJ:               15,
		},
	}
}

// Names returns the canonical names of all registered machines, sorted.
func Names() []string { return registry.Names() }

// SpecByName returns a deep copy of the registered spec for the given
// name or alias (case-insensitive). Callers mutate the copy freely to
// derive variants.
func SpecByName(name string) (*Spec, error) { return registry.Get(name) }

// ByName builds the registered machine with the given name or alias
// (case-insensitive). Unknown names produce an error listing every
// registered machine.
func ByName(name string) (*Machine, error) {
	s, err := SpecByName(name)
	if err != nil {
		return nil, err
	}
	return s.Build()
}

func mustByName(name string) *Machine {
	m, err := ByName(name)
	if err != nil {
		panic(err)
	}
	return m
}

// XeonE5 returns the two-socket Xeon E5 v4-class preset (2×18 cores,
// 2-way SMT, 2.4 GHz, dual rings joined by a QPI-like link); see
// specs/xeone5.json for the constants.
func XeonE5() *Machine { return mustByName("XeonE5") }

// KNL returns the Xeon Phi Knights Landing 7210-class preset (64 cores
// on 32 two-core tiles of a 6×6 mesh, 4-way SMT, 1.3 GHz); see
// specs/knl.json. KNL has no shared L3; the "LLC" level models the
// distributed directory backed by MCDRAM cache.
func KNL() *Machine { return mustByName("KNL") }

// All returns the machines the paper evaluates.
func All() []*Machine { return []*Machine{XeonE5(), KNL()} }

// XeonMultiSocket returns a Xeon E5-class machine scaled to the given
// socket count on a full-mesh inter-socket fabric (the 4-socket Xeon
// topology). With sockets == 2 it is latency-identical to XeonE5. It
// exists for the socket-scaling extrapolation experiment: the paper
// measures two sockets, the model predicts more.
func XeonMultiSocket(sockets int) *Machine {
	s, err := SpecByName("XeonE5")
	if err != nil {
		panic(err)
	}
	s.Name = fmt.Sprintf("Xeon%dS", sockets)
	s.Doc = fmt.Sprintf("Xeon E5-class machine extrapolated to %d sockets on a full-mesh fabric", sockets)
	s.Aliases = nil
	s.Sockets = sockets
	s.Topology = TopoSpec{Kind: "multiring", Params: topology.Params{
		"sockets": sockets, "persocket": s.CoresPerSocket, "linkhops": 2,
	}}
	m, err := s.Build()
	if err != nil {
		panic(err)
	}
	return m
}

// Ideal returns the crossbar ablation machine with the given core
// count (see idealSpec).
func Ideal(cores int) *Machine {
	m, err := idealSpec(cores).Build()
	if err != nil {
		panic(err)
	}
	return m
}

// Select resolves the machines a CLI run targets: names is a
// comma-separated list of registered machine names (ByName), files a
// comma-separated list of JSON spec file paths (LoadSpecFile); see
// speckit.Select. Machines with duplicate cache identities
// (Machine.Key) are rejected.
func Select(names, files string) ([]*Machine, error) {
	return speckit.Select("machine", names, files, ByName, LoadSpecFile, func(m *Machine) (string, error) {
		return m.Key(), nil
	})
}
