package topology

import (
	"fmt"
	"sort"
	"sync"
)

// This file is the topology builder registry: every interconnect shape
// this package implements is constructible by name from a flat integer
// parameter map. Machine specs (internal/machine) name their topology
// this way, so adding a machine on an existing interconnect — or
// sweeping interconnect parameters — needs no new Go code. New shapes
// register a BuilderFunc in init; Build validates the parameters before
// constructing, so a malformed spec surfaces as an error, never as a
// constructor panic.

// Params carries a builder's integer parameters, keyed by the
// lower-case names the builder declares. Boolean parameters are 0/1.
// The flat map keeps specs trivially serializable and their canonical
// JSON encoding deterministic (encoding/json sorts map keys).
type Params map[string]int

// BuilderFunc constructs a topology from validated parameters.
type BuilderFunc func(p Params) (Topology, error)

// builder pairs a constructor with its parameter schema: required
// parameter names, and optional ones with their defaults.
type builder struct {
	required []string
	optional map[string]int
	build    BuilderFunc
}

var (
	regMu    sync.RWMutex
	builders = map[string]builder{}
)

// RegisterBuilder adds a named topology builder. required lists the
// parameter names Build demands; optional maps the remaining accepted
// names to their defaults. Duplicate kinds panic: builders register at
// init time, so a collision is a programming error.
func RegisterBuilder(kind string, required []string, optional map[string]int, b BuilderFunc) {
	regMu.Lock()
	defer regMu.Unlock()
	if kind == "" || b == nil {
		panic("topology: builder needs a kind and a BuilderFunc")
	}
	if _, dup := builders[kind]; dup {
		panic(fmt.Sprintf("topology: duplicate builder %q", kind))
	}
	builders[kind] = builder{required: required, optional: optional, build: b}
}

// BuilderKinds returns the registered builder names, sorted.
func BuilderKinds() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(builders))
	for k := range builders {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Build constructs the named topology from p. Unknown kinds, unknown
// parameter names, and missing required parameters are errors that name
// what was expected — a machine spec file is user input, and a typo
// must explain itself.
func Build(kind string, p Params) (Topology, error) {
	regMu.RLock()
	b, ok := builders[kind]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("topology: unknown kind %q (registered: %v)", kind, BuilderKinds())
	}
	known := map[string]bool{}
	full := Params{}
	for _, name := range b.required {
		known[name] = true
		v, present := p[name]
		if !present {
			return nil, fmt.Errorf("topology %s: missing required parameter %q (required: %v)", kind, name, b.required)
		}
		full[name] = v
	}
	for name, def := range b.optional {
		known[name] = true
		if v, present := p[name]; present {
			full[name] = v
		} else {
			full[name] = def
		}
	}
	for name := range p {
		if !known[name] {
			return nil, fmt.Errorf("topology %s: unknown parameter %q (required: %v, optional: %v)",
				kind, name, b.required, optionalNames(b.optional))
		}
	}
	return b.build(full)
}

func optionalNames(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// positive validates that a parameter is > 0.
func positive(kind, name string, v int) error {
	if v <= 0 {
		return fmt.Errorf("topology %s: parameter %q = %d (want > 0)", kind, name, v)
	}
	return nil
}

// nonNegative validates that a parameter is >= 0.
func nonNegative(kind, name string, v int) error {
	if v < 0 {
		return fmt.Errorf("topology %s: parameter %q = %d (want >= 0)", kind, name, v)
	}
	return nil
}

func init() {
	// Rings of 1 (idealized Xeon uncore), 2 (two-socket Xeon E5) and S
	// sockets (4S Xeon), bridged at stop 0 by point-to-point links.
	RegisterBuilder("ring", []string{"nodes"}, nil, ringBuilder("ring", "nodes", 1))
	RegisterBuilder("dualring", []string{"persocket"}, map[string]int{"linkhops": 2}, ringBuilder("dualring", "persocket", 2))
	RegisterBuilder("multiring", []string{"sockets", "persocket"}, map[string]int{"linkhops": 2}, ringBuilder("multiring", "persocket", 0))
	// 2D mesh with dimension-ordered routing (KNL tiles, Xeon Scalable).
	RegisterBuilder("mesh", []string{"cols", "rows"}, nil, func(p Params) (Topology, error) {
		if err := positive("mesh", "cols", p["cols"]); err != nil {
			return nil, err
		}
		if err := positive("mesh", "rows", p["rows"]); err != nil {
			return nil, err
		}
		return NewMesh2D(p["cols"], p["rows"]), nil
	})
	// Ideal fully-connected crossbar (model ablations).
	RegisterBuilder("crossbar", []string{"nodes"}, nil, func(p Params) (Topology, error) {
		if err := positive("crossbar", "nodes", p["nodes"]); err != nil {
			return nil, err
		}
		return NewCrossbar(p["nodes"]), nil
	})
	// Two-level hierarchical star: leaf domains bridged through a hub
	// (EPYC CCDs through an IO die). socketperleaf=1 charges the
	// cross-socket penalty on every leaf-to-leaf transfer.
	RegisterBuilder("star", []string{"leaves"}, map[string]int{"hubhops": 1, "socketperleaf": 0}, func(p Params) (Topology, error) {
		if err := positive("star", "leaves", p["leaves"]); err != nil {
			return nil, err
		}
		if err := positive("star", "hubhops", p["hubhops"]); err != nil {
			return nil, err
		}
		if v := p["socketperleaf"]; v != 0 && v != 1 {
			return nil, fmt.Errorf("topology star: parameter \"socketperleaf\" = %d (want 0 or 1)", v)
		}
		return NewStar(p["leaves"], p["hubhops"], p["socketperleaf"] == 1), nil
	})
}

// ringBuilder builds the ring-of-rings kind named kind, whose stop
// count per socket is the parameter stops. sockets fixes its socket
// count, or is 0 to read it from the "sockets" parameter. A kind that
// declares no "linkhops" parameter has none.
func ringBuilder(kind, stops string, sockets int) BuilderFunc {
	return func(p Params) (Topology, error) {
		n := sockets
		if n == 0 {
			n = p["sockets"]
			if err := positive(kind, "sockets", n); err != nil {
				return nil, err
			}
		}
		if err := positive(kind, stops, p[stops]); err != nil {
			return nil, err
		}
		if err := nonNegative(kind, "linkhops", p["linkhops"]); err != nil {
			return nil, err
		}
		return newMultiRing(kind, n, p[stops], p["linkhops"]), nil
	}
}

// Clone returns a copy of p (nil stays nil); machine specs hand their
// parameter maps around and must not alias.
func (p Params) Clone() Params {
	if p == nil {
		return nil
	}
	out := make(Params, len(p))
	for k, v := range p {
		out[k] = v
	}
	return out
}
