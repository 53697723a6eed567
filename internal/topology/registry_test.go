package topology

import (
	"strings"
	"testing"
)

// builderCases enumerates, per registered builder, parameter sets that
// span the shapes the machine specs use. Every registered kind must
// appear here, so a new builder cannot land without property coverage.
var builderCases = map[string][]Params{
	"ring":      {{"nodes": 1}, {"nodes": 7}, {"nodes": 18}},
	"dualring":  {{"persocket": 18, "linkhops": 2}, {"persocket": 3}, {"persocket": 1, "linkhops": 1}},
	"mesh":      {{"cols": 6, "rows": 6}, {"cols": 1, "rows": 9}, {"cols": 6, "rows": 5}},
	"crossbar":  {{"nodes": 8}, {"nodes": 1}, {"nodes": 33}},
	"multiring": {{"sockets": 4, "persocket": 18, "linkhops": 2}, {"sockets": 1, "persocket": 5}},
	"star":      {{"leaves": 8, "hubhops": 2, "socketperleaf": 1}, {"leaves": 3}, {"leaves": 2, "hubhops": 5}},
}

// TestEveryBuilderHasCases pins the registry and the case table to each
// other in both directions.
func TestEveryBuilderHasCases(t *testing.T) {
	for _, kind := range BuilderKinds() {
		if len(builderCases[kind]) == 0 {
			t.Errorf("registered builder %q has no property-test cases", kind)
		}
	}
	for kind := range builderCases {
		if _, err := Build(kind, builderCases[kind][0]); err != nil {
			t.Errorf("case table names unbuildable kind %q: %v", kind, err)
		}
	}
	if len(BuilderKinds()) < 4 {
		t.Fatalf("only %d topology builders registered, want >= 4: %v", len(BuilderKinds()), BuilderKinds())
	}
}

// TestBuilderMetricProperties checks, for every registered builder and
// parameter set, the properties the simulator and the analytical model
// rely on: zero self-distance, symmetry, nonzero distance between
// distinct nodes (connectivity with finite, positive hop counts),
// symmetric cross-socket classification, a mean hop distance within
// the [min, max] pairwise distance, and a PairTable that reads back
// every pair's Hops and CrossSocket.
func TestBuilderMetricProperties(t *testing.T) {
	for kind, cases := range builderCases {
		for _, params := range cases {
			topo, err := Build(kind, params)
			if err != nil {
				t.Fatalf("Build(%s, %v): %v", kind, params, err)
			}
			n := topo.Nodes()
			if n <= 0 {
				t.Fatalf("%s: Nodes() = %d", topo.Name(), n)
			}
			minH, maxH := int(^uint(0)>>1), 0
			for a := 0; a < n; a++ {
				if h := topo.Hops(a, a); h != 0 {
					t.Fatalf("%s: Hops(%d,%d) = %d, want 0", topo.Name(), a, a, h)
				}
				if topo.CrossSocket(a, a) {
					t.Fatalf("%s: CrossSocket(%d,%d) = true", topo.Name(), a, a)
				}
				for b := a + 1; b < n; b++ {
					h := topo.Hops(a, b)
					if h <= 0 {
						t.Fatalf("%s: Hops(%d,%d) = %d, want > 0 between distinct nodes", topo.Name(), a, b, h)
					}
					if back := topo.Hops(b, a); back != h {
						t.Fatalf("%s: asymmetric hops (%d,%d): %d vs %d", topo.Name(), a, b, h, back)
					}
					if topo.CrossSocket(a, b) != topo.CrossSocket(b, a) {
						t.Fatalf("%s: asymmetric CrossSocket(%d,%d)", topo.Name(), a, b)
					}
					if h < minH {
						minH = h
					}
					if h > maxH {
						maxH = h
					}
				}
			}
			mean := meanHops(topo)
			if n < 2 {
				if mean != 0 {
					t.Fatalf("%s: mean hops = %v on a single node", topo.Name(), mean)
				}
			} else if mean < float64(minH) || mean > float64(maxH) {
				t.Fatalf("%s: mean hops = %v outside pairwise range [%d, %d]", topo.Name(), mean, minH, maxH)
			}
			pt := NewPairTable(topo)
			for a := 0; a < n; a++ {
				for b := 0; b < n; b++ {
					if pt.Hops(a, b) != topo.Hops(a, b) || pt.CrossSocket(a, b) != topo.CrossSocket(a, b) {
						t.Fatalf("%s: PairTable(%d,%d) = %d, %v; topology says %d, %v", topo.Name(), a, b,
							pt.Hops(a, b), pt.CrossSocket(a, b), topo.Hops(a, b), topo.CrossSocket(a, b))
					}
				}
			}
		}
	}
}

// TestBuilderRouterConsistency checks that every builder's product
// keeps path transit equal to Hops — the invariant the
// finite-bandwidth network model depends on.
func TestBuilderRouterConsistency(t *testing.T) {
	for kind, cases := range builderCases {
		for _, params := range cases {
			topo, err := Build(kind, params)
			if err != nil {
				t.Fatal(err)
			}
			n := topo.Nodes()
			for a := 0; a < n; a++ {
				for b := 0; b < n; b++ {
					transit := 0
					for _, link := range topo.Path(a, b) {
						if link < 0 || link >= topo.Links() {
							t.Fatalf("%s: path link %d outside [0,%d)", topo.Name(), link, topo.Links())
						}
						transit += topo.LinkTransit(link)
					}
					if transit != topo.Hops(a, b) {
						t.Fatalf("%s: path transit %d != Hops(%d,%d) = %d", topo.Name(), transit, a, b, topo.Hops(a, b))
					}
				}
			}
		}
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build("warp-bus", Params{"nodes": 4}); err == nil || !strings.Contains(err.Error(), "registered:") {
		t.Errorf("unknown kind error should list registered kinds, got %v", err)
	}
	if _, err := Build("ring", nil); err == nil || !strings.Contains(err.Error(), "nodes") {
		t.Errorf("missing required parameter should be named, got %v", err)
	}
	if _, err := Build("ring", Params{"nodes": 4, "spokes": 2}); err == nil || !strings.Contains(err.Error(), "spokes") {
		t.Errorf("unknown parameter should be named, got %v", err)
	}
	for _, c := range []struct {
		kind string
		p    Params
		bad  string
	}{
		{"ring", Params{"nodes": 0}, "nodes"},
		{"dualring", Params{"persocket": 0}, "persocket"},
		{"dualring", Params{"persocket": 4, "linkhops": -1}, "linkhops"},
		{"multiring", Params{"sockets": 0, "persocket": 4}, "sockets"},
		{"multiring", Params{"sockets": 2, "persocket": -1}, "persocket"},
		{"multiring", Params{"sockets": 2, "persocket": 4, "linkhops": -2}, "linkhops"},
	} {
		if _, err := Build(c.kind, c.p); err == nil || !strings.Contains(err.Error(), c.bad) {
			t.Errorf("Build(%s, %v) should name %q, got %v", c.kind, c.p, c.bad, err)
		}
	}
	if _, err := Build("mesh", Params{"cols": 0, "rows": 3}); err == nil {
		t.Error("zero dimension accepted")
	}
	if _, err := Build("star", Params{"leaves": 8, "socketperleaf": 3}); err == nil {
		t.Error("non-boolean socketperleaf accepted")
	}
	if _, err := Build("star", Params{"leaves": 8, "hubhops": 0}); err == nil {
		t.Error("zero hubhops accepted")
	}
}

// TestBuildDefaultsApplied checks optional parameters fall back to
// their declared defaults (dualring's 2-hop link, star's 1-hop hub).
func TestBuildDefaultsApplied(t *testing.T) {
	topo, err := Build("dualring", Params{"persocket": 18})
	if err != nil {
		t.Fatal(err)
	}
	if d, ok := topo.(*MultiRing); !ok || d.LinkHops != 2 {
		t.Fatalf("dualring default linkhops: got %#v", topo)
	}
	topo, err = Build("star", Params{"leaves": 4})
	if err != nil {
		t.Fatal(err)
	}
	if s, ok := topo.(*Star); !ok || s.HubHops != 1 || s.SocketPerLeaf {
		t.Fatalf("star defaults: got %#v", topo)
	}
}

func TestStarShape(t *testing.T) {
	s := NewStar(8, 2, true)
	if s.Nodes() != 8 {
		t.Fatalf("nodes = %d", s.Nodes())
	}
	if h := s.Hops(0, 5); h != 4 {
		t.Fatalf("Hops(0,5) = %d, want 4 (up 2, down 2)", h)
	}
	if !s.CrossSocket(0, 5) || s.CrossSocket(3, 3) {
		t.Fatal("socket-per-leaf classification wrong")
	}
	if NewStar(8, 2, false).CrossSocket(0, 5) {
		t.Fatal("CrossSocket should be false without socketperleaf")
	}
	if got := meanHops(s); got != 4 {
		t.Fatalf("mean hops = %v, want uniform 4", got)
	}
}

// meanHops is the mean hop distance over all ordered pairs of distinct
// nodes, 0 for a single node.
func meanHops(t Topology) float64 {
	n := t.Nodes()
	if n < 2 {
		return 0
	}
	sum := 0
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			sum += t.Hops(a, b)
		}
	}
	return float64(sum) / float64(n*(n-1))
}

func TestParamsClone(t *testing.T) {
	p := Params{"nodes": 4}
	q := p.Clone()
	q["nodes"] = 9
	if p["nodes"] != 4 {
		t.Fatal("Clone aliased the map")
	}
	if Params(nil).Clone() != nil {
		t.Fatal("nil Clone should stay nil")
	}
}
