package topology

import (
	"fmt"
	"slices"
	"testing"
)

// refRing and refDualRing are the single-ring and two-socket
// topologies as separate types, the way they were written before
// MultiRing took over both shapes. TestMultiRingMatchesDualRing holds
// MultiRing to them.

// refRing is a single bidirectional ring of n stops; link i joins stop
// i and stop (i+1) mod n.
type refRing struct{ n int }

func (r refRing) Name() string              { return fmt.Sprintf("ring-%d", r.n) }
func (r refRing) Nodes() int                { return r.n }
func (r refRing) CrossSocket(a, b int) bool { return false }
func (r refRing) Links() int                { return r.n }
func (r refRing) LinkTransit(int) int       { return 1 }
func (r refRing) Path(a, b int) []int       { return ringPath(a, b, r.n, 0) }

func (r refRing) Hops(a, b int) int {
	d := a - b
	if d < 0 {
		d = -d
	}
	if alt := r.n - d; alt < d {
		d = alt
	}
	return d
}

// refDualRing is two rings of per stops joined by one channel between
// their stops 0, weighted linkHops hops. Socket 0's ring links are
// [0, per), socket 1's [per, 2*per), and the channel is the last ID.
type refDualRing struct{ per, linkHops int }

func (d refDualRing) Name() string              { return fmt.Sprintf("dualring-2x%d", d.per) }
func (d refDualRing) Nodes() int                { return 2 * d.per }
func (d refDualRing) CrossSocket(a, b int) bool { return a/d.per != b/d.per }
func (d refDualRing) Links() int                { return 2*d.per + 1 }

func (d refDualRing) LinkTransit(link int) int {
	if link == 2*d.per {
		return d.linkHops
	}
	return 1
}

func (d refDualRing) Hops(a, b int) int {
	ring := refRing{d.per}
	sa, sb := a/d.per, b/d.per
	la, lb := a%d.per, b%d.per
	if sa == sb {
		return ring.Hops(la, lb)
	}
	return ring.Hops(la, 0) + d.linkHops + ring.Hops(0, lb)
}

func (d refDualRing) Path(a, b int) []int {
	sa, sb := a/d.per, b/d.per
	la, lb := a%d.per, b%d.per
	if sa == sb {
		return ringPath(la, lb, d.per, sa*d.per)
	}
	out := ringPath(la, 0, d.per, sa*d.per)
	out = append(out, 2*d.per)
	return append(out, ringPath(0, lb, d.per, sb*d.per)...)
}

// sameRouting fails t unless got and want agree on the node and link
// counts, every link's transit weight, and every node pair's Hops,
// CrossSocket and Path.
func sameRouting(t *testing.T, got, want Topology) {
	t.Helper()
	if got.Nodes() != want.Nodes() || got.Links() != want.Links() {
		t.Fatalf("%s: %d nodes, %d links; %s has %d, %d",
			got.Name(), got.Nodes(), got.Links(), want.Name(), want.Nodes(), want.Links())
	}
	for l := 0; l < want.Links(); l++ {
		if got.LinkTransit(l) != want.LinkTransit(l) {
			t.Fatalf("%s: LinkTransit(%d) = %d, want %d", got.Name(), l, got.LinkTransit(l), want.LinkTransit(l))
		}
	}
	for a := 0; a < want.Nodes(); a++ {
		for b := 0; b < want.Nodes(); b++ {
			if got.Hops(a, b) != want.Hops(a, b) || got.CrossSocket(a, b) != want.CrossSocket(a, b) {
				t.Fatalf("%s (%d,%d): Hops %d, cross %v; want %d, %v", got.Name(), a, b,
					got.Hops(a, b), got.CrossSocket(a, b), want.Hops(a, b), want.CrossSocket(a, b))
			}
			if p, q := got.Path(a, b), want.Path(a, b); !slices.Equal(p, q) {
				t.Fatalf("%s: Path(%d,%d) = %v, want %v", got.Name(), a, b, p, q)
			}
		}
	}
}

// TestMultiRingMatchesDualRing checks the constructors and the three
// ring builders against the reference ring and dual ring on every node
// pair, 1-stop rings included. A multiring of one or two sockets routes
// like the reference of that many sockets but keeps its own name.
func TestMultiRingMatchesDualRing(t *testing.T) {
	build := func(kind string, p Params) Topology {
		topo, err := Build(kind, p)
		if err != nil {
			t.Fatal(err)
		}
		return topo
	}
	for _, per := range []int{1, 2, 3, 6, 18} {
		for _, linkHops := range []int{0, 2, 4} {
			ring, dual := refRing{per}, refDualRing{per, linkHops}
			multi1 := build("multiring", Params{"sockets": 1, "persocket": per, "linkhops": linkHops})
			multi2 := build("multiring", Params{"sockets": 2, "persocket": per, "linkhops": linkHops})
			for _, c := range []struct {
				got, want Topology
				name      string
			}{
				{NewRing(per), ring, ring.Name()},
				{build("ring", Params{"nodes": per}), ring, ring.Name()},
				{NewDualRing(per, linkHops), dual, dual.Name()},
				{build("dualring", Params{"persocket": per, "linkhops": linkHops}), dual, dual.Name()},
				{multi1, ring, fmt.Sprintf("multiring-1x%d", per)},
				{multi2, dual, fmt.Sprintf("multiring-2x%d", per)},
			} {
				if c.got.Name() != c.name {
					t.Fatalf("Name() = %q, want %q", c.got.Name(), c.name)
				}
				sameRouting(t, c.got, c.want)
			}
		}
	}
}

func TestMultiRingFourSockets(t *testing.T) {
	m := newMultiRing("multiring", 4, 4, 2)
	if m.Nodes() != 16 {
		t.Fatalf("nodes = %d", m.Nodes())
	}
	// Any two sockets are one channel apart (full mesh): socket 0
	// stop 0 to socket 3 stop 0 = LinkHops only.
	if got := m.Hops(0, 12); got != 2 {
		t.Fatalf("Hops(0,12) = %d, want 2", got)
	}
	if !m.CrossSocket(0, 12) || m.CrossSocket(1, 2) {
		t.Fatal("cross-socket classification")
	}
	// Symmetry.
	for a := 0; a < 16; a++ {
		for b := 0; b < 16; b++ {
			if m.Hops(a, b) != m.Hops(b, a) {
				t.Fatalf("asymmetric at (%d,%d)", a, b)
			}
		}
	}
}

func TestMultiRingPaths(t *testing.T) {
	m := newMultiRing("multiring", 3, 4, 2)
	// Link count: 3*4 ring links + 3 pair channels.
	if m.Links() != 15 {
		t.Fatalf("links = %d, want 15", m.Links())
	}
	// Distinct socket pairs get distinct channels.
	seen := map[int]bool{}
	for x := 0; x < 3; x++ {
		for y := x + 1; y < 3; y++ {
			l := m.pairLink(x, y)
			if l < 12 || l >= 15 {
				t.Fatalf("pairLink(%d,%d) = %d out of range", x, y, l)
			}
			if seen[l] {
				t.Fatalf("pairLink collision at %d", l)
			}
			seen[l] = true
			if m.pairLink(y, x) != l {
				t.Fatal("pairLink not symmetric")
			}
		}
	}
	// Path transit weights sum to Hops.
	for a := 0; a < m.Nodes(); a++ {
		for b := 0; b < m.Nodes(); b++ {
			sum := 0
			for _, l := range m.Path(a, b) {
				sum += m.LinkTransit(l)
			}
			if sum != m.Hops(a, b) {
				t.Fatalf("Path weight %d != Hops %d for (%d,%d)", sum, m.Hops(a, b), a, b)
			}
		}
	}
}

func TestMultiRingConstructorPanics(t *testing.T) {
	for i, f := range []func(){
		func() { newMultiRing("multiring", 0, 4, 1) },
		func() { newMultiRing("multiring", 2, 0, 1) },
		func() { newMultiRing("multiring", 2, 4, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d accepted", i)
				}
			}()
			f()
		}()
	}
}
