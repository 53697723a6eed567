package topology

import "testing"

func routers() []Topology {
	return []Topology{NewRing(8), NewDualRing(6, 2), NewMesh2D(4, 3), NewCrossbar(5)}
}

func TestPathLengthMatchesHops(t *testing.T) {
	for _, r := range routers() {
		for a := 0; a < r.Nodes(); a++ {
			for b := 0; b < r.Nodes(); b++ {
				p := r.Path(a, b)
				want := r.Hops(a, b)
				if d, ok := r.(*MultiRing); ok && d.CrossSocket(a, b) {
					// The inter-socket link is one resource but
					// LinkHops hop-latencies.
					want = want - d.LinkHops + 1
				}
				if len(p) != want {
					t.Errorf("%s: len(Path(%d,%d)) = %d, want %d", r.Name(), a, b, len(p), want)
				}
			}
		}
	}
}

func TestPathLinkIDsInRange(t *testing.T) {
	for _, r := range routers() {
		for a := 0; a < r.Nodes(); a++ {
			for b := 0; b < r.Nodes(); b++ {
				for _, l := range r.Path(a, b) {
					if l < 0 || l >= r.Links() {
						t.Fatalf("%s: link %d out of [0,%d)", r.Name(), l, r.Links())
					}
				}
			}
		}
	}
}

func TestPathEmptyForSelf(t *testing.T) {
	for _, r := range routers() {
		if len(r.Path(3, 3)) != 0 {
			t.Errorf("%s: self path not empty", r.Name())
		}
	}
}

func TestRingPathDirections(t *testing.T) {
	r := NewRing(8)
	// 0 -> 2 clockwise: links 0,1.
	p := r.Path(0, 2)
	if len(p) != 2 || p[0] != 0 || p[1] != 1 {
		t.Fatalf("Path(0,2) = %v", p)
	}
	// 0 -> 6 counter-clockwise: links 7,6.
	p = r.Path(0, 6)
	if len(p) != 2 || p[0] != 7 || p[1] != 6 {
		t.Fatalf("Path(0,6) = %v", p)
	}
}

func TestDualRingPathCrossesTheLink(t *testing.T) {
	d := NewDualRing(6, 2)
	link := 2 * d.PerSocket
	p := d.Path(2, 9) // socket 0 local 2 -> socket 1 local 3
	foundLink := false
	for _, l := range p {
		if l == link {
			foundLink = true
		}
	}
	if !foundLink {
		t.Fatalf("cross-socket path %v missing inter-socket link %d", p, link)
	}
	// Same-socket paths never touch it.
	for _, l := range d.Path(1, 4) {
		if l == link {
			t.Fatal("same-socket path used the inter-socket link")
		}
	}
}

func TestMeshPathIsXY(t *testing.T) {
	m := NewMesh2D(4, 3)
	// (0,0) -> (2,1): two horizontal then one vertical link.
	p := m.Path(0, 6)
	if len(p) != 3 {
		t.Fatalf("path = %v", p)
	}
	h := m.Rows * (m.Cols - 1)
	if p[0] >= h || p[1] >= h || p[2] < h {
		t.Fatalf("not X-then-Y: %v (h=%d)", p, h)
	}
	// Reverse direction reuses the same undirected links.
	q := m.Path(6, 0)
	if len(q) != 3 {
		t.Fatalf("reverse path = %v", q)
	}
}

func TestMeshPathLinkUniqueness(t *testing.T) {
	// A shortest path never reuses a link.
	m := NewMesh2D(5, 5)
	for a := 0; a < m.Nodes(); a += 3 {
		for b := 0; b < m.Nodes(); b += 2 {
			seen := map[int]bool{}
			for _, l := range m.Path(a, b) {
				if seen[l] {
					t.Fatalf("Path(%d,%d) repeats link %d", a, b, l)
				}
				seen[l] = true
			}
		}
	}
}
