package topology

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestRingHops(t *testing.T) {
	r := NewRing(8)
	cases := []struct{ a, b, want int }{
		{0, 0, 0}, {0, 1, 1}, {0, 4, 4}, {0, 5, 3}, {0, 7, 1}, {3, 6, 3}, {6, 3, 3},
	}
	for _, c := range cases {
		if got := r.Hops(c.a, c.b); got != c.want {
			t.Errorf("Hops(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	if r.CrossSocket(0, 7) {
		t.Error("single ring should never cross sockets")
	}
}

func TestRingSymmetryProperty(t *testing.T) {
	r := NewRing(18)
	if err := quick.Check(func(a, b uint8) bool {
		x, y := int(a)%18, int(b)%18
		return r.Hops(x, y) == r.Hops(y, x)
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestRingMaxDistance(t *testing.T) {
	r := NewRing(18)
	for a := 0; a < 18; a++ {
		for b := 0; b < 18; b++ {
			if h := r.Hops(a, b); h > 9 {
				t.Fatalf("Hops(%d,%d)=%d exceeds n/2", a, b, h)
			}
		}
	}
}

func TestDualRing(t *testing.T) {
	d := NewDualRing(18, 4)
	if d.Nodes() != 36 {
		t.Fatalf("Nodes = %d", d.Nodes())
	}
	// Same socket: plain ring distance.
	if got := d.Hops(2, 5); got != 3 {
		t.Errorf("same-socket Hops(2,5) = %d, want 3", got)
	}
	// Cross socket: to link stop + link + from link stop.
	// Node 2 (socket 0, local 2) -> node 23 (socket 1, local 5):
	// 2 + 4 + 5 = 11.
	if got := d.Hops(2, 23); got != 11 {
		t.Errorf("cross-socket Hops(2,23) = %d, want 11", got)
	}
	if !d.CrossSocket(2, 23) {
		t.Error("CrossSocket(2,23) = false")
	}
	if d.CrossSocket(2, 17) {
		t.Error("CrossSocket(2,17) = true within socket 0")
	}
	// Link stops themselves.
	if got := d.Hops(0, 18); got != 4 {
		t.Errorf("Hops(0,18) = %d, want link hops 4", got)
	}
}

func TestDualRingSymmetry(t *testing.T) {
	d := NewDualRing(18, 4)
	for a := 0; a < d.Nodes(); a++ {
		for b := 0; b < d.Nodes(); b++ {
			if d.Hops(a, b) != d.Hops(b, a) {
				t.Fatalf("asymmetric: Hops(%d,%d)=%d Hops(%d,%d)=%d",
					a, b, d.Hops(a, b), b, a, d.Hops(b, a))
			}
		}
	}
}

func TestDualRingCrossAlwaysCostlier(t *testing.T) {
	d := NewDualRing(18, 4)
	// Minimum cross-socket distance must exceed zero and include the link.
	minCross := 1 << 30
	for a := 0; a < 18; a++ {
		for b := 18; b < 36; b++ {
			if h := d.Hops(a, b); h < minCross {
				minCross = h
			}
		}
	}
	if minCross < d.LinkHops {
		t.Fatalf("min cross-socket hops %d < link hops %d", minCross, d.LinkHops)
	}
}

func TestMesh2D(t *testing.T) {
	m := NewMesh2D(6, 6)
	if m.Nodes() != 36 {
		t.Fatalf("Nodes = %d", m.Nodes())
	}
	cases := []struct{ a, b, want int }{
		{0, 0, 0},
		{0, 5, 5},   // same row, far corner of row
		{0, 35, 10}, // opposite corner: 5 + 5
		{7, 8, 1},
		{7, 13, 1}, // one row down
	}
	for _, c := range cases {
		if got := m.Hops(c.a, c.b); got != c.want {
			t.Errorf("Hops(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	x, y := m.Coord(13)
	if x != 1 || y != 2 {
		t.Errorf("Coord(13) = (%d,%d), want (1,2)", x, y)
	}
}

func TestMesh2DTriangleInequality(t *testing.T) {
	m := NewMesh2D(8, 8)
	r := []int{0, 9, 18, 27, 36, 45, 54, 63, 7, 56}
	for _, a := range r {
		for _, b := range r {
			for _, c := range r {
				if m.Hops(a, c) > m.Hops(a, b)+m.Hops(b, c) {
					t.Fatalf("triangle inequality violated: %d->%d->%d", a, b, c)
				}
			}
		}
	}
}

func TestCrossbar(t *testing.T) {
	c := NewCrossbar(10)
	if c.Hops(3, 3) != 0 {
		t.Error("self hop != 0")
	}
	for a := 0; a < 10; a++ {
		for b := 0; b < 10; b++ {
			if a != b && c.Hops(a, b) != 1 {
				t.Fatalf("Hops(%d,%d) != 1", a, b)
			}
		}
	}
}

func TestPanicsOnBadNode(t *testing.T) {
	tops := []Topology{NewRing(4), NewDualRing(4, 1), NewMesh2D(2, 2), NewCrossbar(4)}
	for _, tp := range tops {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic on out-of-range node", tp.Name())
				}
			}()
			tp.Hops(0, 99)
		}()
		// The node-pair table keeps the contract, including for a pair
		// whose flat index would fall inside the table.
		for _, pair := range [][2]int{{0, 99}, {0, tp.Nodes()}, {-1, 1}} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: PairTable read node pair %v without a panic", tp.Name(), pair)
					}
				}()
				NewPairTable(tp).Hops(pair[0], pair[1])
			}()
		}
	}
}

func TestConstructorsPanicOnBadSize(t *testing.T) {
	cases := []func(){
		func() { NewRing(0) },
		func() { NewDualRing(0, 1) },
		func() { NewDualRing(4, -1) },
		func() { NewMesh2D(0, 3) },
		func() { NewMesh2D(3, 0) },
		func() { NewCrossbar(0) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: constructor accepted invalid size", i)
				}
			}()
			f()
		}()
	}
}

func TestNames(t *testing.T) {
	if NewRing(8).Name() != "ring-8" {
		t.Error("ring name")
	}
	if NewDualRing(18, 4).Name() != "dualring-2x18" {
		t.Error("dualring name")
	}
	if NewMesh2D(6, 6).Name() != "mesh-6x6" {
		t.Error("mesh name")
	}
	if NewCrossbar(3).Name() != "crossbar-3" {
		t.Error("crossbar name")
	}
}

// TestRoutesBuiltOnce: goroutines asking one pair table for its routes
// at once all get the one table built for it, and it lists each pair's
// Path.
func TestRoutesBuiltOnce(t *testing.T) {
	topo := NewMesh2D(5, 4)
	pt := NewPairTable(topo)
	got := make([]*Routes, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = pt.Routes()
		}(i)
	}
	wg.Wait()
	n := topo.Nodes()
	for i, r := range got {
		if r != got[0] {
			t.Fatalf("goroutine %d got its own route table", i)
		}
	}
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			path, leg := topo.Path(a, b), got[0].Leg(a*n+b)
			if len(path) != len(leg) {
				t.Fatalf("route %d->%d = %v, Path = %v", a, b, leg, path)
			}
			for k := range path {
				if int(leg[k]) != path[k] {
					t.Fatalf("route %d->%d = %v, Path = %v", a, b, leg, path)
				}
			}
		}
	}
}
