package topology

import "testing"

// FuzzHops is a native Go fuzz target over the metric properties every
// topology's hop computation must satisfy — identity, symmetry,
// non-negativity, the triangle inequality — plus routing consistency:
// the transit-weighted link path between two stops must cost exactly
// Hops. All four CLIs' latency math sits on these properties. Run with
// `go test -fuzz FuzzHops ./internal/topology`.
func FuzzHops(f *testing.F) {
	f.Add(uint8(0), uint8(3), uint16(0), uint16(5), uint16(9))
	f.Add(uint8(1), uint8(8), uint16(1), uint16(17), uint16(30))
	f.Add(uint8(2), uint8(5), uint16(2), uint16(3), uint16(11))
	f.Add(uint8(3), uint8(12), uint16(7), uint16(7), uint16(0))
	f.Add(uint8(4), uint8(6), uint16(8), uint16(23), uint16(14))
	f.Fuzz(func(t *testing.T, kind, size uint8, ra, rb, rc uint16) {
		per := 1 + int(size%16)
		var topo Topology
		switch kind % 6 {
		case 0:
			topo = NewRing(per)
		case 1:
			topo = NewDualRing(per, 2)
		case 2:
			topo = NewMesh2D(per, 1+int(size%5))
		case 3:
			topo = NewCrossbar(per)
		case 4:
			topo = NewStar(per, 1+int(size%3), size%2 == 0)
		default:
			topo = NewMultiRing(1+int(size%4), per, 3)
		}
		n := topo.Nodes()
		a, b, c := int(ra)%n, int(rb)%n, int(rc)%n

		if h := topo.Hops(a, a); h != 0 {
			t.Fatalf("%s: Hops(%d,%d) = %d, want 0", topo.Name(), a, a, h)
		}
		hab := topo.Hops(a, b)
		if hab < 0 {
			t.Fatalf("%s: Hops(%d,%d) = %d < 0", topo.Name(), a, b, hab)
		}
		if hba := topo.Hops(b, a); hba != hab {
			t.Fatalf("%s: asymmetric hops: %d->%d is %d, %d->%d is %d", topo.Name(), a, b, hab, b, a, hba)
		}
		if a != b && hab == 0 {
			t.Fatalf("%s: distinct stops %d,%d at distance 0", topo.Name(), a, b)
		}
		if hac, hcb := topo.Hops(a, c), topo.Hops(c, b); hab > hac+hcb {
			t.Fatalf("%s: triangle violated via %d: d(%d,%d)=%d > %d",
				topo.Name(), c, a, b, hab, hac+hcb)
		}
		if topo.CrossSocket(a, b) != topo.CrossSocket(b, a) {
			t.Fatalf("%s: CrossSocket(%d,%d) asymmetric", topo.Name(), a, b)
		}

		links := topo.Links()
		transit := 0
		for _, link := range topo.Path(a, b) {
			if link < 0 || link >= links {
				t.Fatalf("%s: path %d->%d uses link %d outside [0,%d)", topo.Name(), a, b, link, links)
			}
			transit += topo.LinkTransit(link)
		}
		if transit != hab {
			t.Fatalf("%s: path transit %d->%d is %d, Hops says %d", topo.Name(), a, b, transit, hab)
		}
		if a == b && len(topo.Path(a, b)) != 0 {
			t.Fatalf("%s: self-path not empty", topo.Name())
		}
	})
}
