package topology

import "fmt"

// MultiRing is the ring-of-rings interconnect of the Xeon family: each
// of Sockets sockets is a bidirectional ring of PerSocket stops on
// which a message takes the shorter way around, and the sockets'
// stop-0 nodes are joined by a fully connected inter-socket fabric
// (one point-to-point QPI/UPI channel per socket pair). A cross-socket
// transfer rides its ring to stop 0, crosses the channel (LinkHops
// hops worth of latency), and rides the other ring to the destination.
//
// One socket is the idealized single-socket Xeon E5 uncore (NewRing),
// two the two-socket Xeon E5 of the paper (NewDualRing), and more the
// socket-count extrapolation of experiment F17 (the "multiring"
// builder).
type MultiRing struct {
	Sockets   int
	PerSocket int
	LinkHops  int // hop-equivalent weight of each inter-socket channel
	name      string
}

// NewRing returns a single bidirectional ring with n stops, named
// ring-N. Only tests call it: tests in coherence, invariant and here
// build rings by shape through it, without the registry's Params and
// error path. The registry's builders call newMultiRing.
func NewRing(n int) *MultiRing { return newMultiRing("ring", 1, n, 0) }

// NewDualRing returns a two-socket dual ring with perSocket stops per
// socket and the inter-socket link costed as linkHops ring hops, named
// dualring-2xN. Like NewRing, it stays as a builder for tests.
func NewDualRing(perSocket, linkHops int) *MultiRing {
	return newMultiRing("dualring", 2, perSocket, linkHops)
}

// newMultiRing builds a ring-of-rings named after the builder kind
// that selects it.
func newMultiRing(kind string, sockets, perSocket, linkHops int) *MultiRing {
	if sockets <= 0 || perSocket <= 0 {
		panic("topology: " + kind + " needs positive sockets and stops")
	}
	if linkHops < 0 {
		panic("topology: negative link hops")
	}
	name := fmt.Sprintf("%s-%dx%d", kind, sockets, perSocket)
	if kind == "ring" {
		name = fmt.Sprintf("ring-%d", perSocket)
	}
	return &MultiRing{Sockets: sockets, PerSocket: perSocket, LinkHops: linkHops, name: name}
}

func (m *MultiRing) Name() string { return m.name }

func (m *MultiRing) Nodes() int { return m.Sockets * m.PerSocket }

func (m *MultiRing) socket(n int) int { return n / m.PerSocket }
func (m *MultiRing) local(n int) int  { return n % m.PerSocket }

func (m *MultiRing) ringHops(a, b int) int {
	d := a - b
	if d < 0 {
		d = -d
	}
	if alt := m.PerSocket - d; alt < d {
		d = alt
	}
	return d
}

// Hops implements Topology.
func (m *MultiRing) Hops(a, b int) int {
	checkNode(m, a)
	checkNode(m, b)
	sa, sb := m.socket(a), m.socket(b)
	la, lb := m.local(a), m.local(b)
	if sa == sb {
		return m.ringHops(la, lb)
	}
	// Ride to the fabric stop, cross the direct channel, ride out.
	return m.ringHops(la, 0) + m.LinkHops + m.ringHops(0, lb)
}

// CrossSocket implements Topology.
func (m *MultiRing) CrossSocket(a, b int) bool {
	checkNode(m, a)
	checkNode(m, b)
	return m.socket(a) != m.socket(b)
}

// Links implements Topology: each socket's ring links come first
// (PerSocket links per socket; link base+i joins stops i and i+1 mod
// PerSocket), then one channel per socket pair.
func (m *MultiRing) Links() int {
	return m.Sockets*m.PerSocket + m.Sockets*(m.Sockets-1)/2
}

// pairLink returns the link ID of the inter-socket channel between
// sockets x < y.
func (m *MultiRing) pairLink(x, y int) int {
	if x > y {
		x, y = y, x
	}
	// Index of pair (x, y) in lexicographic order.
	idx := x*(2*m.Sockets-x-1)/2 + (y - x - 1)
	return m.Sockets*m.PerSocket + idx
}

// Path implements Topology.
func (m *MultiRing) Path(a, b int) []int {
	checkNode(m, a)
	checkNode(m, b)
	sa, sb := m.socket(a), m.socket(b)
	la, lb := m.local(a), m.local(b)
	if sa == sb {
		return ringPath(la, lb, m.PerSocket, sa*m.PerSocket)
	}
	out := ringPath(la, 0, m.PerSocket, sa*m.PerSocket)
	out = append(out, m.pairLink(sa, sb))
	return append(out, ringPath(0, lb, m.PerSocket, sb*m.PerSocket)...)
}

// LinkTransit implements Topology: an inter-socket channel is LinkHops
// hop-latencies long, a ring link one.
func (m *MultiRing) LinkTransit(link int) int {
	if link >= m.Sockets*m.PerSocket {
		return m.LinkHops
	}
	return 1
}

// ringPath walks the shorter way around an n-stop ring whose link IDs
// start at base (link base+i joins stops i and i+1 mod n).
func ringPath(a, b, n, base int) []int {
	if a == b {
		return nil
	}
	// Distance going clockwise (increasing indices).
	cw := (b - a + n) % n
	var out []int
	if cw <= n-cw {
		for s := a; s != b; s = (s + 1) % n {
			out = append(out, base+s)
		}
	} else {
		for s := a; s != b; s = (s - 1 + n) % n {
			out = append(out, base+(s-1+n)%n)
		}
	}
	return out
}
