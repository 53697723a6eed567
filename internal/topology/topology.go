// Package topology models on-chip and cross-socket interconnects at the
// granularity the paper's cache-line bouncing model needs: the number of
// network hops a cache-line transfer traverses between two nodes, and
// whether the transfer crosses a socket boundary.
//
// A "node" is a network stop (a tile holding one core on KNL, one core's
// ring stop on Xeon E5). The machine package maps hardware threads onto
// nodes; this package is purely geometric.
//
// In the model pipeline (ARCHITECTURE.md) both the simulator
// (internal/coherence) and the detailed analytical model
// (internal/core) read hop counts from here — the d(·,·) of MODEL.md
// §1. Every shape is also constructible by name from flat integer
// parameters through the builder registry (Build/RegisterBuilder), the
// hook declarative machine specs (internal/machine) select their
// interconnect with. ARCHITECTURE.md, "How do I add a new machine",
// covers adding a topology.
package topology

import (
	"fmt"
	"slices"
	"sync"
)

// Topology describes an interconnect's geometry.
type Topology interface {
	// Name identifies the topology in tables and logs.
	Name() string
	// Nodes is the number of network stops.
	Nodes() int
	// Hops returns the number of link traversals for a message from node
	// a to node b. Hops(a, a) is 0. Implementations panic on out-of-range
	// nodes: node indices come from machine descriptions, so a bad index
	// is a programming error, not an input error.
	Hops(a, b int) int
	// CrossSocket reports whether a transfer between a and b leaves the
	// socket (and therefore pays the inter-socket link latency).
	CrossSocket(a, b int) bool
	// Links is the number of link resources, each serially occupied
	// under finite bandwidth; link IDs are dense in [0, Links()).
	Links() int
	// Path lists the links a message from a to b crosses, in order, by
	// deterministic dimension-ordered or shortest-way routing; the
	// LinkTransit weights along it sum to Hops(a, b).
	Path(a, b int) []int
	// LinkTransit is the hop-latency multiple for crossing one link: 1
	// for an on-die link, more for one channel that Hops weights as
	// several hops (MultiRing's inter-socket, Star's hub channels).
	LinkTransit(link int) int
}

func checkNode(t Topology, n int) {
	if n < 0 || n >= t.Nodes() {
		panic(fmt.Sprintf("topology: node %d out of range [0,%d)", n, t.Nodes()))
	}
}

// Mesh2D is a 2D mesh with dimension-ordered (X then Y) routing, the KNL
// tile fabric. Node i sits at (i%Cols, i/Cols).
type Mesh2D struct {
	Cols, Rows int
}

// NewMesh2D returns a cols x rows mesh.
func NewMesh2D(cols, rows int) *Mesh2D {
	if cols <= 0 || rows <= 0 {
		panic("topology: mesh dimensions must be positive")
	}
	return &Mesh2D{Cols: cols, Rows: rows}
}

func (m *Mesh2D) Name() string { return fmt.Sprintf("mesh-%dx%d", m.Cols, m.Rows) }
func (m *Mesh2D) Nodes() int   { return m.Cols * m.Rows }

// Coord returns the (x, y) position of node n.
func (m *Mesh2D) Coord(n int) (x, y int) { return n % m.Cols, n / m.Cols }

func (m *Mesh2D) Hops(a, b int) int {
	checkNode(m, a)
	checkNode(m, b)
	ax, ay := m.Coord(a)
	bx, by := m.Coord(b)
	dx, dy := ax-bx, ay-by
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// CrossSocket is always false: KNL is a single-socket part.
func (m *Mesh2D) CrossSocket(a, b int) bool { return false }

// Crossbar is an idealized all-to-all interconnect where every remote
// transfer costs exactly one hop. It exists for model ablations: running
// an experiment on a crossbar isolates protocol serialization from
// topology distance effects.
type Crossbar struct {
	N int
}

// NewCrossbar returns an ideal crossbar over n nodes.
func NewCrossbar(n int) *Crossbar {
	if n <= 0 {
		panic("topology: crossbar needs at least one node")
	}
	return &Crossbar{N: n}
}

func (c *Crossbar) Name() string { return fmt.Sprintf("crossbar-%d", c.N) }
func (c *Crossbar) Nodes() int   { return c.N }

func (c *Crossbar) Hops(a, b int) int {
	checkNode(c, a)
	checkNode(c, b)
	if a == b {
		return 0
	}
	return 1
}

func (c *Crossbar) CrossSocket(a, b int) bool { return false }

// PairTable is a topology's hop count and cross-socket flag for every
// ordered pair of nodes, read by index instead of by a call through
// the Topology interface, and, on demand, its route table (Routes). It
// is immutable once built, so any number of goroutines may read one.
type PairTable struct {
	n     int
	hops  []int32
	cross []bool
	// topo is the tabulated topology; routes is its route table once
	// Routes has built it.
	topo       Topology
	routesOnce sync.Once
	routes     *Routes
}

// NewPairTable tabulates t's Hops and CrossSocket over all node pairs.
func NewPairTable(t Topology) *PairTable {
	n := t.Nodes()
	p := &PairTable{n: n, hops: make([]int32, n*n), cross: make([]bool, n*n), topo: t}
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			p.hops[a*n+b] = int32(t.Hops(a, b))
			p.cross[a*n+b] = t.CrossSocket(a, b)
		}
	}
	return p
}

// Hops is the topology's Hops(a, b). Like it, it panics on an
// out-of-range node: a row of the table is sliced first, so a node
// outside it never reads another pair's entry.
func (p *PairTable) Hops(a, b int) int { return int(p.hops[a*p.n : (a+1)*p.n][b]) }

// CrossSocket is the topology's CrossSocket(a, b).
func (p *PairTable) CrossSocket(a, b int) bool { return p.cross[a*p.n : (a+1)*p.n][b] }

// Nodes is the number of nodes the table covers.
func (p *PairTable) Nodes() int { return p.n }

// Flat returns the whole table as two flat arrays indexed a*Nodes()+b:
// the hop counts and the cross-socket flags. They are the table's own
// arrays, shared with every other reader, so the caller must not write
// them.
func (p *PairTable) Flat() (hops []int32, cross []bool) { return p.hops, p.cross }

// Routes returns the route table of the tabulated topology. It is
// built on the first call and shared by every later one, so each
// reader of a shared pair table (machine.Machine.NodePairs) shares its
// routes too; concurrent callers wait for that one build.
func (p *PairTable) Routes() *Routes {
	p.routesOnce.Do(func() { p.routes = newRoutes(p.topo) })
	return p.routes
}

// Routes lists the links a message crosses between every ordered pair
// of a topology's nodes (its Path), in one flat table. It is immutable
// once built, so any number of goroutines may read one.
type Routes struct {
	// at indexes links: the pair (a, b)'s links are
	// links[at[a*n+b]:at[a*n+b+1]], in order.
	at    []int32
	links []int32
}

// newRoutes tabulates t's Path over all node pairs.
func newRoutes(t Topology) *Routes {
	n := t.Nodes()
	r := &Routes{at: make([]int32, 1, n*n+1)}
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			for _, l := range t.Path(a, b) {
				r.links = append(r.links, int32(l))
			}
			r.at = append(r.at, int32(len(r.links)))
		}
	}
	r.links = slices.Clone(r.links) // drop append's spare capacity: the table is long-lived
	return r
}

// Leg returns the links of the pair (a, b) whose index leg is
// a*Nodes()+b, in order: the route of Path(a, b). The slice is the
// table's own, shared with every other reader, so the caller must not
// write it.
func (r *Routes) Leg(leg int) []int32 { return r.links[r.at[leg]:r.at[leg+1]] }
