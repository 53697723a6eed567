package topology

// Dense is a precomputed view of a topology: hop distances and
// cross-socket flags for every node pair are materialized into flat
// matrices at construction, so the per-message lookups the coherence
// simulator performs millions of times per experiment are single array
// reads instead of repeated modulo/routing arithmetic.
//
// Dense implements Topology and is observationally identical to its
// base (same Name, Nodes, Hops and CrossSocket values), so wrapping a
// topology never changes simulation results.
type Dense struct {
	base  Topology
	n     int
	hops  []int32 // n*n, row-major
	cross []bool  // n*n, row-major
}

// NewDense precomputes the hop and cross-socket matrices of t. Wrapping
// an already-dense topology returns it unchanged.
func NewDense(t Topology) *Dense {
	if d, ok := t.(*Dense); ok {
		return d
	}
	if dr, ok := t.(*DenseRouter); ok {
		return dr.Dense
	}
	n := t.Nodes()
	d := &Dense{
		base:  t,
		n:     n,
		hops:  make([]int32, n*n),
		cross: make([]bool, n*n),
	}
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			d.hops[a*n+b] = int32(t.Hops(a, b))
			d.cross[a*n+b] = t.CrossSocket(a, b)
		}
	}
	return d
}

// Tables exposes the raw hop and cross-socket matrices (row-major,
// n*n entries). The coherence simulator's innermost loops index them
// directly, skipping the node-range checks of the accessor methods;
// callers must treat both slices as read-only and keep indices in
// range themselves.
func (d *Dense) Tables() (hops []int32, cross []bool, n int) {
	return d.hops, d.cross, d.n
}

// Name implements Topology; the dense view keeps the base's identity.
func (d *Dense) Name() string { return d.base.Name() }

// Nodes implements Topology.
func (d *Dense) Nodes() int { return d.n }

// Hops implements Topology as one table read.
func (d *Dense) Hops(a, b int) int {
	checkNode(d, a)
	checkNode(d, b)
	return int(d.hops[a*d.n+b])
}

// CrossSocket implements Topology as one table read.
func (d *Dense) CrossSocket(a, b int) bool {
	checkNode(d, a)
	checkNode(d, b)
	return d.cross[a*d.n+b]
}

// DenseRouter extends Dense with interned routing paths and a per-link
// transit table, for the finite-bandwidth network model: Path returns a
// precomputed shared slice instead of allocating one per message leg.
type DenseRouter struct {
	*Dense
	router  Router
	links   int
	paths   [][]int // n*n interned link sequences; callers must not modify
	transit []int   // per-link hop-latency multiples
}

// NewDenseRouter precomputes hop, cross-socket, path and link-transit
// tables for r. Wrapping an already-dense router returns it unchanged.
func NewDenseRouter(r Router) *DenseRouter {
	if dr, ok := r.(*DenseRouter); ok {
		return dr
	}
	d := NewDense(r)
	n := d.n
	dr := &DenseRouter{
		Dense:   d,
		router:  r,
		links:   r.Links(),
		paths:   make([][]int, n*n),
		transit: make([]int, r.Links()),
	}
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			dr.paths[a*n+b] = r.Path(a, b)
		}
	}
	for l := 0; l < dr.links; l++ {
		dr.transit[l] = r.LinkTransit(l)
	}
	return dr
}

// Links implements Router.
func (dr *DenseRouter) Links() int { return dr.links }

// Path implements Router. The returned slice is shared and must be
// treated as read-only.
func (dr *DenseRouter) Path(a, b int) []int {
	checkNode(dr, a)
	checkNode(dr, b)
	return dr.paths[a*dr.n+b]
}

// LinkTransit implements Router as one table read.
func (dr *DenseRouter) LinkTransit(link int) int { return dr.transit[link] }
