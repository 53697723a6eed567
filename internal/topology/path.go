package topology

// Mesh2D links: horizontal link (x,y)->(x+1,y) has ID y*(Cols-1)+x;
// vertical link (x,y)->(x,y+1) has ID H + x*(Rows-1)+y where H is the
// horizontal link count. Routing is X-then-Y, matching Hops.
func (m *Mesh2D) Links() int {
	return m.Rows*(m.Cols-1) + m.Cols*(m.Rows-1)
}

// LinkTransit implements Topology.
func (m *Mesh2D) LinkTransit(int) int { return 1 }

// Path implements Topology.
func (m *Mesh2D) Path(a, b int) []int {
	checkNode(m, a)
	checkNode(m, b)
	ax, ay := m.Coord(a)
	bx, by := m.Coord(b)
	h := m.Rows * (m.Cols - 1)
	var out []int
	for x := ax; x < bx; x++ {
		out = append(out, ay*(m.Cols-1)+x)
	}
	for x := ax; x > bx; x-- {
		out = append(out, ay*(m.Cols-1)+x-1)
	}
	for y := ay; y < by; y++ {
		out = append(out, h+bx*(m.Rows-1)+y)
	}
	for y := ay; y > by; y-- {
		out = append(out, h+bx*(m.Rows-1)+y-1)
	}
	return out
}

// Crossbar links: one port per node; a transfer crosses the source and
// destination ports (the switch core is non-blocking).
func (c *Crossbar) Links() int { return c.N }

// LinkTransit implements Topology.
func (c *Crossbar) LinkTransit(int) int { return 1 }

// Path implements Topology.
func (c *Crossbar) Path(a, b int) []int {
	checkNode(c, a)
	checkNode(c, b)
	if a == b {
		return nil
	}
	return []int{a} // charge the source port; Hops(a,b) == 1
}
