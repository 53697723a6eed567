package topology

import "fmt"

// Star is a two-level hierarchical interconnect: Leaves leaf nodes, each
// hanging off a central hub by its own channel. Every transfer between
// distinct leaves rides up to the hub and back down (2 × HubHops hop
// latencies); a leaf is internally distance zero, so a "node" here is a
// whole coherence domain — a chiplet/CCD, not a core. This is the
// EPYC-style organization: compute dies star-bridged through an IO die
// that owns the directory and the memory controllers.
//
// SocketPerLeaf, when set, classifies every leaf-to-leaf transfer as
// cross-socket. That is how the die-crossing serialization cost is
// modeled: the machine layer charges its CrossSocketPenalty for the
// hub's SerDes + protocol conversion, exactly as it charges QPI/UPI on
// a multi-socket part. DESIGN.md, "Declarative machines", records this
// substitution.
type Star struct {
	Leaves  int
	HubHops int // hop-equivalent cost of one leaf↔hub channel
	// SocketPerLeaf treats each leaf as its own socket domain, so
	// leaf-to-leaf transfers also pay the cross-socket penalty.
	SocketPerLeaf bool
}

// NewStar returns a star of leaves nodes bridged through a hub whose
// channels each cost hubHops hop latencies. hubHops must be at least 1
// so distinct leaves stay at nonzero distance (the metric property all
// topologies guarantee).
func NewStar(leaves, hubHops int, socketPerLeaf bool) *Star {
	if leaves <= 0 {
		panic("topology: star needs at least one leaf")
	}
	if hubHops <= 0 {
		panic("topology: star needs hub hops >= 1")
	}
	return &Star{Leaves: leaves, HubHops: hubHops, SocketPerLeaf: socketPerLeaf}
}

func (s *Star) Name() string { return fmt.Sprintf("star-%dx%d", s.Leaves, s.HubHops) }
func (s *Star) Nodes() int   { return s.Leaves }

// Hops implements Topology: up one channel, down another.
func (s *Star) Hops(a, b int) int {
	checkNode(s, a)
	checkNode(s, b)
	if a == b {
		return 0
	}
	return 2 * s.HubHops
}

// CrossSocket implements Topology.
func (s *Star) CrossSocket(a, b int) bool {
	checkNode(s, a)
	checkNode(s, b)
	return s.SocketPerLeaf && a != b
}

// Links implements Topology: one channel per leaf; the hub core itself is
// non-blocking.
func (s *Star) Links() int { return s.Leaves }

// Path implements Topology: source channel up, destination channel down.
// Each channel's transit is HubHops, so path transit equals Hops.
func (s *Star) Path(a, b int) []int {
	checkNode(s, a)
	checkNode(s, b)
	if a == b {
		return nil
	}
	return []int{a, b}
}

// LinkTransit implements Topology.
func (s *Star) LinkTransit(int) int { return s.HubHops }
