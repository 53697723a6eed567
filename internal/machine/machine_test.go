package machine

import (
	"sync"
	"testing"

	"atomicsmodel/internal/sim"
	"atomicsmodel/internal/topology"
)

func TestXeonE5Shape(t *testing.T) {
	m := XeonE5()
	if m.NumCores() != 36 {
		t.Errorf("cores = %d, want 36", m.NumCores())
	}
	if m.NumHWThreads() != 72 {
		t.Errorf("hw threads = %d, want 72", m.NumHWThreads())
	}
	if m.Topo.Nodes() != 36 {
		t.Errorf("nodes = %d, want 36", m.Topo.Nodes())
	}
	// Slot 40 is the second hyperthread of core 4.
	if m.CoreOf(40) != 4 {
		t.Errorf("CoreOf(40) = %d, want 4", m.CoreOf(40))
	}
	if m.SocketOf(17) != 0 || m.SocketOf(18) != 1 {
		t.Error("socket boundary wrong")
	}
}

func TestKNLShape(t *testing.T) {
	m := KNL()
	if m.NumCores() != 64 || m.NumHWThreads() != 256 {
		t.Errorf("KNL %d cores %d threads", m.NumCores(), m.NumHWThreads())
	}
	// Cores 0 and 1 share tile 0; cores 62,63 share tile 31.
	if m.NodeOf(0) != 0 || m.NodeOf(1) != 0 {
		t.Error("cores 0,1 should share tile 0")
	}
	if m.NodeOf(63) != 31 {
		t.Errorf("NodeOf(63) = %d, want 31", m.NodeOf(63))
	}
	if m.NodeOf(63) >= m.Topo.Nodes() {
		t.Error("tile outside mesh")
	}
}

func TestCyclesConversion(t *testing.T) {
	m := XeonE5() // 2.4 GHz: 1 cycle = 416.66 ps
	c := m.Cycles(24)
	want := sim.Time(10 * sim.Nanosecond)
	if c != want {
		t.Errorf("Cycles(24) = %v, want %v", c, want)
	}
}

func TestLatencyOrdering(t *testing.T) {
	for _, m := range All() {
		l := m.Lat
		if !(l.L1Hit < l.LLCHit && l.LLCHit < l.DRAM) {
			t.Errorf("%s: L1 < LLC < DRAM violated: %v %v %v", m.Name, l.L1Hit, l.LLCHit, l.DRAM)
		}
		if l.ExecFAA > l.ExecCAS {
			t.Errorf("%s: FAA should not be pricier than CAS", m.Name)
		}
		if l.ExecLoad > l.ExecStore || l.ExecStore > l.ExecTAS {
			t.Errorf("%s: exec ordering load <= store <= tas violated", m.Name)
		}
	}
}

func TestUncontendedAtomicMagnitude(t *testing.T) {
	// Sanity: an owned-line FAA on Xeon should land near the published
	// ~21 cycles (~8.75 ns); on KNL it should be markedly slower.
	x := XeonE5()
	faa := x.Lat.L1Hit + x.Lat.ExecFAA
	if cyc := float64(faa) / float64(x.Cycles(1)); cyc < 15 || cyc > 30 {
		t.Errorf("Xeon owned-line FAA = %.1f cycles, want ~21", cyc)
	}
	k := KNL()
	if k.Lat.L1Hit+k.Lat.ExecFAA <= faa {
		t.Error("KNL atomic should be slower than Xeon in wall time")
	}
}

func TestCoherenceParamsValid(t *testing.T) {
	for _, m := range All() {
		p := m.CoherenceParams()
		if p.NumCores != m.NumCores() {
			t.Errorf("%s params cores", m.Name)
		}
		for c := 0; c < p.NumCores; c++ {
			n := p.NodeOf(c)
			if n < 0 || n >= p.Topo.Nodes() {
				t.Errorf("%s: core %d -> node %d out of range", m.Name, c, n)
			}
		}
	}
}

func TestCoreOfPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	XeonE5().CoreOf(72)
}

func TestByName(t *testing.T) {
	for _, name := range []string{"XeonE5", "xeon", "KNL", "knl", "Ideal"} {
		if _, err := ByName(name); err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("ByName accepted junk")
	}
}

func TestStringHasKeyFacts(t *testing.T) {
	s := XeonE5().String()
	for _, want := range []string{"XeonE5", "2×18", "2.4"} {
		if !contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func distinct(t *testing.T, slots []int) {
	t.Helper()
	seen := map[int]bool{}
	for _, s := range slots {
		if seen[s] {
			t.Fatalf("duplicate slot %d in %v", s, slots)
		}
		seen[s] = true
	}
}

func TestCompactPlacement(t *testing.T) {
	m := XeonE5()
	slots, err := Compact{}.Place(m, 36)
	if err != nil {
		t.Fatal(err)
	}
	distinct(t, slots)
	// 36 threads on 36 distinct cores, no hyperthread sharing.
	cores := map[int]bool{}
	for _, s := range slots {
		cores[m.CoreOf(s)] = true
	}
	if len(cores) != 36 {
		t.Fatalf("compact used %d cores, want 36", len(cores))
	}
	// First 18 threads all on socket 0.
	slots18, _ := Compact{}.Place(m, 18)
	for _, s := range slots18 {
		if m.SocketOf(m.CoreOf(s)) != 0 {
			t.Fatal("compact leaked to socket 1 before filling socket 0")
		}
	}
	// Oversubscribe into hyperthreads.
	slots72, err := Compact{}.Place(m, 72)
	if err != nil {
		t.Fatal(err)
	}
	distinct(t, slots72)
}

func TestScatterPlacement(t *testing.T) {
	m := XeonE5()
	slots, err := Scatter{}.Place(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	distinct(t, slots)
	// Alternating sockets: 0,1,0,1.
	want := []int{0, 1, 0, 1}
	for i, s := range slots {
		if m.SocketOf(m.CoreOf(s)) != want[i] {
			t.Fatalf("scatter sockets = %v at %d", slots, i)
		}
	}
}

// TestPlaceCores: a nil placement is Compact, and cores come back in
// thread order, one CoreOf per placed slot.
func TestPlaceCores(t *testing.T) {
	m := XeonE5()
	for _, p := range []Placement{nil, Scatter{}} {
		cores, err := PlaceCores(m, p, 40)
		if err != nil {
			t.Fatal(err)
		}
		if p == nil {
			p = Compact{}
		}
		slots, _ := p.Place(m, 40)
		for i, s := range slots {
			if cores[i] != m.CoreOf(s) {
				t.Fatalf("%s: thread %d on core %d, want %d", p.Name(), i, cores[i], m.CoreOf(s))
			}
		}
	}
	if _, err := PlaceCores(m, nil, 1000); err == nil {
		t.Fatal("PlaceCores accepted more threads than the machine has")
	}
}

func TestSMTFirstPlacement(t *testing.T) {
	m := KNL()
	slots, err := SMTFirst{}.Place(m, 8)
	if err != nil {
		t.Fatal(err)
	}
	distinct(t, slots)
	// 8 threads, 4 per core: exactly 2 cores used.
	cores := map[int]bool{}
	for _, s := range slots {
		cores[m.CoreOf(s)] = true
	}
	if len(cores) != 2 {
		t.Fatalf("smt-first used %d cores, want 2", len(cores))
	}
}

func TestSingleSocketPlacement(t *testing.T) {
	m := XeonE5()
	slots, err := SingleSocket{Socket: 1}.Place(m, 30)
	if err != nil {
		t.Fatal(err)
	}
	distinct(t, slots)
	for _, s := range slots {
		if m.SocketOf(m.CoreOf(s)) != 1 {
			t.Fatal("thread escaped socket 1")
		}
	}
	if _, err := (SingleSocket{Socket: 1}).Place(m, 37); err == nil {
		t.Error("oversubscription accepted")
	}
	if _, err := (SingleSocket{Socket: 5}).Place(m, 1); err == nil {
		t.Error("bad socket accepted")
	}
}

func TestPlacementCapacityErrors(t *testing.T) {
	m := XeonE5()
	for _, p := range []Placement{Compact{}, Scatter{}, SMTFirst{}} {
		if _, err := p.Place(m, 0); err == nil {
			t.Errorf("%s accepted 0 threads", p.Name())
		}
		if _, err := p.Place(m, 73); err == nil {
			t.Errorf("%s accepted 73 threads", p.Name())
		}
		// Full capacity must work and be distinct.
		slots, err := p.Place(m, 72)
		if err != nil {
			t.Errorf("%s rejected full capacity: %v", p.Name(), err)
			continue
		}
		distinct(t, slots)
	}
}

func TestPlacementByName(t *testing.T) {
	for _, name := range []string{"compact", "scatter", "smt-first", "socket-0", "socket-1", ""} {
		if _, err := PlacementByName(name); err != nil {
			t.Errorf("PlacementByName(%q): %v", name, err)
		}
	}
	if _, err := PlacementByName("zigzag"); err == nil {
		t.Error("junk placement accepted")
	}
}

func TestXeonMultiSocket(t *testing.T) {
	m4 := XeonMultiSocket(4)
	if m4.NumCores() != 72 || m4.Sockets != 4 {
		t.Fatalf("4S shape: %d cores %d sockets", m4.NumCores(), m4.Sockets)
	}
	// Two-socket variant matches XeonE5's latencies and distances.
	m2 := XeonMultiSocket(2)
	base := XeonE5()
	if m2.Lat != base.Lat {
		t.Fatal("2S latency table diverged from XeonE5")
	}
	for a := 0; a < 36; a += 5 {
		for b := 0; b < 36; b += 7 {
			if m2.Topo.Hops(a, b) != base.Topo.Hops(a, b) {
				t.Fatalf("2S hops differ at (%d,%d)", a, b)
			}
		}
	}
	// Cross-socket classification spans all pairs on 4S.
	if !m4.Topo.CrossSocket(m4.NodeOf(0), m4.NodeOf(54)) {
		t.Fatal("socket 0 to socket 3 not cross-socket")
	}
	p := m4.CoherenceParams()
	for c := 0; c < p.NumCores; c++ {
		if n := p.NodeOf(c); n < 0 || n >= p.Topo.Nodes() {
			t.Fatalf("core %d maps to node %d outside topology", c, n)
		}
	}
}

func TestIdealMachine(t *testing.T) {
	m := Ideal(8)
	if m.NumCores() != 8 || m.NumHWThreads() != 8 {
		t.Error("ideal shape")
	}
	if m.Topo.Hops(0, 7) != 1 {
		t.Error("ideal should be 1-hop")
	}
}

// TestNodePairsSharedAcrossCopies: a built machine and its copies,
// read from several goroutines at once, share one node-pair table that
// agrees with Topo, and a copy given another Topo gets that topology's
// table instead.
func TestNodePairsSharedAcrossCopies(t *testing.T) {
	base := XeonE5()
	tables := make([]*topology.PairTable, 8)
	var wg sync.WaitGroup
	for i := range tables {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cp := *base
			cp.Lat.HopLatency *= 2
			tables[i] = cp.NodePairs()
		}(i)
	}
	wg.Wait()
	for i, pt := range tables {
		if pt != base.NodePairs() {
			t.Fatalf("copy %d built its own node-pair table", i)
		}
	}
	n := base.Topo.Nodes()
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if tables[0].Hops(a, b) != base.Topo.Hops(a, b) || tables[0].CrossSocket(a, b) != base.Topo.CrossSocket(a, b) {
				t.Fatalf("node pair (%d,%d) disagrees with %s", a, b, base.Topo.Name())
			}
		}
	}
	other := *base
	other.Topo = topology.NewCrossbar(n)
	if pt := other.NodePairs(); pt == tables[0] || pt.Hops(0, n-1) != 1 || pt.CrossSocket(0, n-1) {
		t.Fatal("a copy with a replaced Topo read its base's node-pair table")
	}
}
