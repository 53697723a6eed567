package machine

import "fmt"

// Placement maps n logical workload threads onto hardware-thread slots.
// It returns the chosen slot IDs in thread order. In the paper this is
// done with pthread affinity; in the simulator placement is an explicit
// input, which is the substitution that sidesteps Go's scheduler.
type Placement interface {
	Name() string
	// Place returns n distinct hardware-thread slots of m, or an error
	// if n exceeds the machine's capacity.
	Place(m *Machine, n int) ([]int, error)
}

func checkCapacity(m *Machine, n int) error {
	if n <= 0 {
		return fmt.Errorf("machine: placement of %d threads", n)
	}
	if n > m.NumHWThreads() {
		return fmt.Errorf("machine: %d threads exceed %s's %d hw threads", n, m.Name, m.NumHWThreads())
	}
	return nil
}

// PlaceCores places n threads with p (nil means Compact) and returns
// their physical cores in thread order, the form that model
// predictions and workload cells consume.
func PlaceCores(m *Machine, p Placement, n int) ([]int, error) {
	if p == nil {
		p = Compact{}
	}
	slots, err := p.Place(m, n)
	if err != nil {
		return nil, err
	}
	for i, s := range slots {
		slots[i] = m.CoreOf(s) // Place returns a fresh slice
	}
	return slots, nil
}

// Compact fills cores in index order (socket 0 first), one hyperthread
// per core, and only starts using second hyperthreads when every core
// has one thread. This is the paper's default pinning: contention stays
// on-socket as long as possible.
type Compact struct{}

func (Compact) Name() string { return "compact" }

func (Compact) Place(m *Machine, n int) ([]int, error) {
	if err := checkCapacity(m, n); err != nil {
		return nil, err
	}
	out := make([]int, n)
	for i := 0; i < n; i++ {
		out[i] = i // slot i is hyperthread i/cores of core i%cores
	}
	return out, nil
}

// Scatter round-robins threads across sockets first, then across cores,
// maximizing cross-socket traffic — the worst case for a bounced line.
type Scatter struct{}

func (Scatter) Name() string { return "scatter" }

func (Scatter) Place(m *Machine, n int) ([]int, error) {
	if err := checkCapacity(m, n); err != nil {
		return nil, err
	}
	cores := m.NumCores()
	perSocket := m.CoresPerSocket
	out := make([]int, 0, n)
	// Visit cores socket-alternating: s0c0, s1c0, s0c1, s1c1, ...
	for ht := 0; ht < m.ThreadsPerCore && len(out) < n; ht++ {
		for c := 0; c < perSocket && len(out) < n; c++ {
			for s := 0; s < m.Sockets && len(out) < n; s++ {
				core := s*perSocket + c
				out = append(out, ht*cores+core)
			}
		}
	}
	return out, nil
}

// SMTFirst packs hyperthreads of each core before moving to the next
// core: n threads occupy only ceil(n/ThreadsPerCore) cores. On KNL this
// keeps contending threads on shared L1s, which is the cheapest possible
// communication — the paper's "threads per core" axis.
type SMTFirst struct{}

func (SMTFirst) Name() string { return "smt-first" }

func (SMTFirst) Place(m *Machine, n int) ([]int, error) {
	if err := checkCapacity(m, n); err != nil {
		return nil, err
	}
	cores := m.NumCores()
	out := make([]int, 0, n)
	for c := 0; c < cores && len(out) < n; c++ {
		for ht := 0; ht < m.ThreadsPerCore && len(out) < n; ht++ {
			out = append(out, ht*cores+c)
		}
	}
	return out, nil
}

// SingleSocket restricts placement to one socket (filling hyperthreads
// when cores run out). It errors if n exceeds the socket's capacity.
type SingleSocket struct {
	Socket int
}

func (p SingleSocket) Name() string { return fmt.Sprintf("socket-%d", p.Socket) }

func (p SingleSocket) Place(m *Machine, n int) ([]int, error) {
	if p.Socket < 0 || p.Socket >= m.Sockets {
		return nil, fmt.Errorf("machine: %s has no socket %d", m.Name, p.Socket)
	}
	capacity := m.CoresPerSocket * m.ThreadsPerCore
	if n <= 0 || n > capacity {
		return nil, fmt.Errorf("machine: %d threads exceed socket capacity %d", n, capacity)
	}
	cores := m.NumCores()
	out := make([]int, 0, n)
	for ht := 0; ht < m.ThreadsPerCore && len(out) < n; ht++ {
		for c := 0; c < m.CoresPerSocket && len(out) < n; c++ {
			core := p.Socket*m.CoresPerSocket + c
			out = append(out, ht*cores+core)
		}
	}
	return out, nil
}

// PlacementByName resolves a placement flag or workload-spec value.
// "socket-N" accepts any non-negative socket index; whether the machine
// actually has that socket is checked at Place time, since the name is
// resolved before a machine is chosen.
func PlacementByName(name string) (Placement, error) {
	switch name {
	case "compact", "":
		return Compact{}, nil
	case "scatter":
		return Scatter{}, nil
	case "smt-first", "smt":
		return SMTFirst{}, nil
	}
	var socket int
	if n, err := fmt.Sscanf(name, "socket-%d", &socket); err == nil && n == 1 &&
		name == fmt.Sprintf("socket-%d", socket) && socket >= 0 {
		return SingleSocket{Socket: socket}, nil
	}
	return nil, fmt.Errorf("machine: unknown placement %q (want one of %v)", name, PlacementNames())
}

// PlacementNames lists the placement names PlacementByName accepts;
// "socket-N" stands for any non-negative socket index.
func PlacementNames() []string {
	return []string{"compact", "scatter", "smt-first", "socket-N"}
}
