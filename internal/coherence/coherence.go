// Package coherence simulates a MESI directory-based cache-coherence
// protocol at cache-line granularity. It is the substrate the paper's
// measurements run on: atomic read-modify-writes become request-for-
// ownership (RFO) transactions, the directory serializes requests to a
// line, and the resulting "bouncing" of the line between cores is exactly
// the mechanism the paper's performance model is centered on.
//
// The simulator tracks, per line: the directory state (owner in M/E or a
// sharer set in S), the line's 64-bit value (so CAS success and failure
// are exact, not probabilistic), and a queue of outstanding requests.
// Requests are served one at a time per line; the service cost is the
// topology-dependent transfer latency from wherever the data currently
// lives, plus the execution occupancy the requester declares (the cycles
// a locked instruction holds the line). Which queued request is served
// next is decided by a pluggable Arbiter — the source of the fairness
// differences the paper studies. Every serialized access passes through
// one grant; on an idle line under a stateless arbiter it is granted
// without queueing, with the queued path's observations.
//
// In the model pipeline (ARCHITECTURE.md), this package sits between
// the machine descriptions (internal/machine supplies Params;
// internal/topology supplies hop counts) and the primitive semantics
// (internal/atomics drives Access). serviceCost implements the same
// per-state transfer table MODEL.md §1 states and §2 takes
// expectations over — F7 holds simulator and model against each
// other. The system is the one place accesses are counted: the ledger
// (Classes) counts each completed one by provenance class, which
// energy reads when a measured window closes, and Stats folds the
// ledger and the accesses still in flight into per-source counters,
// which the window's metrics read. Optional
// per-event instrumentation — queueing histograms and occupancy —
// hooks into internal/metrics via InstallMetrics; with no registry
// installed the handles are nil and the access path is unchanged.
package coherence

import (
	"cmp"
	"fmt"
	"slices"

	"atomicsmodel/internal/metrics"
	"atomicsmodel/internal/sim"
	"atomicsmodel/internal/topology"
)

// LineID names a cache line.
type LineID uint64

// Line is a resolved handle to one line's directory entry: what every
// access names its line by, so the access path never looks a line up.
// System.Handle resolves one from a LineID, once, and the caller keeps
// it. A handle lives exactly as long as the entry it points to: from
// Handle until the system's next Reset, which recycles every entry for
// the next run's lines. A handle kept across Reset names whichever line
// reuses its entry, so callers resolve again after every Reset (the
// cell runtime's drivers do it in Setup). The zero Line is "not
// resolved yet" (IsZero); accessing it panics.
type Line struct{ l *lineState }

// ID returns the line's ID.
func (h Line) ID() LineID { return h.l.id }

// IsZero reports whether h is the zero Line, resolved to nothing.
func (h Line) IsZero() bool { return h.l == nil }

// Kind distinguishes the two coherence transactions a core can issue.
type Kind uint8

const (
	// Read requests the line in shared state (a plain load).
	Read Kind = iota
	// RFO requests exclusive ownership (stores and all atomic RMWs).
	RFO
)

func (k Kind) String() string {
	if k == Read {
		return "Read"
	}
	return "RFO"
}

// Source reports where the data for an access was found.
type Source uint8

const (
	// SrcLocal: the requesting core already had sufficient rights.
	SrcLocal Source = iota
	// SrcRemoteCache: the line was forwarded from another core's cache.
	SrcRemoteCache
	// SrcLLC: the line was clean at its home LLC slice.
	SrcLLC
	// SrcDRAM: the line had to be fetched from memory.
	SrcDRAM
)

func (s Source) String() string {
	switch s {
	case SrcLocal:
		return "local"
	case SrcRemoteCache:
		return "remote-cache"
	case SrcLLC:
		return "llc"
	case SrcDRAM:
		return "dram"
	}
	return "unknown"
}

// numSources is the number of Source values a class splits.
const numSources = int(SrcDRAM) + 1

// ClassOf is the provenance class of an access: its data source, the
// hops its transaction travelled and whether the transfer crossed a
// socket — the fields its energy charge depends on (internal/energy).
// Class 0 is the local hit. Hops are outermost, so the classes of
// shorter paths keep their indices whatever the longest path is.
func ClassOf(src Source, hops int, cross bool) int {
	c := (hops*numSources + int(src)) * 2
	if cross {
		c++
	}
	return c
}

// ClassFields returns the source, hops and cross-socket flag of class
// c, inverting ClassOf.
func ClassFields(c int) (src Source, hops int, cross bool) {
	return Source(c / 2 % numSources), c / 2 / numSources, c%2 == 1
}

// Params configures a coherent memory system.
type Params struct {
	// NumCores is the number of private caches (one per physical core;
	// hyperthreads share their core's cache and therefore its coherence
	// state).
	NumCores int
	// Topo is the interconnect. NodeOf maps a core to its network stop.
	Topo   topology.Topology
	NodeOf func(core int) int
	// Pairs is Topo's node-pair table, which a system reads instead of
	// calling Topo and shares with every other reader of the table
	// (machine.Machine.NodePairs). Nil builds one for the system.
	Pairs *topology.PairTable

	// L1Hit is the cost of an access that the core's own cache satisfies.
	L1Hit sim.Time
	// DirLookup is the home-agent processing cost paid by every miss.
	DirLookup sim.Time
	// HopLatency is the cost per network hop of request/data messages.
	HopLatency sim.Time
	// CrossSocketPenalty is added once when requester and data source are
	// in different sockets (the QPI/UPI serialization cost beyond hops).
	CrossSocketPenalty sim.Time
	// LLCHit is the base cost of reading the home LLC slice (on top of
	// the hops to reach it).
	LLCHit sim.Time
	// DRAM is the base cost of a memory fetch (on top of hops to home).
	DRAM sim.Time
	// InvalidateCost is added to an RFO that must invalidate sharers
	// (acknowledgment collection overlaps the data return only partly).
	InvalidateCost sim.Time
	// ForwardSharer enables MESIF-style forwarding: a read miss on a
	// line with sharers is served cache-to-cache by the sharer nearest
	// the requester instead of by the home LLC slice, when that is
	// cheaper. Intel's real protocol does this (the F state); the
	// simulator exposes it as an option so experiments can measure what
	// forwarding is worth.
	ForwardSharer bool
	// LinkOccupancy enables finite interconnect bandwidth: every
	// message reserves each link it crosses for this long, so traffic
	// on one line delays traffic on others sharing those links. Zero
	// (the default) means infinite bandwidth. Messages follow the
	// topology's routes (topology.Topology's Path).
	LinkOccupancy sim.Time
}

func (p *Params) validate() error {
	if p.NumCores <= 0 {
		return fmt.Errorf("coherence: NumCores = %d", p.NumCores)
	}
	if p.Topo == nil || p.NodeOf == nil {
		return fmt.Errorf("coherence: Topo and NodeOf are required")
	}
	if p.Pairs != nil && p.Pairs.Nodes() != p.Topo.Nodes() {
		return fmt.Errorf("coherence: node-pair table covers %d nodes, topology %s has %d",
			p.Pairs.Nodes(), p.Topo.Name(), p.Topo.Nodes())
	}
	for c := 0; c < p.NumCores; c++ {
		n := p.NodeOf(c)
		if n < 0 || n >= p.Topo.Nodes() {
			return fmt.Errorf("coherence: core %d maps to node %d outside topology %s", c, n, p.Topo.Name())
		}
	}
	// Every access must advance simulated time, or a zero-think
	// workload would spin the event loop at one instant forever.
	if p.L1Hit <= 0 {
		return fmt.Errorf("coherence: L1Hit must be positive (got %v)", p.L1Hit)
	}
	if p.DirLookup <= 0 {
		return fmt.Errorf("coherence: DirLookup must be positive (got %v)", p.DirLookup)
	}
	for _, c := range []struct {
		name string
		v    sim.Time
	}{
		{"HopLatency", p.HopLatency}, {"CrossSocketPenalty", p.CrossSocketPenalty},
		{"LLCHit", p.LLCHit}, {"DRAM", p.DRAM}, {"InvalidateCost", p.InvalidateCost},
		{"LinkOccupancy", p.LinkOccupancy},
	} {
		if c.v < 0 {
			return fmt.Errorf("coherence: %s must be non-negative (got %v)", c.name, c.v)
		}
	}
	return nil
}

// AccessResult describes a completed access. One is copied into every
// completion callback, so the word-sized fields come first and the
// byte-sized ones are packed together at the end.
type AccessResult struct {
	// Latency is issue-to-completion time including queueing behind
	// other requests to the same line.
	Latency sim.Time
	// Value is the line's 64-bit value observed at the serialization
	// point of this access (before any write this access performs).
	Value uint64
	// Hops is the total network distance the transaction traversed.
	Hops int
	// QueuedBehind is the number of other requests granted while this
	// one waited in the line's queue (how often it was bypassed; 0 when
	// granted immediately or when it only waited for an in-flight
	// service that had already been granted on arrival).
	QueuedBehind int
	// Source says where the data came from.
	Source Source
	// Wrote reports whether this access modified the line (a failed CAS
	// gains ownership but sets Wrote=false).
	Wrote bool
	// CrossSocket reports whether the transfer crossed a socket.
	CrossSocket bool
}

// TraceEvent is emitted once per completed access to the tracer, for
// line traces (internal/trace) and the cycle memoizer's shape hash
// (internal/workload).
type TraceEvent struct {
	Line   LineID
	Core   int
	Kind   Kind
	Result AccessResult
	At     sim.Time
}

// Apply is the requester's modification, run at the access's
// serialization point with exclusive rights held. cur is the line's
// value; if write is true the line's value becomes next. A plain load
// passes nil. A store returns (v, true) unconditionally; a CAS compares
// cur and decides.
type Apply func(cur uint64) (next uint64, write bool)

// request is one outstanding access waiting at a line's controller.
// Requests are pooled on the System and recycled after completion, so
// steady-state accesses do not allocate one per operation; the two
// completion closures are built once per request object and survive
// recycling (they read everything through the request pointer).
type request struct {
	core   int
	kind   Kind
	phase  reqPhase
	owner  int32    // engine owner of the issuing event; owns the completion
	hold   sim.Time // execution occupancy after data arrival
	apply  Apply
	issued sim.Time
	// skipBase is the line's grant counter at enqueue time; the grants
	// this request waited through is the counter's delta at its own
	// grant, so bypass tracking costs O(1) instead of touching every
	// waiter on every grant. skipped caches that delta once granted.
	skipBase uint64
	skipped  int
	done     func(AccessResult)
	// res is the in-progress result for the service this request was
	// granted (filled by serviceCost, finalized at completion) or, on
	// the non-serialized fast paths, the fully precomputed result.
	res AccessResult
	// line is the line this request is currently operating on.
	line *lineState
	// completeFn finalizes a granted (serialized) service; fastFn
	// finalizes a fast-path access that never queued.
	completeFn func()
	fastFn     func()
}

// reqPhase is where a request is in its life: pooled, waiting in a line
// queue, granted and in service, or on one of the fast paths that
// schedule their completion at issue. The cycle key reads it, and so
// does Stats, which counts every phase from reqService on: those
// requests are issued and priced but not yet in the ledger.
type reqPhase uint8

const (
	reqFree reqPhase = iota
	reqQueued
	reqService
	reqFast   // completeFast: local or pipelined read
	reqParked // a spinner parked on its valid copy (Await)
)

// parkedSpin is a spinner parked on its valid copy (see Await): the
// request its wake completes (res.Value holds the value it waits to see
// change), its engine chain, the chain's ticks already credited, and
// the caller's load counter.
type parkedSpin struct {
	req      *request
	park     sim.ParkID
	credited uint64
	loads    *uint64
}

// lineState is the directory entry plus value for one line.
type lineState struct {
	id    LineID
	home  int // home node (LLC slice / directory)
	value uint64
	// MESI directory: either owner >= 0 with exclusive rights
	// (ownerDirty says M vs E) and empty sharers, or owner == -1 with a
	// (possibly empty) sharer set.
	owner      int
	ownerDirty bool
	sharers    coreSet
	valid      bool // present somewhere on chip (else DRAM)

	busy bool
	// queue[qhead:] is the live request window. Grants advance qhead
	// instead of copying the tail down, so the FIFO common case is O(1)
	// with no pointer writes; the slice is compacted when it empties.
	queue []*request
	qhead int
	// grants counts services granted on this line, ever; paired with
	// request.skipBase it yields each waiter's bypass count in O(1).
	grants uint64
	// parked counts the spinners parked on this line (Await).
	parked int
}

// qlen is the number of requests waiting (the live queue window).
func (l *lineState) qlen() int { return len(l.queue) - l.qhead }

// waiting is the live queue window, oldest first. Arbiters index into
// it; the granted index is relative to this window.
func (l *lineState) waiting() []*request { return l.queue[l.qhead:] }

// reset returns the line to its never-touched state, keeping the queue
// and sharer-set capacity for reuse by a pooled system.
func (l *lineState) reset() {
	l.value = 0
	l.owner = -1
	l.ownerDirty = false
	l.sharers.clear()
	l.valid = false
	l.busy = false
	for i := range l.queue {
		l.queue[i] = nil
	}
	l.queue = l.queue[:0]
	l.qhead = 0
	l.grants = 0
	l.parked = 0
}

// AuditGrant is the auditor's view of one granted (serialized) service:
// the request's identity and queueing history plus the directory state
// after the grant's transition was applied. It is passed by value so
// auditing never allocates on the protocol hot path.
type AuditGrant struct {
	Line LineID
	Core int
	Kind Kind
	// Skipped is how many other services this request waited through.
	Skipped int
	// QueueLen is the number of requests still waiting after this grant.
	QueueLen int
	// Post-transition directory state.
	Owner      int
	OwnerDirty bool
	Sharers    int
	Valid      bool
	At         sim.Time
}

// AuditComplete is the auditor's view of one completed serialized
// service: the 64-bit value observed at the serialization point and the
// value the line holds after any write this access performed.
type AuditComplete struct {
	Line     LineID
	Core     int
	Kind     Kind
	Observed uint64
	Wrote    bool
	New      uint64
	At       sim.Time
}

// Auditor observes protocol-level events for online invariant checking
// (internal/invariant implements it). All methods are called
// synchronously from the simulation; they must not issue accesses.
type Auditor interface {
	// LineEnqueued fires when a request joins a line's queue, and with
	// queueLen 1 before a direct grant on an idle line (fast-path
	// accesses that never serialize do not enqueue).
	LineEnqueued(id LineID, queueLen int)
	// LineGranted fires after a grant's directory transition.
	LineGranted(g AuditGrant)
	// AccessCompleted fires when a granted service completes, after the
	// requester's modification ran.
	AccessCompleted(c AuditComplete)
	// ValueSeeded fires when experiment setup writes a line value
	// directly (SetValue), so value-conservation ledgers can seed.
	ValueSeeded(id LineID, v uint64)
}

// System is a coherent memory system attached to a simulation engine.
type System struct {
	eng    *sim.Engine
	p      Params
	arb    Arbiter
	lines  map[LineID]*lineState
	net    *network // nil when bandwidth modeling is off
	tracer func(TraceEvent)
	aud    Auditor // nil unless invariant checking is installed

	// Hot-path lookup tables, so accesses never call back into the
	// topology or the machine description: thops and tcross are the
	// hop counts and cross-socket flags of every node pair, indexed
	// a*tn+b without range checks (Params.Pairs' arrays, read only),
	// and nodeOf is the core-to-node map, built at NewSystem time.
	thops  []int32
	tcross []bool
	tn     int
	nodeOf []int
	// reqPool recycles request structs (see request); allReqs tracks
	// every request ever created so Reset can reclaim the ones that were
	// still in flight (queued, or held by a pending completion event)
	// when the run was cut off. lineFree recycles directory entries;
	// lineOrder lists the live ones in creation order, so Reset can hand
	// the next run's k-th new line this run's k-th entry — and with it
	// the queue array that line grew — instead of a random one, which
	// would let every pooled entry grow its own copy of the longest
	// queue over many runs. Together they make a pooled system's steady
	// state allocation-free.
	reqPool   []*request
	allReqs   []*request
	lineFree  []*lineState
	lineOrder []*lineState
	// keyReqs is AppendCycleKey's reusable sort buffer.
	keyReqs []*request
	// directGrant is set, together with arb, when the arbiter is a
	// StatelessArbiter: an access to an idle line is then granted
	// without queueing (see Access).
	directGrant bool
	// parking enables parking spinners on their valid copies (see
	// Await); parked lists every spinner parked now.
	parking bool
	parked  []parkedSpin

	// The counters Stats cannot read off the ledger: invalidating RFOs
	// granted and the longest line queue seen.
	nInvals     uint64
	maxQueueLen int
	// classes is the access ledger: completed accesses per provenance
	// class (ClassOf), sized at NewSystem for the longest transaction
	// the topology allows — three legs of at most its diameter each.
	classes []uint64

	// Optional per-event metrics (see internal/metrics). All handles are
	// nil until InstallMetrics; nil handles make every increment below a
	// single-branch no-op, which is the "instrumented-off" fast path the
	// bench suite holds at 0 allocs/op.
	mQueueDepth   *metrics.Histogram
	mQueuedBehind *metrics.Histogram
	// Duration-weighted occupancy vectors (see internal/metrics names
	// and internal/bottleneck): busy picoseconds per directory home
	// node, per tracked line, and per interconnect link.
	mOccDir  *metrics.Vector
	mOccLine *metrics.Vector
	mOccLink *metrics.Vector
	// occLegs lists the links between every node pair: the bandwidth
	// network's routes, built with it, and otherwise the per-link busy
	// time attribution of a metrics registry, built the first time one
	// is installed. It is kept across Reset (it is immutable
	// precomputed state, like the hop tables); nil until one of them
	// needs it.
	occLegs *linkLegs
}

// linkLegs lists the links a message crosses between every (source,
// destination) node pair, in one flat array, and the time crossing
// each link takes: the bandwidth network's transit time, and the busy
// time metrics-on attribution charges the link.
type linkLegs struct {
	// at indexes links: the pair (a, b)'s links are
	// links[at[a*tn+b]:at[a*tn+b+1]], in order.
	at    []int32
	links []int32
	// busy is each link's crossing time: HopLatency times its transit
	// multiple.
	busy []uint64
}

// maxTrackedLines bounds the per-line occupancy vector. Shared
// serialization points occupy the first few line IDs (workloads stripe
// them from ID 1); private low-contention lines live at IDs >= 1e6 and
// fall outside the vector on purpose — a private line is never a
// bottleneck, and the vector's bounds check drops them for free.
const maxTrackedLines = 64

// NewSystem builds a memory system. arb may be nil, which means FIFO.
func NewSystem(eng *sim.Engine, p Params, arb Arbiter) (*System, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	nodeOf := make([]int, p.NumCores)
	for c := range nodeOf {
		nodeOf[c] = p.NodeOf(c)
	}
	if p.Pairs == nil {
		p.Pairs = topology.NewPairTable(p.Topo)
	}
	n := p.Topo.Nodes()
	s := &System{
		eng:    eng,
		p:      p,
		lines:  make(map[LineID]*lineState),
		tn:     n,
		nodeOf: nodeOf,
	}
	s.thops, s.tcross = p.Pairs.Flat()
	if p.LinkOccupancy > 0 {
		s.occLegs = newLinkLegs(p.Topo, n, p.HopLatency)
		s.net = newNetwork(s.occLegs, p.LinkOccupancy)
	}
	s.classes = make([]uint64, ClassOf(SrcDRAM, 3*int(slices.Max(s.thops)), true)+1)
	s.SetArbiter(arb)
	return s, nil
}

// getReq takes a request from the pool (or allocates one, wiring its
// reusable completion closures).
func (s *System) getReq() *request {
	if n := len(s.reqPool); n > 0 {
		r := s.reqPool[n-1]
		s.reqPool = s.reqPool[:n-1]
		return r
	}
	r := &request{}
	r.completeFn = func() { s.completeService(r) }
	r.fastFn = func() { s.completeFast(r) }
	s.allReqs = append(s.allReqs, r)
	return r
}

// putReq recycles a completed request. The caller must not touch it
// afterwards: any later Access may hand it out again.
func (s *System) putReq(r *request) {
	// Drop the per-access closures and line reference for GC; keep the
	// prebaked completion closures.
	r.apply, r.done, r.line = nil, nil, nil
	r.phase = reqFree
	r.skipped = 0
	r.skipBase = 0
	r.res = AccessResult{}
	s.reqPool = append(s.reqPool, r)
}

// pathCost is the total cost of a coherence transaction that sends a
// message chain through the first n entries of nodes with proc of agent
// processing after the first leg (the home's directory lookup plus any
// LLC/DRAM access time). Uncontended it equals proc + Hops*HopLatency;
// with the bandwidth network enabled each leg reserves its links, and
// the processing gap holds the later legs back so a transaction does
// not queue behind its own request message. hops is the distance-
// weighted hop count for stats and energy. nodes is a fixed-size array
// (message chains are at most four stops) so calls stay off the heap.
func (s *System) pathCost(proc sim.Time, nodes [4]int, n int) (total sim.Time, hops int) {
	for i := 1; i < n; i++ {
		hops += int(s.thops[nodes[i-1]*s.tn+nodes[i]])
	}
	if s.net == nil {
		if s.mOccLink != nil {
			// No bandwidth model: charge each traversed link its transit
			// time so utilization still names the hottest wire.
			for i := 1; i < n; i++ {
				leg, o := nodes[i-1]*s.tn+nodes[i], s.occLegs
				for _, l := range o.links[o.at[leg]:o.at[leg+1]] {
					s.mOccLink.Add(int(l), o.busy[l])
				}
			}
		}
		return proc + sim.Time(hops)*s.p.HopLatency, hops
	}
	now := s.eng.Now()
	t := now
	for i := 1; i < n; i++ {
		t += s.net.transit(t, nodes[i-1]*s.tn+nodes[i])
		if i == 1 {
			t += proc
		}
	}
	if n < 2 {
		t += proc
	}
	return t - now, hops
}

// SetTracer installs a per-access callback (nil removes it).
func (s *System) SetTracer(fn func(TraceEvent)) { s.tracer = fn }

// SetAuditor installs a protocol auditor (nil removes it). With no
// auditor installed every audit site is a single nil check, keeping the
// access path allocation-free and byte-identical in behavior.
func (s *System) SetAuditor(a Auditor) { s.aud = a }

// Arbiter returns the line arbiter the system grants with.
func (s *System) Arbiter() Arbiter { return s.arb }

// BreakLine deliberately corrupts a line's directory entry by adding
// ghost as a sharer without clearing the owner — the "two cores both
// believe they hold the line" state a real protocol bug would produce.
// It exists ONLY for fault injection (internal/faults): tests seed it
// and assert the invariant checker reports it. It must never be called
// outside a test or fault plan.
func (s *System) BreakLine(id LineID, ghost int) {
	if ghost < 0 || ghost >= s.p.NumCores {
		panic(fmt.Sprintf("coherence: BreakLine ghost core %d out of range", ghost))
	}
	s.line(id).sharers.add(ghost)
}

// InstallMetrics registers the coherence layer's per-event instruments
// on r and starts feeding them: the directory queueing histograms and
// the occupancy vectors. (Its transfer counters are published from
// Stats when a window closes; see Stats.Publish.) A nil registry (the
// default state) keeps every handle nil and the layer off; see
// internal/metrics for the naming scheme.
func (s *System) InstallMetrics(r *metrics.Registry) {
	s.mQueueDepth = r.Histogram(metrics.CohQueueDepth)
	s.mQueuedBehind = r.Histogram(metrics.CohQueuedBehind)
	// Occupancy vectors: directory busy time per home node, line busy
	// time per tracked line, link busy time per interconnect link. Link
	// attribution needs routing paths: the bandwidth network carries
	// them when it is on; otherwise every node pair's links and their
	// busy times are listed once here (registry installation is setup
	// time, not the hot path).
	s.mOccDir = r.Vector(metrics.CohDirBusy, s.tn)
	s.mOccLine = r.Vector(metrics.CohLineBusy, maxTrackedLines)
	s.mOccLink = r.Vector(metrics.CohLinkBusy, s.p.Topo.Links())
	if s.net != nil {
		s.net.mOccLink = s.mOccLink
	} else if r != nil && s.occLegs == nil {
		s.occLegs = newLinkLegs(s.p.Topo, s.tn, s.p.HopLatency)
	}
}

// newLinkLegs lists topo's links between every pair of its n nodes,
// and charges each link hop times its transit multiple.
func newLinkLegs(topo topology.Topology, n int, hop sim.Time) *linkLegs {
	o := &linkLegs{at: make([]int32, 1, n*n+1), busy: make([]uint64, topo.Links())}
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			for _, l := range topo.Path(a, b) {
				o.links = append(o.links, int32(l))
			}
			o.at = append(o.at, int32(len(o.links)))
		}
	}
	o.links = slices.Clone(o.links) // drop append's spare capacity: the table lives with the system
	for l := range o.busy {
		o.busy[l] = uint64(hop) * uint64(topo.LinkTransit(l))
	}
	return o
}

// SetArbiter replaces the line arbiter (nil means FIFO). Pooled systems
// use it to install each cell's policy; it must not be called while
// requests are in flight.
func (s *System) SetArbiter(arb Arbiter) {
	if arb == nil {
		arb = FIFOArbiter{}
	}
	s.arb = arb
	_, s.directGrant = arb.(StatelessArbiter)
}

// Engine returns the simulation engine the system schedules on.
func (s *System) Engine() *sim.Engine { return s.eng }

// Params returns the system's configuration.
func (s *System) Params() Params { return s.p }

// Handle resolves line id to its handle, creating its directory entry
// on first use. It is a map lookup: callers resolve each line once and
// access it by its handle (see Line for how long a handle lives).
func (s *System) Handle(id LineID) Line { return Line{s.line(id)} }

// line returns line id's directory entry, creating it on first use. The
// access path never calls it: it is Handle's lookup and the setup and
// query calls'.
func (s *System) line(id LineID) *lineState {
	l, ok := s.lines[id]
	if !ok {
		if n := len(s.lineFree); n > 0 {
			l = s.lineFree[n-1]
			s.lineFree[n-1] = nil
			s.lineFree = s.lineFree[:n-1]
			l.id = id
			l.home = int(uint64(id) % uint64(s.tn))
		} else {
			l = &lineState{
				id:      id,
				home:    int(uint64(id) % uint64(s.tn)),
				owner:   -1,
				sharers: newCoreSet(s.p.NumCores),
			}
		}
		s.lines[id] = l
		s.lineOrder = append(s.lineOrder, l)
	}
	return l
}

// SetValue initializes a line's value without simulating an access
// (experiment setup).
func (s *System) SetValue(id LineID, v uint64) {
	s.line(id).value = v
	if s.aud != nil {
		s.aud.ValueSeeded(id, v)
	}
}

// Value reads a line's value without simulating an access (assertions).
func (s *System) Value(id LineID) uint64 { return s.line(id).value }

// EvictPrivate drops all private-cache copies of a line while keeping
// it resident at its home LLC slice (a clean eviction, with any dirty
// data written back). Experiments use it to stage the "LLC hit" initial
// state; it must not be called while requests to the line are in
// flight. Spinners parked on the line lose their copies and wake.
func (s *System) EvictPrivate(id LineID) {
	l := s.line(id)
	if l.busy || l.qlen() > 0 {
		panic("coherence: EvictPrivate on a line with in-flight requests")
	}
	if l.parked > 0 {
		s.unparkLine(l)
	}
	l.owner = -1
	l.ownerDirty = false
	l.sharers.clear()
	// valid retains its value: an untouched line stays in DRAM.
}

// Access issues a coherence transaction from core for the line h
// names. kind selects Read or RFO; hold is the execution occupancy
// charged while the line is held at the serialization point (the locked
// instruction's cycles); apply performs the modification (may be nil
// for loads); done is invoked when the access completes. Access itself
// returns immediately — completion is a simulation event.
func (s *System) Access(core int, h Line, kind Kind, hold sim.Time, apply Apply, done func(AccessResult)) {
	s.access(core, h.l, kind, hold, apply, done)
}

// access is Access on the line's directory entry.
func (s *System) access(core int, l *lineState, kind Kind, hold sim.Time, apply Apply, done func(AccessResult)) {
	if core < 0 || core >= s.p.NumCores {
		panic(fmt.Sprintf("coherence: core %d out of range", core))
	}

	// Fast path: a read that the core's own cache can satisfy does not
	// serialize through the directory — real L1s serve shared lines
	// concurrently. The value is observed at issue time (the line cannot
	// change under a local shared copy without invalidating it first,
	// and invalidations queue behind in-flight completions).
	if kind == Read && (l.owner == core || l.sharers.has(core)) {
		req := s.getReq()
		req.core, req.kind, req.done, req.line = core, kind, done, l
		req.phase, req.owner = reqFast, s.eng.Owner()
		req.res = AccessResult{Latency: s.p.L1Hit, Value: l.value, Source: SrcLocal}
		s.eng.ScheduleAs(req.owner, s.p.L1Hit, req.fastFn)
		return
	}

	// Pipelined shared read: when no core holds the line exclusively
	// and it is resident at its home slice, concurrent read misses are
	// served by the (pipelined, multi-banked) LLC without occupying the
	// line's serialization point. This is what lets TTAS-style spinning
	// refill many waiters' caches in parallel after an invalidation.
	if kind == Read && l.owner == -1 && l.valid {
		cNode := s.nodeOf[core]
		// Choose the data source with uncontended closed-form costs,
		// then reserve (and pay) only the chosen path.
		llcHops := 2 * int(s.thops[cNode*s.tn+l.home])
		llcCost := s.p.DirLookup + s.p.LLCHit + sim.Time(llcHops)*s.p.HopLatency
		useForward := false
		var fNode, fHops int
		var fCross bool
		if s.p.ForwardSharer && !l.sharers.empty() {
			// MESIF: the nearest sharer forwards if that beats the LLC.
			if f, h, ok := s.nearestSharer(l, cNode); ok {
				fNode, fHops = s.nodeOf[f], h
				fCross = s.tcross[cNode*s.tn+fNode]
				fCost := s.p.DirLookup + sim.Time(fHops)*s.p.HopLatency
				if fCross {
					fCost += s.p.CrossSocketPenalty
				}
				useForward = fCost < llcCost
			}
		}
		var cost sim.Time
		var res AccessResult
		if useForward {
			c, hops := s.pathCost(s.p.DirLookup, [4]int{cNode, l.home, fNode, cNode}, 4)
			cost = c
			if fCross {
				cost += s.p.CrossSocketPenalty
			}
			res = AccessResult{Source: SrcRemoteCache, Hops: hops, CrossSocket: fCross}
		} else {
			c, hops := s.pathCost(s.p.DirLookup+s.p.LLCHit, [4]int{cNode, l.home, cNode}, 3)
			cost = c
			res = AccessResult{Source: SrcLLC, Hops: hops}
		}
		// Even a pipelined read occupies the home agent for its lookup.
		s.mOccDir.Add(l.home, uint64(s.p.DirLookup))
		l.sharers.add(core)
		res.Latency = cost
		res.Value = l.value // observed at issue, like the L1 fast path
		req := s.getReq()
		req.core, req.kind, req.done, req.line = core, kind, done, l
		req.phase, req.owner = reqFast, s.eng.Owner()
		req.res = res
		s.eng.ScheduleAs(req.owner, cost, req.fastFn)
		return
	}

	req := s.getReq()
	req.core, req.kind, req.hold = core, kind, hold
	req.phase, req.owner = reqQueued, s.eng.Owner()
	req.apply, req.done, req.issued = apply, done, s.eng.Now()
	req.skipBase = l.grants
	qlen := l.qlen() + 1
	if qlen > s.maxQueueLen {
		s.maxQueueLen = qlen
	}
	s.mQueueDepth.Observe(uint64(qlen))
	if s.aud != nil {
		s.aud.LineEnqueued(l.id, qlen)
	}
	if s.directGrant && !l.busy {
		// An idle line has nobody waiting (a waiter is granted the moment
		// the line frees), so a stateless arbiter's only pick is this
		// request: grant it without the queue round trip.
		s.grant(l, req)
		return
	}
	if l.qhead > 0 && l.qhead == len(l.queue) {
		// The window emptied: rewind so the backing array is reused.
		l.qhead = 0
		l.queue = l.queue[:0]
	} else if l.qhead > 0 && len(l.queue) == cap(l.queue) {
		// About to grow: slide the live window to the front instead.
		// Under sustained contention the head advances but the window
		// stays small, so without this the backing array would double
		// forever. Window order (and thus arbiter indices) is
		// unchanged.
		n := copy(l.queue, l.queue[l.qhead:])
		for i := n; i < len(l.queue); i++ {
			l.queue[i] = nil
		}
		l.queue = l.queue[:n]
		l.qhead = 0
	}
	l.queue = append(l.queue, req)
	if !l.busy {
		s.serveNext(l)
	}
}

// SetParking turns spinner parking (see Await) on or off for
// subsequent accesses. Parking is exact — every counter, metric and
// event position is what the unparked run produces — but it skips the
// per-access tracer, so Await never parks while one is installed. The
// cell runtime (internal/workload) turns it on under the fast-forward
// gate; Reset turns it off.
func (s *System) SetParking(on bool) { s.parking = on }

// Await issues a plain load of the line h names from core, exactly as
// Access(core, h, Read, hold, nil, done) would, on behalf of a spinner
// that re-issues the load for as long as it observes seen
// (atomics.Memory.AwaitChange). With parking on, a load that hits the
// core's own valid copy (as its owner or a sharer) of a line holding
// seen does not schedule its completion: the core parks on the line as
// an engine chain whose every period-L1Hit tick stands for one more
// completed re-read of seen and the identical re-read it issues. The
// spinner wakes when its copy can change — any RFO grant on the line,
// a write to it, EvictPrivate — and the chain's pending tick becomes
// the real completion of its last re-read, which delivers seen to done
// at the very (time, sequence) place the unparked run delivers it.
// Until then each tick's re-read is credited to the ledger's class 0
// and, when loads is non-nil, *loads — settled exactly at every Stats
// and Classes call and on waking (SettleParked).
func (s *System) Await(core int, h Line, hold sim.Time, seen uint64, loads *uint64, done func(AccessResult)) {
	l := h.l
	if s.parking && s.tracer == nil && core >= 0 && core < s.p.NumCores {
		if l.value == seen && (l.owner == core || l.sharers.has(core)) {
			if pid, ok := s.eng.Park(s.eng.Owner(), s.p.L1Hit); ok {
				req := s.getReq()
				req.core, req.kind, req.done, req.line = core, Read, done, l
				req.phase, req.owner = reqParked, s.eng.Owner()
				req.res = AccessResult{Latency: s.p.L1Hit, Value: seen, Source: SrcLocal}
				s.parked = append(s.parked, parkedSpin{req: req, park: pid, loads: loads})
				l.parked++
				return
			}
		}
	}
	s.access(core, l, Read, hold, nil, done)
}

// SettleParked credits every parked spinner's re-reads issued so far —
// one per tick its chain has dispatched — to the ledger's class 0 (each
// tick completes one local hit) and the spinner's load counter. Stats and Classes settle first; a caller
// reading a load counter directly settles before it does.
func (s *System) SettleParked() {
	for i := range s.parked {
		r := &s.parked[i]
		s.creditParked(r, s.eng.ParkTicks(r.park))
	}
}

// ParkedIssuedAt counts the parked spinners whose chains ticked at t.
// Each such tick completed one re-read and stands for the identical
// re-read issued at t; a caller whose loop stops issuing at t (a
// workload loop at the end of its window) takes those back from the
// Stats it read.
func (s *System) ParkedIssuedAt(t sim.Time) uint64 {
	var n uint64
	for _, r := range s.parked {
		if s.eng.ParkTicks(r.park) > 0 && s.eng.ParkDue(r.park) == t+s.p.L1Hit {
			n++
		}
	}
	return n
}

// creditParked credits a parked spinner's re-reads up to its chain's
// ticks count that are not credited yet.
func (s *System) creditParked(r *parkedSpin, ticks uint64) {
	d := ticks - r.credited
	r.credited = ticks
	s.classes[0] += d
	if r.loads != nil {
		*r.loads += d
	}
}

// unparkLine wakes every spinner parked on l: each one's pending tick
// becomes the real completion of its last re-read (a fast-path local
// read of seen), at the tick's own (time, sequence) place.
func (s *System) unparkLine(l *lineState) {
	for i := len(s.parked) - 1; i >= 0; i-- {
		r := s.parked[i]
		if r.req.line != l {
			continue
		}
		last := len(s.parked) - 1
		s.parked[i] = s.parked[last]
		s.parked[last] = parkedSpin{}
		s.parked = s.parked[:last]
		s.creditParked(&r, s.eng.Unpark(r.park, r.req.fastFn))
		r.req.phase = reqFast
	}
	l.parked = 0
}

// nearestSharer returns the sharer core topologically closest to node
// reqNode and the three-leg hop count (requester→home→forwarder→
// requester) of a forward from it.
func (s *System) nearestSharer(l *lineState, reqNode int) (core, hops int, ok bool) {
	best, bestHops := -1, int(^uint(0)>>1)
	l.sharers.forEach(func(c int) {
		n := s.nodeOf[c]
		h := int(s.thops[reqNode*s.tn+l.home] + s.thops[l.home*s.tn+n] + s.thops[n*s.tn+reqNode])
		if h < bestHops {
			best, bestHops = c, h
		}
	})
	if best < 0 {
		return 0, 0, false
	}
	return best, bestHops, true
}

// serveNext grants the arbiter's pick from l's queue, or frees the line
// when nobody waits.
func (s *System) serveNext(l *lineState) {
	if l.qhead == len(l.queue) {
		l.busy = false
		return
	}
	idx := s.arb.Pick(s, l)
	req := l.queue[l.qhead+idx]
	// Remove the pick while preserving arrival order: shift the idx
	// earlier arrivals right one slot and advance the head. FIFO picks
	// index 0, which makes this a single head bump with no copies.
	copy(l.queue[l.qhead+1:l.qhead+idx+1], l.queue[l.qhead:l.qhead+idx])
	l.queue[l.qhead] = nil
	l.qhead++
	s.grant(l, req)
}

// grant starts req's service on l — the line's serialization point:
// it prices the transfer from the directory state, applies the
// directory transition, and schedules the completion. The line stays
// busy until the completion hands it to the next waiter.
func (s *System) grant(l *lineState, req *request) {
	l.busy = true
	req.skipped = int(l.grants - req.skipBase)
	l.grants++

	cost := s.serviceCost(l, req)
	req.line = l
	req.phase = reqService
	s.applyDirectory(l, req)
	if s.aud != nil {
		s.aud.LineGranted(AuditGrant{
			Line: l.id, Core: req.core, Kind: req.kind,
			Skipped: req.skipped, QueueLen: l.qlen(),
			Owner: l.owner, OwnerDirty: l.ownerDirty,
			Sharers: l.sharers.count(), Valid: l.valid,
			At: s.eng.Now(),
		})
	}

	// The line is busy for the transfer plus the execution occupancy;
	// the requester's completion callback fires at the same instant the
	// next request can be granted. That whole span is serialization-
	// point occupancy for the line (IDs past maxTrackedLines are
	// dropped by the vector's bounds check).
	total := cost + req.hold
	s.mOccLine.Add(int(l.id), uint64(total))
	// The completion belongs to the request's issuer, not to whichever
	// event happens to grant it (a completion grants the next waiter).
	s.eng.ScheduleAs(req.owner, total, req.completeFn)
}

// completeService finalizes a granted request at its completion instant:
// it runs the requester's modification, recycles the request, delivers
// the result, and grants the line's next waiter.
func (s *System) completeService(req *request) {
	l := req.line
	res := req.res
	res.Latency = s.eng.Now() - req.issued
	res.QueuedBehind = req.skipped
	s.mQueuedBehind.Observe(uint64(req.skipped))
	res.Value = l.value
	if req.apply != nil {
		if next, write := req.apply(l.value); write {
			l.value = next
			res.Wrote = true
			l.ownerDirty = true
			if l.parked > 0 {
				s.unparkLine(l)
			}
		}
	}
	if s.aud != nil {
		s.aud.AccessCompleted(AuditComplete{
			Line: l.id, Core: req.core, Kind: req.kind,
			Observed: res.Value, Wrote: res.Wrote, New: l.value,
			At: s.eng.Now(),
		})
	}
	core, kind, done := req.core, req.kind, req.done
	// Recycle before the callback runs: done may issue further accesses
	// (workloads chain their next operation from the completion), and
	// those draw from the same pool.
	s.putReq(req)
	s.finish(l, core, kind, &res, done)
	s.serveNext(l)
}

// completeFast finalizes a fast-path access whose result was fully
// precomputed at issue time.
func (s *System) completeFast(req *request) {
	l := req.line
	res := req.res
	core, kind, done := req.core, req.kind, req.done
	s.putReq(req)
	s.finish(l, core, kind, &res, done)
}

// serviceCost computes the transfer latency of a granted request and
// records its provenance in req.res, based on the directory state before
// the request is applied.
func (s *System) serviceCost(l *lineState, req *request) sim.Time {
	res := &req.res
	*res = AccessResult{}
	c := req.core
	cNode := s.nodeOf[c]

	switch {
	case l.owner == c:
		// Requester already owns the line (M or E): pure cache hit.
		// An RFO upgrade from E to M is silent.
		res.Source = SrcLocal
		return s.p.L1Hit

	case req.kind == Read && l.sharers.has(c):
		// Shared hit that raced with a queued service; still local.
		res.Source = SrcLocal
		return s.p.L1Hit

	case l.owner >= 0:
		// Dirty/exclusive in another core's cache: home forwards the
		// request to the owner, owner sends data to the requester.
		oNode := s.nodeOf[l.owner]
		s.mOccDir.Add(l.home, uint64(s.p.DirLookup))
		cost, hops := s.pathCost(s.p.DirLookup, [4]int{cNode, l.home, oNode, cNode}, 4)
		cross := s.tcross[cNode*s.tn+oNode]
		if cross {
			cost += s.p.CrossSocketPenalty
		}
		res.Source = SrcRemoteCache
		res.Hops = hops
		res.CrossSocket = cross
		return cost

	case l.valid:
		// Clean at home LLC; request + data each travel the home
		// distance. RFOs additionally invalidate any sharers. The home
		// agent is occupied for the directory lookup plus the LLC read.
		s.mOccDir.Add(l.home, uint64(s.p.DirLookup+s.p.LLCHit))
		cost, hops := s.pathCost(s.p.DirLookup+s.p.LLCHit, [4]int{cNode, l.home, cNode}, 3)
		if req.kind == RFO && !l.sharers.empty() {
			// Do not count the requester itself as a third-party sharer.
			others := l.sharers.count()
			if l.sharers.has(c) {
				others--
			}
			if others > 0 {
				cost += s.p.InvalidateCost
				s.nInvals++
			}
		}
		res.Source = SrcLLC
		res.Hops = hops
		return cost

	default:
		// Cold: fetch from DRAM through the home memory controller,
		// which is occupied for the lookup plus the memory access.
		s.mOccDir.Add(l.home, uint64(s.p.DirLookup+s.p.DRAM))
		cost, hops := s.pathCost(s.p.DirLookup+s.p.DRAM, [4]int{cNode, l.home, cNode}, 3)
		res.Source = SrcDRAM
		res.Hops = hops
		return cost
	}
}

// applyDirectory transitions the directory for a granted request.
func (s *System) applyDirectory(l *lineState, req *request) {
	c := req.core
	switch req.kind {
	case RFO:
		// Exclusive ownership: everyone else is invalidated, and a
		// spinner parked on the line wakes (one on the requester's own
		// core, a hyperthread sibling, wakes too: the write is coming).
		if l.parked > 0 {
			s.unparkLine(l)
		}
		l.sharers.clear()
		l.owner = c
		// Dirty only once a write happens; E until then. The completion
		// callback sets ownerDirty when apply writes.
		l.ownerDirty = false
		l.valid = true
	case Read:
		if l.owner >= 0 && l.owner != c {
			// Owner downgrades to sharer (M data written back to LLC).
			l.sharers.add(l.owner)
			l.owner = -1
			l.ownerDirty = false
		}
		if l.owner == c {
			// Reading one's own exclusive line keeps ownership.
			break
		}
		if l.sharers.empty() && !l.valid {
			// First toucher gets E.
			l.owner = c
			l.ownerDirty = false
		} else if l.sharers.empty() && l.valid && l.owner < 0 {
			// Sole reader of an LLC-resident line also gets E.
			l.owner = c
			l.ownerDirty = false
		} else {
			l.sharers.add(c)
		}
		l.valid = true
	}
}

// finish delivers a completed access. res points at the caller's local
// copy (already detached from the pooled request, which may be reused by
// accesses the callback issues); passing a pointer avoids one more
// struct copy per access on the hottest path in the simulator.
func (s *System) finish(l *lineState, core int, kind Kind, res *AccessResult, done func(AccessResult)) {
	s.classes[ClassOf(res.Source, res.Hops, res.CrossSocket)]++
	if s.tracer != nil {
		s.tracer(TraceEvent{Line: l.id, Core: core, Kind: kind, Result: *res, At: s.eng.Now()})
	}
	if done != nil {
		done(*res)
	}
}

// Stats is a snapshot of system-wide coherence counters. Its access
// counts cover every access issued on a fast path or granted, whether
// it has completed yet or not; an access still waiting in a line's
// queue is not counted yet.
type Stats struct {
	Accesses    uint64
	LocalHits   uint64
	RemoteXfers uint64
	LLCFills    uint64
	DRAMFills   uint64
	Invals      uint64
	TotalHops   uint64
	CrossSocket uint64
	MaxQueueLen int
	// LinkStall is the cumulative time messages waited for busy links
	// (zero unless bandwidth modeling is on).
	LinkStall sim.Time
}

// rowLen is the number of ledger classes per hop count: each source,
// within the socket and across it (ClassOf).
const rowLen = 2 * numSources

// Stats returns a snapshot of the counters, with the re-reads of
// parked spinners settled (SettleParked) first. The access counts are
// read off the ledger, one hop row at a time, plus every request in
// service, on a fast path or parked, whose result already names its
// class.
func (s *System) Stats() Stats {
	s.SettleParked()
	st := Stats{Invals: s.nInvals, MaxQueueLen: s.maxQueueLen}
	if s.net != nil {
		st.LinkStall = s.net.Stalled()
	}
	for i, hops := 0, uint64(0); i < len(s.classes); i, hops = i+rowLen, hops+1 {
		r := (*[rowLen]uint64)(s.classes[i:])
		local, remote, llc, dram := r[0]+r[1], r[2]+r[3], r[4]+r[5], r[6]+r[7]
		st.LocalHits += local
		st.RemoteXfers += remote
		st.LLCFills += llc
		st.DRAMFills += dram
		st.CrossSocket += r[1] + r[3] + r[5] + r[7]
		st.TotalHops += hops * (local + remote + llc + dram)
	}
	for _, r := range s.allReqs {
		if r.phase < reqService {
			continue
		}
		switch r.res.Source {
		case SrcLocal:
			st.LocalHits++
		case SrcRemoteCache:
			st.RemoteXfers++
		case SrcLLC:
			st.LLCFills++
		case SrcDRAM:
			st.DRAMFills++
		}
		st.TotalHops += uint64(r.res.Hops)
		if r.res.CrossSocket {
			st.CrossSocket++
		}
	}
	st.Accesses = st.LocalHits + st.RemoteXfers + st.LLCFills + st.DRAMFills
	return st
}

// Sub returns the counter delta from the earlier snapshot b to st.
// MaxQueueLen is a maximum, not an accumulator, so the delta keeps
// st's.
func (st Stats) Sub(b Stats) Stats {
	return Stats{
		Accesses:    st.Accesses - b.Accesses,
		LocalHits:   st.LocalHits - b.LocalHits,
		RemoteXfers: st.RemoteXfers - b.RemoteXfers,
		LLCFills:    st.LLCFills - b.LLCFills,
		DRAMFills:   st.DRAMFills - b.DRAMFills,
		Invals:      st.Invals - b.Invals,
		TotalHops:   st.TotalHops - b.TotalHops,
		CrossSocket: st.CrossSocket - b.CrossSocket,
		MaxQueueLen: st.MaxQueueLen,
		LinkStall:   st.LinkStall - b.LinkStall,
	}
}

// Publish adds the counter delta d of a measured window to r as the
// coherence layer's transfer, invalidation and cross-socket counters.
// They are read from the access counters when the window closes, not
// kept per access. A nil registry publishes nothing.
func (d Stats) Publish(r *metrics.Registry) {
	r.Counter(metrics.CohTransferLocal).Add(d.LocalHits)
	r.Counter(metrics.CohTransferRemote).Add(d.RemoteXfers)
	r.Counter(metrics.CohTransferLLC).Add(d.LLCFills)
	r.Counter(metrics.CohTransferDRAM).Add(d.DRAMFills)
	r.Counter(metrics.CohInvalidations).Add(d.Invals)
	r.Counter(metrics.CohCrossSocket).Add(d.CrossSocket)
}

// Classes returns the access ledger: the accesses completed so far per
// provenance class (ClassOf), with the re-reads of parked spinners
// settled (SettleParked) first. The slice is the system's own and keeps
// counting; a caller keeping a baseline copies it.
func (s *System) Classes() []uint64 {
	s.SettleParked()
	return s.classes
}

// Invals returns the invalidating RFOs granted so far.
func (s *System) Invals() uint64 { return s.nInvals }

// MaxQueueLen returns the longest line queue seen so far.
func (s *System) MaxQueueLen() int { return s.maxQueueLen }

// AddScaled adds k copies of the ledger delta classes and of invals
// invalidations — the hook the steady-state cycle memoizer
// (internal/workload) uses to credit the accesses of elided cycles
// exactly as if they had been simulated. Every other Stats counter is
// read off the ledger and the requests in flight, or is a maximum a
// periodic schedule cannot raise past the recorded cycle's value.
func (s *System) AddScaled(classes []uint64, invals, k uint64) {
	for c, n := range classes {
		s.classes[c] += n * k
	}
	s.nInvals += invals * k
}

// ShiftInFlight translates the issue timestamp of every live request by
// delta, alongside sim.Engine.ShiftPending: when the fast-forward layer
// elides k cycles, an in-flight request stands in for its k-cycles-later
// counterpart, whose issue time is exactly delta later. Latency is
// finalized at completion as now−issued, so without this shift the
// requests straddling a jump would absorb the whole elided span into
// their reported latency. Requests in the free pool are shifted too —
// harmless, since issue times are overwritten at issue.
func (s *System) ShiftInFlight(delta sim.Time) {
	for _, r := range s.allReqs {
		r.issued += delta
	}
}

// ShiftValues adds delta to the value of every line in ids and to
// every value a request has precomputed (the line value a fast-path or
// parked read observed at issue) — the fast-forward layer's value
// translation for cells whose control flow depends on line values only
// relative to each other (internal/workload's CAS loop): the state k
// cycles later is the current one with every value advanced by the
// same delta. Pooled requests are shifted too, harmlessly: results are
// overwritten at issue.
func (s *System) ShiftValues(ids []LineID, delta uint64) {
	for _, id := range ids {
		if l := s.lines[id]; l != nil {
			l.value += delta
		}
	}
	for _, r := range s.allReqs {
		r.res.Value += delta
	}
}

// AppendCycleKey appends a compact fingerprint of the protocol state a
// cell runs on — the lines ids plus every request in flight — to dst
// and returns the extended slice. Two instants with equal keys (plus
// equal engine and thread state, which the caller fingerprints
// separately) evolve identically, because everything the access path
// reads is included: each line's directory state, busyness, and live
// queue window in grant order, and for every request in flight its
// owner, phase, line, requester, and the parts of its state its
// completion will read (issue-time offset, bypass count, precomputed
// result). In-flight requests are listed by owner, so which pooled
// request object carries an access does not matter. The raw grant
// counter is excluded (only the per-request delta matters), and so are
// line values unless anchor is non-nil: a value-independent primitive
// never reads them back, while for a value-relative one (CAS) each
// line's value and each precomputed result value enter as offsets
// from *anchor, which advance by the same amount every cycle (see
// ShiftValues). Used by the steady-state cycle memoizer in
// internal/workload; the sort buffer is reused, so the key costs no
// allocation once warm.
func (s *System) AppendCycleKey(dst []byte, ids []LineID, anchor *uint64) []byte {
	now := s.eng.Now()
	for _, id := range ids {
		l := s.lines[id]
		if l == nil {
			dst = append(dst, 0xff)
			continue
		}
		var flags byte
		if l.ownerDirty {
			flags |= 1
		}
		if l.valid {
			flags |= 2
		}
		if l.busy {
			flags |= 4
		}
		dst = append(dst, flags)
		if anchor != nil {
			dst = appendUint64(dst, l.value-*anchor)
		}
		dst = appendUint64(dst, uint64(int64(l.owner)))
		for _, w := range l.sharers.words {
			dst = appendUint64(dst, w)
		}
		dst = appendUint64(dst, uint64(l.qlen()))
		for _, r := range l.waiting() {
			dst = appendReqKey(dst, r, now, l.grants-r.skipBase, anchor)
		}
	}
	flight := s.keyReqs[:0]
	for _, r := range s.allReqs {
		if r.phase != reqFree && r.phase != reqQueued {
			flight = append(flight, r)
		}
	}
	slices.SortStableFunc(flight, func(a, b *request) int { return cmp.Compare(a.owner, b.owner) })
	for _, r := range flight {
		dst = appendUint64(dst, uint64(r.line.id))
		dst = appendReqKey(dst, r, now, uint64(r.skipped), anchor)
	}
	clear(flight)
	s.keyReqs = flight
	return dst
}

// appendReqKey appends one request's fingerprint: the fields its phase
// defines (a fast-path request never set its hold or issue time, so
// those would be stale), plus skip, its bypass count so far.
func appendReqKey(dst []byte, r *request, now sim.Time, skip uint64, anchor *uint64) []byte {
	dst = append(dst, byte(r.phase), byte(r.kind))
	dst = appendUint64(dst, uint64(int64(r.owner)))
	dst = appendUint64(dst, uint64(r.core))
	switch r.phase {
	case reqQueued, reqService:
		dst = appendUint64(dst, uint64(r.hold))
		dst = appendUint64(dst, uint64(now-r.issued))
		dst = appendUint64(dst, skip)
	case reqFast, reqParked:
		// The value was observed at issue; the other phases read it at
		// completion.
		if anchor != nil {
			dst = appendUint64(dst, r.res.Value-*anchor)
		}
	}
	// The result as far as it is known.
	res := &r.res
	dst = appendUint64(dst, uint64(res.Latency))
	dst = appendUint64(dst, uint64(res.Hops))
	var flags byte
	if res.Wrote {
		flags |= 1
	}
	if res.CrossSocket {
		flags |= 2
	}
	return append(dst, byte(res.Source), flags)
}

func appendUint64(dst []byte, v uint64) []byte {
	return append(dst,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// CheckInvariants validates directory consistency for all lines. It is
// called by tests after every workload; violations indicate protocol
// bugs, so it returns a descriptive error rather than panicking. Lines
// are checked in the order they were first resolved (Handle, or a setup
// or query call by ID), not the order accesses first touched them, so
// with several broken lines the error always names the same one.
func (s *System) CheckInvariants() error {
	for _, l := range s.lineOrder {
		id := l.id
		if l.owner >= 0 && !l.sharers.empty() {
			return fmt.Errorf("line %d: owner %d coexists with %d sharers", id, l.owner, l.sharers.count())
		}
		if l.owner >= s.p.NumCores {
			return fmt.Errorf("line %d: owner %d out of range", id, l.owner)
		}
		if !l.valid && (l.owner >= 0 || !l.sharers.empty()) {
			return fmt.Errorf("line %d: cached but not valid", id)
		}
		if l.busy && l.qlen() == 0 && s.eng.Pending() == 0 {
			return fmt.Errorf("line %d: busy with no pending completion", id)
		}
	}
	// A parked spinner stands for re-reads that each hit its own valid
	// copy and observe the value it waits on, so both must still hold,
	// and its chain must have exactly one pending tick.
	for _, p := range s.parked {
		r, l := p.req, p.req.line
		if !l.valid || (l.owner != r.core && !l.sharers.has(r.core)) {
			return fmt.Errorf("line %d: core %d parked without a valid copy", l.id, r.core)
		}
		if l.value != r.res.Value {
			return fmt.Errorf("line %d: core %d parked on value %d, line holds %d", l.id, r.core, r.res.Value, l.value)
		}
		if n := s.eng.ParkEntries(p.park); n != 1 {
			return fmt.Errorf("line %d: core %d parked with %d pending ticks, want 1", l.id, r.core, n)
		}
	}
	return nil
}

// LineDirectory is a read-only view of a line's directory entry, for
// tests and debugging.
type LineDirectory struct {
	Owner   int
	Dirty   bool
	Sharers []int
	Valid   bool
	Home    int
	Queue   int
}

// Directory returns the current directory entry for a line.
func (s *System) Directory(id LineID) LineDirectory {
	l := s.line(id)
	var sh []int
	l.sharers.forEach(func(c int) { sh = append(sh, c) })
	return LineDirectory{Owner: l.owner, Dirty: l.ownerDirty, Sharers: sh, Valid: l.valid, Home: l.home, Queue: l.qlen()}
}

// Reset returns the system to its just-constructed state — no lines, no
// hooks, zeroed counters — while keeping every allocation (request
// pool, up to the finished run's count of directory entries, queue
// arrays, network tables) for reuse. A
// reset system behaves byte-identically to a freshly built one with the
// same engine, params, and arbiter; the cell pool (internal/workload)
// relies on this to run cells without per-cell allocation. The caller
// is responsible for resetting the engine and the arbiter's own state
// (a RandomArbiter's RNG stream).
func (s *System) Reset() {
	// Newest first, so the oldest line is popped first next run.
	touched := len(s.lineOrder)
	for i := touched - 1; i >= 0; i-- {
		l := s.lineOrder[i]
		l.reset()
		s.lineFree = append(s.lineFree, l)
		s.lineOrder[i] = nil
	}
	s.lineOrder = s.lineOrder[:0]
	// Pool no more entries than this run touched: a cell over thousands
	// of lines (a stack's nodes, a deque's buffers) must not stay
	// resident behind every later cell over a handful. The entries
	// dropped are the leftovers at the bottom of the stack, which this
	// run did not reuse.
	if extra := len(s.lineFree) - touched; extra > 0 {
		n := copy(s.lineFree, s.lineFree[extra:])
		clear(s.lineFree[n:])
		s.lineFree = s.lineFree[:n]
	}
	clear(s.lines)
	s.tracer = nil
	s.aud = nil
	// Parked spinners die with the engine's reset, like any pending
	// event; their requests are reclaimed below.
	clear(s.parked)
	s.parked = s.parked[:0]
	s.parking = false
	// Reclaim every request, including those that were still queued or
	// had pending completion events when the run was cut off at its
	// horizon — the engine reset dropped those events, so the objects
	// are free again.
	s.reqPool = s.reqPool[:0]
	for _, r := range s.allReqs {
		r.apply, r.done, r.line = nil, nil, nil
		r.phase = reqFree
		r.skipped = 0
		r.skipBase = 0
		r.res = AccessResult{}
		s.reqPool = append(s.reqPool, r)
	}
	s.nInvals, s.maxQueueLen = 0, 0
	clear(s.classes)
	s.mQueueDepth, s.mQueuedBehind = nil, nil
	// occLegs survives: it is immutable precomputed topology state.
	s.mOccDir, s.mOccLine, s.mOccLink = nil, nil, nil
	if s.net != nil {
		s.net.Reset()
	}
}
