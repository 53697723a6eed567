package coherence

import (
	"fmt"
	"slices"
	"testing"

	"atomicsmodel/internal/metrics"
	"atomicsmodel/internal/sim"
	"atomicsmodel/internal/topology"
)

// testSystem builds a small 8-core single-ring system with easily
// recognizable latency constants.
func testSystem(t *testing.T, arb Arbiter) (*sim.Engine, *System) {
	t.Helper()
	eng := sim.NewEngine()
	p := Params{
		NumCores:           8,
		Topo:               topology.NewRing(8),
		NodeOf:             func(c int) int { return c },
		L1Hit:              1 * sim.Nanosecond,
		DirLookup:          2 * sim.Nanosecond,
		HopLatency:         1 * sim.Nanosecond,
		CrossSocketPenalty: 0,
		LLCHit:             10 * sim.Nanosecond,
		DRAM:               60 * sim.Nanosecond,
		InvalidateCost:     3 * sim.Nanosecond,
	}
	s, err := NewSystem(eng, p, arb)
	if err != nil {
		t.Fatal(err)
	}
	return eng, s
}

// access runs one access to completion and returns the result.
func access(t *testing.T, eng *sim.Engine, s *System, core int, id LineID, kind Kind, hold sim.Time, apply Apply) AccessResult {
	t.Helper()
	var got *AccessResult
	s.Access(core, s.Handle(id), kind, hold, apply, func(r AccessResult) { got = &r })
	eng.Drain()
	if got == nil {
		t.Fatal("access did not complete")
	}
	return *got
}

func storeApply(v uint64) Apply {
	return func(cur uint64) (uint64, bool) { return v, true }
}

func TestColdReadComesFromDRAM(t *testing.T) {
	eng, s := testSystem(t, nil)
	res := access(t, eng, s, 0, 16, Read, 0, nil) // line 16: home node 0
	if res.Source != SrcDRAM {
		t.Fatalf("source = %v, want dram", res.Source)
	}
	// Core 0, home node 0: hops 0. Cost = DirLookup + DRAM = 62ns.
	if res.Latency != 62*sim.Nanosecond {
		t.Fatalf("latency = %v, want 62ns", res.Latency)
	}
	d := s.Directory(16)
	if d.Owner != 0 || len(d.Sharers) != 0 {
		t.Fatalf("first toucher should get E: %+v", d)
	}
}

func TestReadHitAfterFill(t *testing.T) {
	eng, s := testSystem(t, nil)
	access(t, eng, s, 0, 16, Read, 0, nil)
	res := access(t, eng, s, 0, 16, Read, 0, nil)
	if res.Source != SrcLocal || res.Latency != 1*sim.Nanosecond {
		t.Fatalf("second read: %+v, want local 1ns", res)
	}
}

func TestSecondReaderSharesLine(t *testing.T) {
	eng, s := testSystem(t, nil)
	access(t, eng, s, 0, 16, Read, 0, nil)
	res := access(t, eng, s, 1, 16, Read, 0, nil)
	// Owner (core 0, E) forwards: remote-cache source.
	if res.Source != SrcRemoteCache {
		t.Fatalf("source = %v, want remote-cache", res.Source)
	}
	d := s.Directory(16)
	if d.Owner != -1 || len(d.Sharers) != 2 {
		t.Fatalf("directory after share: %+v", d)
	}
	// Both cores now hit locally.
	for core := 0; core < 2; core++ {
		r := access(t, eng, s, core, 16, Read, 0, nil)
		if r.Source != SrcLocal {
			t.Fatalf("core %d re-read source = %v", core, r.Source)
		}
	}
}

func TestRFOInvalidatesSharers(t *testing.T) {
	eng, s := testSystem(t, nil)
	for core := 0; core < 4; core++ {
		access(t, eng, s, core, 16, Read, 0, nil)
	}
	res := access(t, eng, s, 5, 16, RFO, 0, storeApply(7))
	if res.Source != SrcLLC {
		t.Fatalf("RFO of shared line source = %v, want llc", res.Source)
	}
	d := s.Directory(16)
	if d.Owner != 5 || len(d.Sharers) != 0 {
		t.Fatalf("directory after RFO: %+v", d)
	}
	if s.Value(16) != 7 {
		t.Fatalf("value = %d, want 7", s.Value(16))
	}
	if s.Stats().Invals != 1 {
		t.Fatalf("invals = %d, want 1", s.Stats().Invals)
	}
	// Former sharers must miss now.
	r := access(t, eng, s, 0, 16, Read, 0, nil)
	if r.Source != SrcRemoteCache {
		t.Fatalf("invalidated sharer re-read source = %v", r.Source)
	}
}

func TestOwnedRFOIsLocal(t *testing.T) {
	eng, s := testSystem(t, nil)
	access(t, eng, s, 3, 16, RFO, 0, storeApply(1))
	res := access(t, eng, s, 3, 16, RFO, 0, storeApply(2))
	if res.Source != SrcLocal || res.Latency != 1*sim.Nanosecond {
		t.Fatalf("owned RFO: %+v, want local 1ns", res)
	}
}

// logAuditor records the auditor calls it sees, in order.
type logAuditor struct{ log []string }

func (a *logAuditor) LineEnqueued(id LineID, n int) {
	a.log = append(a.log, fmt.Sprintf("enqueued %d len=%d", id, n))
}
func (a *logAuditor) LineGranted(g AuditGrant) {
	a.log = append(a.log, fmt.Sprintf("granted %d core=%d queue=%d skipped=%d", g.Line, g.Core, g.QueueLen, g.Skipped))
}
func (a *logAuditor) AccessCompleted(c AuditComplete) {
	a.log = append(a.log, fmt.Sprintf("completed %d core=%d wrote=%v", c.Line, c.Core, c.Wrote))
}
func (a *logAuditor) ValueSeeded(LineID, uint64) {}

// TestDirectGrantObservations pins the contract of the direct grant: an
// uncontended RFO on an idle line (here by its owner) skips the queue
// under a stateless arbiter, yet an auditor and a metrics registry see
// exactly what the queued path — which a stateful arbiter still takes —
// shows them for a one-deep queue.
func TestDirectGrantObservations(t *testing.T) {
	for _, arb := range []Arbiter{FIFOArbiter{}, NewRandomArbiter(1)} {
		eng, s := testSystem(t, arb)
		access(t, eng, s, 3, 16, RFO, 0, storeApply(1))
		aud, reg := &logAuditor{}, metrics.New()
		s.SetAuditor(aud)
		s.InstallMetrics(reg)
		res := access(t, eng, s, 3, 16, RFO, 0, storeApply(2))
		want := []string{"enqueued 16 len=1", "granted 16 core=3 queue=0 skipped=0", "completed 16 core=3 wrote=true"}
		if !slices.Equal(aud.log, want) {
			t.Errorf("%s: auditor saw %q, want %q", arb.Name(), aud.log, want)
		}
		if h := reg.Histogram(metrics.CohQueueDepth); h.Count() != 1 || h.Max() != 1 {
			t.Errorf("%s: queue depth observed %d times, max %d; want once, 1", arb.Name(), h.Count(), h.Max())
		}
		if res.Source != SrcLocal || res.Latency != sim.Nanosecond || res.QueuedBehind != 0 {
			t.Errorf("%s: owned RFO %+v, want local 1ns, queued behind 0", arb.Name(), res)
		}
		if st := s.Stats(); st.MaxQueueLen != 1 {
			t.Errorf("%s: max queue length %d, want 1", arb.Name(), st.MaxQueueLen)
		}
		// Only the stateful arbiter's accesses went through the queue.
		_, stateless := arb.(StatelessArbiter)
		if queued := s.lines[16].queue != nil; queued == stateless {
			t.Errorf("%s: line queue used = %v, want %v", arb.Name(), queued, !stateless)
		}
	}
}

func TestDirtyLineForwardedBetweenCores(t *testing.T) {
	eng, s := testSystem(t, nil)
	access(t, eng, s, 0, 16, RFO, 0, storeApply(42))
	res := access(t, eng, s, 4, 16, RFO, 0, storeApply(43))
	if res.Source != SrcRemoteCache {
		t.Fatalf("source = %v, want remote-cache", res.Source)
	}
	// Requester node 4, home 0, owner node 0:
	// hops(4,0)+hops(0,0)+hops(0,4) = 4+0+4 = 8. Cost = 2 + 8 = 10ns.
	if res.Hops != 8 || res.Latency != 10*sim.Nanosecond {
		t.Fatalf("hops=%d latency=%v, want 8 hops 10ns", res.Hops, res.Latency)
	}
	if res.Value != 42 {
		t.Fatalf("observed value %d, want 42 before own write", res.Value)
	}
	if s.Value(16) != 43 {
		t.Fatalf("final value %d, want 43", s.Value(16))
	}
}

func TestCASSemantics(t *testing.T) {
	eng, s := testSystem(t, nil)
	s.SetValue(16, 100)
	cas := func(expect, next uint64) Apply {
		return func(cur uint64) (uint64, bool) {
			if cur == expect {
				return next, true
			}
			return cur, false
		}
	}
	res := access(t, eng, s, 0, 16, RFO, 0, cas(100, 200))
	if !res.Wrote || s.Value(16) != 200 {
		t.Fatalf("successful CAS: wrote=%v value=%d", res.Wrote, s.Value(16))
	}
	res = access(t, eng, s, 1, 16, RFO, 0, cas(100, 300))
	if res.Wrote || s.Value(16) != 200 {
		t.Fatalf("failed CAS: wrote=%v value=%d", res.Wrote, s.Value(16))
	}
	if res.Value != 200 {
		t.Fatalf("failed CAS observed %d, want 200", res.Value)
	}
	// Failed CAS still acquired ownership.
	if d := s.Directory(16); d.Owner != 1 {
		t.Fatalf("failed CAS owner = %d, want 1", d.Owner)
	}
}

func TestContendedRequestsSerialize(t *testing.T) {
	eng, s := testSystem(t, nil)
	// Warm the line on core 0.
	access(t, eng, s, 0, 16, RFO, 0, storeApply(0))

	const hold = 5 * sim.Nanosecond
	var completions []sim.Time
	var order []int
	for core := 1; core <= 3; core++ {
		core := core
		s.Access(core, s.Handle(16), RFO, hold, storeApply(uint64(core)), func(r AccessResult) {
			completions = append(completions, eng.Now())
			order = append(order, core)
		})
	}
	eng.Drain()
	if len(completions) != 3 {
		t.Fatalf("completions = %d", len(completions))
	}
	// FIFO: cores complete in issue order.
	for i, c := range order {
		if c != i+1 {
			t.Fatalf("completion order %v, want [1 2 3]", order)
		}
	}
	// Strictly increasing completion times (serialized).
	for i := 1; i < len(completions); i++ {
		if completions[i] <= completions[i-1] {
			t.Fatalf("services overlapped: %v", completions)
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestQueuedBehindCounts(t *testing.T) {
	eng, s := testSystem(t, nil)
	access(t, eng, s, 0, 16, RFO, 0, storeApply(0))
	var behinds []int
	for core := 1; core <= 4; core++ {
		s.Access(core, s.Handle(16), RFO, 0, storeApply(1), func(r AccessResult) {
			behinds = append(behinds, r.QueuedBehind)
		})
	}
	eng.Drain()
	// Core 1 is granted synchronously (line idle); cores 2..4 queue and
	// are bypassed by each grant that happens while they wait.
	want := []int{0, 0, 1, 2}
	for i := range want {
		if behinds[i] != want[i] {
			t.Fatalf("behinds = %v, want %v", behinds, want)
		}
	}
}

func TestLocalityArbiterPrefersNearCore(t *testing.T) {
	eng, s := testSystem(t, &LocalityArbiter{})
	// Owner at core 0; requests from core 7 (1 hop) and core 4 (4 hops)
	// arrive while the line is busy serving core 0's warm-up... instead:
	// enqueue both while line busy with a long first service.
	var order []int
	s.Access(0, s.Handle(16), RFO, 20*sim.Nanosecond, storeApply(0), func(AccessResult) {
		order = append(order, 0)
	})
	// These two queue behind core 0's service; locality should pick 7
	// (adjacent to owner 0 on the ring) before 4 (opposite side).
	s.Access(4, s.Handle(16), RFO, 0, storeApply(4), func(AccessResult) { order = append(order, 4) })
	s.Access(7, s.Handle(16), RFO, 0, storeApply(7), func(AccessResult) { order = append(order, 7) })
	eng.Drain()
	if len(order) != 3 || order[1] != 7 || order[2] != 4 {
		t.Fatalf("locality order = %v, want [0 7 4]", order)
	}
}

func TestLocalityArbiterStarvationBound(t *testing.T) {
	eng, s := testSystem(t, &LocalityArbiter{MaxSkips: 2})
	// Keep the line ping-ponging between cores 0 and 1 while core 4
	// waits; the bound must let core 4 in after 2 skips.
	served4 := false
	skips := -1
	s.Access(0, s.Handle(16), RFO, sim.Nanosecond, storeApply(0), nil)
	s.Access(4, s.Handle(16), RFO, sim.Nanosecond, storeApply(4), func(r AccessResult) {
		served4 = true
		skips = r.QueuedBehind
	})
	// A stream of near requests that would otherwise always win.
	for i := 0; i < 6; i++ {
		core := i % 2
		s.Access(core, s.Handle(16), RFO, sim.Nanosecond, storeApply(uint64(core)), nil)
	}
	eng.Drain()
	if !served4 {
		t.Fatal("far core was never served")
	}
	if skips > 2 {
		t.Fatalf("far core skipped %d times, bound is 2", skips)
	}
}

func TestRandomArbiterServesEveryone(t *testing.T) {
	eng, s := testSystem(t, NewRandomArbiter(1))
	served := map[int]bool{}
	s.Access(0, s.Handle(16), RFO, sim.Nanosecond, storeApply(0), nil)
	for core := 1; core < 8; core++ {
		core := core
		s.Access(core, s.Handle(16), RFO, 0, storeApply(uint64(core)), func(AccessResult) { served[core] = true })
	}
	eng.Drain()
	if len(served) != 7 {
		t.Fatalf("served %d cores, want 7", len(served))
	}
}

func TestHoldTimeExtendsService(t *testing.T) {
	eng, s := testSystem(t, nil)
	access(t, eng, s, 0, 16, RFO, 0, storeApply(0))
	start := eng.Now()
	res := access(t, eng, s, 0, 16, RFO, 7*sim.Nanosecond, storeApply(1))
	if res.Latency != 8*sim.Nanosecond { // L1Hit 1 + hold 7
		t.Fatalf("latency with hold = %v, want 8ns", res.Latency)
	}
	_ = start
}

func TestStatsCounters(t *testing.T) {
	eng, s := testSystem(t, nil)
	access(t, eng, s, 0, 16, Read, 0, nil)          // DRAM
	access(t, eng, s, 0, 16, Read, 0, nil)          // local
	access(t, eng, s, 1, 16, Read, 0, nil)          // remote (owner E forwards)
	access(t, eng, s, 2, 16, RFO, 0, storeApply(1)) // LLC + inval
	st := s.Stats()
	if st.Accesses != 4 {
		t.Errorf("accesses = %d, want 4", st.Accesses)
	}
	if st.DRAMFills != 1 || st.LocalHits != 1 || st.RemoteXfers != 1 || st.LLCFills != 1 {
		t.Errorf("counter mix: %+v", st)
	}
	if st.Invals != 1 {
		t.Errorf("invals = %d, want 1", st.Invals)
	}
}

func TestValueLinearizability(t *testing.T) {
	// N cores each perform k fetch-and-increments; final value must be
	// exactly N*k regardless of arbitration policy.
	for _, arb := range []Arbiter{FIFOArbiter{}, NewRandomArbiter(3), &LocalityArbiter{MaxSkips: 8}} {
		eng, s := testSystem(t, arb)
		inc := func(cur uint64) (uint64, bool) { return cur + 1, true }
		const cores, k = 8, 50
		var done func(core, i int)
		done = func(core, i int) {
			if i == k {
				return
			}
			s.Access(core, s.Handle(16), RFO, sim.Nanosecond, inc, func(AccessResult) {
				done(core, i+1)
			})
		}
		for c := 0; c < cores; c++ {
			done(c, 0)
		}
		eng.Drain()
		if got := s.Value(16); got != cores*k {
			t.Errorf("%s: final value %d, want %d", arb.Name(), got, cores*k)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Errorf("%s: %v", arb.Name(), err)
		}
	}
}

func TestSeparateLinesDoNotSerialize(t *testing.T) {
	eng, s := testSystem(t, nil)
	// Warm two lines on two cores, then issue long-hold RFOs to both at
	// the same instant; they should complete concurrently (same time),
	// not back to back.
	access(t, eng, s, 0, 100, RFO, 0, storeApply(0))
	access(t, eng, s, 1, 101, RFO, 0, storeApply(0))
	var t100, t101 sim.Time
	s.Access(0, s.Handle(100), RFO, 10*sim.Nanosecond, storeApply(1), func(AccessResult) { t100 = eng.Now() })
	s.Access(1, s.Handle(101), RFO, 10*sim.Nanosecond, storeApply(1), func(AccessResult) { t101 = eng.Now() })
	eng.Drain()
	if t100 != t101 {
		t.Fatalf("independent lines serialized: %v vs %v", t100, t101)
	}
}

func TestHomeNodeSpreadsAcrossTopology(t *testing.T) {
	_, s := testSystem(t, nil)
	seen := map[int]bool{}
	for id := LineID(0); id < 64; id++ {
		seen[s.Directory(id).Home] = true
	}
	if len(seen) != 8 {
		t.Fatalf("homes used = %d, want 8", len(seen))
	}
}

func TestBadParams(t *testing.T) {
	eng := sim.NewEngine()
	_, err := NewSystem(eng, Params{}, nil)
	if err == nil {
		t.Fatal("empty params accepted")
	}
	_, err = NewSystem(eng, Params{
		NumCores: 4,
		Topo:     topology.NewRing(2),
		NodeOf:   func(c int) int { return c }, // cores 2,3 out of range
	}, nil)
	if err == nil {
		t.Fatal("out-of-range NodeOf accepted")
	}
}

func TestAccessPanicsOnBadCore(t *testing.T) {
	_, s := testSystem(t, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for bad core")
		}
	}()
	s.Access(99, s.Handle(0), Read, 0, nil, nil)
}

func TestKindAndSourceStrings(t *testing.T) {
	if Read.String() != "Read" || RFO.String() != "RFO" {
		t.Error("Kind strings")
	}
	for _, c := range []struct {
		s    Source
		want string
	}{{SrcLocal, "local"}, {SrcRemoteCache, "remote-cache"}, {SrcLLC, "llc"}, {SrcDRAM, "dram"}} {
		if c.s.String() != c.want {
			t.Errorf("Source %d = %q, want %q", c.s, c.s.String(), c.want)
		}
	}
}

func TestMESIFForwardingFromNearSharer(t *testing.T) {
	eng := sim.NewEngine()
	p := Params{
		NumCores:       8,
		Topo:           topology.NewRing(8),
		NodeOf:         func(c int) int { return c },
		L1Hit:          1 * sim.Nanosecond,
		DirLookup:      2 * sim.Nanosecond,
		HopLatency:     1 * sim.Nanosecond,
		LLCHit:         40 * sim.Nanosecond, // expensive LLC: forwarding wins
		DRAM:           100 * sim.Nanosecond,
		InvalidateCost: 3 * sim.Nanosecond,
		ForwardSharer:  true,
	}
	s, err := NewSystem(eng, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Build a shared line (home of line 16 is node 0): owner then reader.
	access(t, eng, s, 2, 16, Read, 0, nil)
	access(t, eng, s, 3, 16, Read, 0, nil) // now S with sharers {2,3}
	// Core 4 reads: nearest sharer is core 3 (1 hop away); forward cost
	// = dir 2 + hops(4,0)+hops(0,3)+hops(3,4) = 2 + 4+3+1 = 10ns,
	// beating LLC (2 + 40 + 2*4 = 50ns).
	res := access(t, eng, s, 4, 16, Read, 0, nil)
	if res.Source != SrcRemoteCache {
		t.Fatalf("source = %v, want forwarded remote-cache", res.Source)
	}
	if res.Latency != 10*sim.Nanosecond {
		t.Fatalf("forwarded latency = %v, want 10ns", res.Latency)
	}
	// Without forwarding the same read pays the LLC.
	p.ForwardSharer = false
	eng2 := sim.NewEngine()
	s2, _ := NewSystem(eng2, p, nil)
	access(t, eng2, s2, 2, 16, Read, 0, nil)
	access(t, eng2, s2, 3, 16, Read, 0, nil)
	res2 := access(t, eng2, s2, 4, 16, Read, 0, nil)
	if res2.Source != SrcLLC || res2.Latency <= res.Latency {
		t.Fatalf("MESI read: %+v, want costlier LLC fill", res2)
	}
}

func TestMESIFFallsBackToLLCWhenCheaper(t *testing.T) {
	eng := sim.NewEngine()
	p := Params{
		NumCores:      8,
		Topo:          topology.NewRing(8),
		NodeOf:        func(c int) int { return c },
		L1Hit:         1 * sim.Nanosecond,
		DirLookup:     2 * sim.Nanosecond,
		HopLatency:    10 * sim.Nanosecond, // hops dominate: LLC wins
		LLCHit:        5 * sim.Nanosecond,
		DRAM:          100 * sim.Nanosecond,
		ForwardSharer: true,
	}
	s, err := NewSystem(eng, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	access(t, eng, s, 4, 16, Read, 0, nil) // E at core 4 (far from home 0)
	access(t, eng, s, 5, 16, Read, 0, nil) // S {4,5}
	// Core 0 sits on the home node: LLC trip = 2+5+0 = 7ns; any forward
	// pays >= 2 + 10*stuff.
	res := access(t, eng, s, 0, 16, Read, 0, nil)
	if res.Source != SrcLLC {
		t.Fatalf("source = %v, want LLC (cheaper than forwarding)", res.Source)
	}
}

func TestTracerSeesEveryAccess(t *testing.T) {
	eng, s := testSystem(t, nil)
	n := 0
	s.SetTracer(func(TraceEvent) { n++ })
	access(t, eng, s, 0, 16, Read, 0, nil)
	access(t, eng, s, 0, 16, Read, 0, nil)
	access(t, eng, s, 1, 16, RFO, 0, storeApply(1))
	if n != 3 {
		t.Fatalf("tracer saw %d events, want 3", n)
	}
}

// TestClassesCountEveryCompletion drives accesses down every path —
// the L1 fast path, a pipelined LLC read, a MESIF forward, and granted
// services from the requester's own cache, another core's in and across
// sockets, the LLC and DRAM — and requires the ledger to grow by
// exactly one count per completion, in the class of the access's own
// result. Reset clears it.
func TestClassesCountEveryCompletion(t *testing.T) {
	eng := sim.NewEngine()
	s, err := NewSystem(eng, Params{
		NumCores:           8,
		Topo:               topology.NewDualRing(4, 2),
		NodeOf:             func(c int) int { return c },
		L1Hit:              1 * sim.Nanosecond,
		DirLookup:          2 * sim.Nanosecond,
		HopLatency:         1 * sim.Nanosecond,
		CrossSocketPenalty: 5 * sim.Nanosecond,
		LLCHit:             40 * sim.Nanosecond,
		DRAM:               60 * sim.Nanosecond,
		InvalidateCost:     3 * sim.Nanosecond,
		ForwardSharer:      true,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	const id LineID = 16
	steps := []struct {
		core  int
		kind  Kind
		evict bool // EvictPrivate first
		src   Source
		cross bool
	}{
		{0, RFO, false, SrcDRAM, false},        // cold fill
		{0, RFO, false, SrcLocal, false},       // owner's granted RFO
		{0, Read, false, SrcLocal, false},      // L1 fast path
		{1, RFO, false, SrcRemoteCache, false}, // owner forward, same socket
		{5, RFO, false, SrcRemoteCache, true},  // owner forward, across sockets
		{6, Read, false, SrcRemoteCache, false},
		{7, Read, false, SrcRemoteCache, false}, // MESIF forward from a sharer
		{2, RFO, false, SrcLLC, false},          // LLC fill invalidating sharers
		{3, Read, true, SrcLLC, false},          // pipelined LLC read
	}
	prev := slices.Clone(s.Classes())
	for i, st := range steps {
		if st.evict {
			s.EvictPrivate(id)
		}
		var apply Apply
		if st.kind == RFO {
			apply = storeApply(uint64(i))
		}
		res := access(t, eng, s, st.core, id, st.kind, 0, apply)
		if res.Source != st.src || res.CrossSocket != st.cross {
			t.Fatalf("step %d: source %v cross %v, want %v %v", i, res.Source, res.CrossSocket, st.src, st.cross)
		}
		want := slices.Clone(prev)
		want[ClassOf(res.Source, res.Hops, res.CrossSocket)]++
		if got := s.Classes(); !slices.Equal(got, want) {
			t.Fatalf("step %d (%v, %d hops): ledger %v, want %v", i, res.Source, res.Hops, got, want)
		}
		prev = slices.Clone(s.Classes())
	}
	if src, hops, cross := ClassFields(ClassOf(SrcRemoteCache, 9, true)); src != SrcRemoteCache || hops != 9 || !cross {
		t.Errorf("ClassFields does not invert ClassOf: %v %d %v", src, hops, cross)
	}
	s.Reset()
	for c, n := range s.Classes() {
		if n != 0 {
			t.Fatalf("class %d holds %d after Reset", c, n)
		}
	}
}

// TestResetPoolsOnlyTouchedLines pins Reset's line-state bound: the
// pool keeps at most as many free entries as the finished run touched,
// so a run over many lines followed by a run over few leaves only the
// smaller count pooled — and a repeat of the small run takes every
// entry it needs from the pool.
func TestResetPoolsOnlyTouchedLines(t *testing.T) {
	_, s := testSystem(t, nil)
	touch := func(n int) {
		for i := 0; i < n; i++ {
			s.SetValue(LineID(100+i), 1)
		}
	}
	touch(1000)
	s.Reset()
	if got := len(s.lineFree); got != 1000 {
		t.Fatalf("after a 1000-line run: %d pooled line states, want 1000", got)
	}
	touch(10)
	s.Reset()
	if got := len(s.lineFree); got != 10 {
		t.Fatalf("after a 10-line run: %d pooled line states, want 10", got)
	}
	allocs := testing.AllocsPerRun(5, func() {
		touch(10)
		s.Reset()
	})
	if allocs != 0 {
		t.Fatalf("a repeated 10-line run allocates %v times, want 0", allocs)
	}
}

// TestCycleKeyValueRelative: with an anchor, the cycle key holds line
// values and precomputed result values as offsets from it, so shifting
// every value and the anchor together leaves the key unchanged, while
// moving one value alone changes it. Without an anchor values are left
// out. An in-flight read delivers its shifted value.
func TestCycleKeyValueRelative(t *testing.T) {
	eng, s := testSystem(t, nil)
	ids := []LineID{16}
	access(t, eng, s, 0, 16, RFO, 0, storeApply(3))
	var got *AccessResult
	s.Access(0, s.Handle(16), Read, 0, nil, func(r AccessResult) { got = &r }) // local fast-path read, in flight
	anchor := uint64(3)
	before := string(s.AppendCycleKey(nil, ids, &anchor))
	plain := string(s.AppendCycleKey(nil, ids, nil))
	s.ShiftValues(ids, 100)
	anchor += 100
	if after := string(s.AppendCycleKey(nil, ids, &anchor)); after != before {
		t.Fatal("a uniform value shift changed the value-relative key")
	}
	if after := string(s.AppendCycleKey(nil, ids, nil)); after != plain {
		t.Fatal("a value shift changed the value-free key")
	}
	s.SetValue(16, 200)
	if after := string(s.AppendCycleKey(nil, ids, &anchor)); after == before {
		t.Fatal("moving one value left the value-relative key unchanged")
	}
	s.SetValue(16, 103)
	eng.Drain()
	if got == nil || got.Value != 103 {
		t.Fatalf("in-flight read delivered %+v, want value 103", got)
	}
}
