package coherence

import (
	"testing"

	"atomicsmodel/internal/sim"
	"atomicsmodel/internal/topology"
)

// TestProtocolFuzz drives the protocol with a random soup of reads and
// RMWs from random cores on a small set of lines, under every arbiter,
// and checks the strongest properties we can state:
//
//  1. every issued operation completes;
//  2. directory invariants hold at the end;
//  3. per line, the sequence of RMW serializations forms a chain: each
//     RMW observes exactly the value the previous RMW on that line
//     left behind (linearizability of the value);
//  4. every read observes a value that some prefix of that chain
//     produced (reads never see out-of-thin-air values).
func TestProtocolFuzz(t *testing.T) {
	arbs := []func() Arbiter{
		func() Arbiter { return FIFOArbiter{} },
		func() Arbiter { return NewRandomArbiter(99) },
		func() Arbiter { return &LocalityArbiter{MaxSkips: 16} },
	}
	for ai, mkArb := range arbs {
		for seed := uint64(1); seed <= 4; seed++ {
			runFuzz(t, mkArb(), seed+uint64(ai)*100)
		}
	}
}

type rmwRecord struct {
	observed uint64
	wrote    bool
	next     uint64
}

func runFuzz(t *testing.T, arb Arbiter, seed uint64) {
	t.Helper()
	eng := sim.NewEngine()
	p := Params{
		NumCores:       16,
		Topo:           topology.NewMesh2D(4, 4),
		NodeOf:         func(c int) int { return c },
		L1Hit:          1 * sim.Nanosecond,
		DirLookup:      3 * sim.Nanosecond,
		HopLatency:     1 * sim.Nanosecond,
		LLCHit:         12 * sim.Nanosecond,
		DRAM:           50 * sim.Nanosecond,
		InvalidateCost: 4 * sim.Nanosecond,
		ForwardSharer:  seed%2 == 0, // alternate protocol variants
	}
	s, err := NewSystem(eng, p, arb)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(seed)
	const (
		lines = 5
		ops   = 4000
	)
	issued, completed := 0, 0
	chains := make(map[LineID][]rmwRecord)
	reads := make(map[LineID][]uint64)

	for i := 0; i < ops; i++ {
		core := rng.Intn(16)
		line := LineID(rng.Intn(lines))
		issueAt := rng.Duration(200 * sim.Microsecond)
		issued++
		switch rng.Intn(4) {
		case 0: // read
			eng.At(issueAt, func() {
				s.Access(core, s.Handle(line), Read, 0, nil, func(r AccessResult) {
					completed++
					reads[line] = append(reads[line], r.Value)
				})
			})
		case 1: // store
			v := rng.Uint64() % 1000
			eng.At(issueAt, func() {
				s.Access(core, s.Handle(line), RFO, sim.Nanosecond, func(cur uint64) (uint64, bool) {
					return v, true
				}, func(r AccessResult) {
					completed++
					chains[line] = append(chains[line], rmwRecord{observed: r.Value, wrote: true, next: v})
				})
			})
		case 2: // fetch-and-add
			eng.At(issueAt, func() {
				var rec rmwRecord
				s.Access(core, s.Handle(line), RFO, sim.Nanosecond, func(cur uint64) (uint64, bool) {
					rec = rmwRecord{observed: cur, wrote: true, next: cur + 1}
					return cur + 1, true
				}, func(r AccessResult) {
					completed++
					chains[line] = append(chains[line], rec)
				})
			})
		default: // CAS on a guessed value
			guess := rng.Uint64() % 1000
			eng.At(issueAt, func() {
				var rec rmwRecord
				s.Access(core, s.Handle(line), RFO, sim.Nanosecond, func(cur uint64) (uint64, bool) {
					if cur == guess {
						rec = rmwRecord{observed: cur, wrote: true, next: guess + 1}
						return guess + 1, true
					}
					rec = rmwRecord{observed: cur, wrote: false, next: cur}
					return cur, false
				}, func(r AccessResult) {
					completed++
					chains[line] = append(chains[line], rec)
				})
			})
		}
	}
	eng.Drain()

	if completed != issued {
		t.Fatalf("%s seed %d: %d/%d ops completed", arb.Name(), seed, completed, issued)
	}
	var counted uint64
	for _, n := range s.Classes() {
		counted += n
	}
	if counted != uint64(completed) || counted != s.Stats().Accesses {
		t.Fatalf("%s seed %d: ledger counts %d accesses, %d completed, stats %d",
			arb.Name(), seed, counted, completed, s.Stats().Accesses)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("%s seed %d: %v", arb.Name(), seed, err)
	}
	for line, chain := range chains {
		cur := uint64(0)
		produced := map[uint64]bool{0: true}
		for i, rec := range chain {
			if rec.observed != cur {
				t.Fatalf("%s seed %d line %d op %d: observed %d, chain value %d",
					arb.Name(), seed, line, i, rec.observed, cur)
			}
			cur = rec.next
			produced[cur] = true
		}
		if got := s.Value(line); got != cur {
			t.Fatalf("%s seed %d line %d: final value %d, chain says %d",
				arb.Name(), seed, line, got, cur)
		}
		for _, v := range reads[line] {
			if !produced[v] {
				t.Fatalf("%s seed %d line %d: read observed out-of-thin-air value %d",
					arb.Name(), seed, line, v)
			}
		}
	}
}
