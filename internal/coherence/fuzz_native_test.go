package coherence

import (
	"testing"

	"atomicsmodel/internal/sim"
	"atomicsmodel/internal/topology"
)

// FuzzProtocolValueChain is a native Go fuzz target over the protocol's
// strongest property: per-line RMW serializations form a value chain.
// Each fuzz input picks the seed, arbiter, protocol options and op mix.
// Run with `go test -fuzz FuzzProtocolValueChain ./internal/coherence`.
func FuzzProtocolValueChain(f *testing.F) {
	f.Add(uint64(1), uint8(0), false, uint8(50))
	f.Add(uint64(2), uint8(1), true, uint8(10))
	f.Add(uint64(3), uint8(2), false, uint8(90))
	f.Fuzz(func(t *testing.T, seed uint64, arbKind uint8, forward bool, readPct uint8) {
		var arb Arbiter
		switch arbKind % 3 {
		case 0:
			arb = FIFOArbiter{}
		case 1:
			arb = NewRandomArbiter(seed)
		default:
			arb = &LocalityArbiter{MaxSkips: 8}
		}
		eng := sim.NewEngine()
		p := Params{
			NumCores:       9,
			Topo:           topology.NewMesh2D(3, 3),
			NodeOf:         func(c int) int { return c },
			L1Hit:          1 * sim.Nanosecond,
			DirLookup:      2 * sim.Nanosecond,
			HopLatency:     1 * sim.Nanosecond,
			LLCHit:         8 * sim.Nanosecond,
			DRAM:           40 * sim.Nanosecond,
			InvalidateCost: 2 * sim.Nanosecond,
			ForwardSharer:  forward,
		}
		s, err := NewSystem(eng, p, arb)
		if err != nil {
			t.Fatal(err)
		}
		rng := sim.NewRNG(seed)
		read := int(readPct % 101)
		type rec struct{ observed, next uint64 }
		var chain []rec
		issued, completed := 0, 0
		for i := 0; i < 800; i++ {
			core := rng.Intn(9)
			at := rng.Duration(50 * sim.Microsecond)
			issued++
			if rng.Intn(100) < read {
				eng.At(at, func() {
					s.Access(core, s.Handle(3), Read, 0, nil, func(AccessResult) { completed++ })
				})
				continue
			}
			eng.At(at, func() {
				var r rec
				s.Access(core, s.Handle(3), RFO, sim.Nanosecond, func(cur uint64) (uint64, bool) {
					r = rec{observed: cur, next: cur + 1}
					return cur + 1, true
				}, func(AccessResult) {
					completed++
					chain = append(chain, r)
				})
			})
		}
		eng.Drain()
		if completed != issued {
			t.Fatalf("%d/%d ops completed", completed, issued)
		}
		cur := uint64(0)
		for i, r := range chain {
			if r.observed != cur {
				t.Fatalf("op %d observed %d, want %d", i, r.observed, cur)
			}
			cur = r.next
		}
		if got := s.Value(3); got != cur {
			t.Fatalf("final value %d, chain says %d", got, cur)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}
