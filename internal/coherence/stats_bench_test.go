package coherence_test

import (
	"testing"

	"atomicsmodel/internal/coherence"
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/sim"
)

// BenchmarkCoherenceStats measures one Stats call on the preset
// machines' full-size ledgers (XeonE5's 488 classes, KNL's mesh): the
// fold a workload cell pays at its warmup marker and when its window
// closes. Every core has issued one RFO to a shared line, so the walk
// over the system's requests covers a contended cell's pool.
func BenchmarkCoherenceStats(b *testing.B) {
	for _, m := range []*machine.Machine{machine.XeonE5(), machine.KNL()} {
		b.Run(m.Name, func(b *testing.B) {
			eng := sim.NewEngine()
			s, err := coherence.NewSystem(eng, m.CoherenceParams(), nil)
			if err != nil {
				b.Fatal(err)
			}
			h := s.Handle(1)
			inc := func(cur uint64) (uint64, bool) { return cur + 1, true }
			for c := 0; c < m.NumCores(); c++ {
				s.Access(c, h, coherence.RFO, 0, inc, nil)
			}
			eng.Drain()
			b.ReportAllocs()
			b.ResetTimer()
			var n uint64
			for i := 0; i < b.N; i++ {
				n += s.Stats().Accesses
			}
			if n == 0 {
				b.Fatal("no accesses counted")
			}
		})
	}
}
