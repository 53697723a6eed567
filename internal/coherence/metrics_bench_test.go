package coherence

import (
	"testing"

	"atomicsmodel/internal/metrics"
)

// These benchmarks and tests guard the observability layer's cost
// contract (see internal/metrics): with no registry installed the
// instrumented hot path must stay allocation-free and within noise of
// the uninstrumented baseline, and even with metrics on the per-access
// cost is a handful of counter increments, never an allocation.

// BenchmarkCoherenceAccessMetricsOff is BenchmarkCoherenceAccess with
// the nil registry installed explicitly — the instrumented-off fast
// path every normal run takes. Compare against BenchmarkCoherenceAccess
// in bench_test.go; the two must be within noise of each other.
func BenchmarkCoherenceAccessMetricsOff(b *testing.B) {
	eng, s := benchSystem(b)
	s.InstallMetrics(nil)
	apply := func(cur uint64) (uint64, bool) { return cur + 1, true }
	h := s.Handle(1)
	s.Access(0, h, RFO, 0, apply, nil)
	eng.Drain()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Access((i+1)%16, h, RFO, 0, apply, nil)
		eng.Drain()
	}
}

// BenchmarkCoherenceAccessMetricsOn measures the same handoff with a
// live registry: the cost of actually counting.
func BenchmarkCoherenceAccessMetricsOn(b *testing.B) {
	eng, s := benchSystem(b)
	s.InstallMetrics(metrics.New())
	apply := func(cur uint64) (uint64, bool) { return cur + 1, true }
	h := s.Handle(1)
	s.Access(0, h, RFO, 0, apply, nil)
	eng.Drain()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Access((i+1)%16, h, RFO, 0, apply, nil)
		eng.Drain()
	}
}

// TestAccessDoesNotAllocate pins the access path at zero allocations
// per contended handoff, with metrics off and on. A regression here
// multiplies across the millions of accesses in every experiment cell.
func TestAccessDoesNotAllocate(t *testing.T) {
	for _, tc := range []struct {
		name string
		reg  *metrics.Registry
	}{
		{"metrics-off", nil},
		{"metrics-on", metrics.New()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, s := benchSystem(t)
			s.InstallMetrics(tc.reg)
			apply := func(cur uint64) (uint64, bool) { return cur + 1, true }
			h := s.Handle(1)
			s.Access(0, h, RFO, 0, apply, nil)
			eng.Drain()
			i := 0
			avg := testing.AllocsPerRun(200, func() {
				s.Access((i+1)%16, h, RFO, 0, apply, nil)
				eng.Drain()
				i++
			})
			if avg != 0 {
				t.Fatalf("contended access allocates %.1f allocs/op, want 0", avg)
			}
			if tc.reg != nil {
				// The occupancy accumulators must have been recording
				// while staying inside the zero-alloc budget above.
				snap := tc.reg.Snapshot()
				line := snap.Vector(metrics.CohLineBusy)
				if line == nil || line[1] == 0 {
					t.Fatalf("line 1 accumulated no busy time: %v", line)
				}
				var dirBusy uint64
				for _, v := range snap.Vector(metrics.CohDirBusy) {
					dirBusy += v
				}
				if dirBusy == 0 {
					t.Fatal("directories accumulated no busy time")
				}
			}
		})
	}
}
