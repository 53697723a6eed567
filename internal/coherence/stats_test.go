package coherence

import (
	"testing"

	"atomicsmodel/internal/sim"
)

// foldLedger is the reference reading of a ledger as Stats counters:
// every class on its own, through ClassFields.
func foldLedger(cls []uint64) Stats {
	var st Stats
	for c, n := range cls {
		src, hops, cross := ClassFields(c)
		st.Accesses += n
		switch src {
		case SrcLocal:
			st.LocalHits += n
		case SrcRemoteCache:
			st.RemoteXfers += n
		case SrcLLC:
			st.LLCFills += n
		case SrcDRAM:
			st.DRAMFills += n
		}
		st.TotalHops += uint64(hops) * n
		if cross {
			st.CrossSocket += n
		}
	}
	return st
}

// inFlight is what Stats counts beyond the ledger: its access counters
// minus the reference fold of the ledger.
func inFlight(s *System) Stats {
	st, led := s.Stats(), foldLedger(s.Classes())
	return Stats{
		Accesses:    st.Accesses - led.Accesses,
		LocalHits:   st.LocalHits - led.LocalHits,
		RemoteXfers: st.RemoteXfers - led.RemoteXfers,
		LLCFills:    st.LLCFills - led.LLCFills,
		DRAMFills:   st.DRAMFills - led.DRAMFills,
		TotalHops:   st.TotalHops - led.TotalHops,
		CrossSocket: st.CrossSocket - led.CrossSocket,
	}
}

// TestStatsCountsInFlight stops the engine while one access is in
// flight — a granted RFO to a line another core owns, a pipelined LLC
// read, a parked spinner's re-read — and requires Stats to count it in
// its source while the ledger (Classes) does not: Stats is the ledger
// plus exactly that access. Once the engine drains, Stats reads
// exactly the ledger, which then holds the access.
func TestStatsCountsInFlight(t *testing.T) {
	eng, s := testSystem(t, nil)
	// Line 16 is owned by core 0; line 17 is resident at its home slice
	// with no private copy; core 1 owns line 18, holding 1.
	access(t, eng, s, 0, 16, RFO, 0, storeApply(1))
	access(t, eng, s, 0, 17, RFO, 0, storeApply(1))
	s.EvictPrivate(17)
	access(t, eng, s, 1, 18, RFO, 0, storeApply(1))
	s.SetParking(true)
	sp := newSpinner(s, 1, 18, 1, 0)
	hops := s.Params().Topo.Hops

	cases := []struct {
		name  string
		issue func()
		want  Stats
	}{
		{"granted RFO", func() { s.Access(3, s.Handle(16), RFO, 20*sim.Nanosecond, storeApply(2), nil) },
			Stats{Accesses: 1, RemoteXfers: 1, TotalHops: uint64(2 * hops(3, 16%8))}},
		{"pipelined LLC read", func() { s.Access(5, s.Handle(17), Read, 0, nil, nil) },
			Stats{Accesses: 1, LLCFills: 1, TotalHops: uint64(2 * hops(5, 17%8))}},
		{"parked spinner", sp.issue, Stats{Accesses: 1, LocalHits: 1}},
	}
	for _, c := range cases {
		t0 := eng.Now()
		eng.At(t0, c.issue)
		eng.At(t0+10*sim.Nanosecond, func() {
			if got := inFlight(s); got != c.want {
				t.Errorf("%s: Stats counts %+v beyond the ledger, want %+v", c.name, got, c.want)
			}
		})
		if c.name == "parked spinner" {
			eng.At(t0+30*sim.Nanosecond, func() {
				if eng.Parked() != 1 {
					t.Errorf("spinner is not parked")
				}
				s.Access(2, s.Handle(18), RFO, 0, storeApply(2), nil)
			})
		}
		eng.Drain()
		if got := inFlight(s); got != (Stats{}) {
			t.Errorf("%s: drained, Stats counts %+v beyond the ledger", c.name, got)
		}
	}
	if sp.got != 2 {
		t.Errorf("spinner saw %d, want 2", sp.got)
	}
}
