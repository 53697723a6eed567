package coherence

import (
	"strings"
	"testing"

	"atomicsmodel/internal/sim"
)

func TestArbiterNames(t *testing.T) {
	cases := []struct {
		a    Arbiter
		want string
	}{
		{FIFOArbiter{}, "fifo"},
		{NewRandomArbiter(1), "random"},
		{&LocalityArbiter{}, "locality"},
		{&LocalityArbiter{MaxSkips: 4}, "locality-bounded"},
	}
	for _, c := range cases {
		if got := c.a.Name(); got != c.want {
			t.Errorf("Name() = %q, want %q", got, c.want)
		}
	}
}

func TestCoreSetOperations(t *testing.T) {
	s := newCoreSet(130) // multiple words
	for _, i := range []int{0, 63, 64, 129} {
		if s.has(i) {
			t.Fatalf("fresh set has %d", i)
		}
		s.add(i)
		if !s.has(i) {
			t.Fatalf("add(%d) lost", i)
		}
	}
	if s.count() != 4 {
		t.Fatalf("count = %d, want 4", s.count())
	}
	var seen []int
	s.forEach(func(c int) { seen = append(seen, c) })
	want := []int{0, 63, 64, 129}
	if len(seen) != len(want) {
		t.Fatalf("forEach saw %v", seen)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("forEach order %v, want ascending %v", seen, want)
		}
	}
	s.clear()
	if !s.empty() {
		t.Fatal("clear left bits")
	}
}

func TestParamsAccessor(t *testing.T) {
	_, s := testSystem(t, nil)
	p := s.Params()
	if p.NumCores != 8 || p.L1Hit != sim.Nanosecond {
		t.Fatalf("Params() = %+v", p)
	}
}

func TestEvictPrivate(t *testing.T) {
	eng, s := testSystem(t, nil)
	access(t, eng, s, 2, 16, RFO, 0, storeApply(9))
	s.EvictPrivate(16)
	d := s.Directory(16)
	if d.Owner != -1 || len(d.Sharers) != 0 || !d.Valid {
		t.Fatalf("after evict: %+v", d)
	}
	// Value preserved; next read is an LLC fill, not DRAM.
	res := access(t, eng, s, 2, 16, Read, 0, nil)
	if res.Source != SrcLLC || res.Value != 9 {
		t.Fatalf("post-evict read: %+v", res)
	}
	// An untouched line stays invalid after eviction.
	s.EvictPrivate(99)
	if s.Directory(99).Valid {
		t.Fatal("evicting a cold line should not validate it")
	}
}

func TestEvictPrivatePanicsWhenBusy(t *testing.T) {
	eng, s := testSystem(t, nil)
	s.Access(0, s.Handle(16), RFO, 10*sim.Nanosecond, storeApply(1), nil)
	// The request was granted synchronously; the line is busy now.
	defer func() {
		if recover() == nil {
			t.Fatal("EvictPrivate on busy line did not panic")
		}
		eng.Drain()
	}()
	s.EvictPrivate(16)
}

func TestCheckInvariantsDetectsCorruption(t *testing.T) {
	eng, s := testSystem(t, nil)
	access(t, eng, s, 0, 16, RFO, 0, storeApply(1))
	l := s.line(16)
	// Corrupt: owner and sharers at once.
	l.sharers.add(3)
	if err := s.CheckInvariants(); err == nil {
		t.Fatal("owner+sharers accepted")
	}
	l.sharers.clear()
	// Corrupt: owner out of range.
	l.owner = 99
	if err := s.CheckInvariants(); err == nil {
		t.Fatal("out-of-range owner accepted")
	}
	l.owner = 0
	// Corrupt: cached but invalid.
	l.valid = false
	if err := s.CheckInvariants(); err == nil {
		t.Fatal("cached-but-invalid accepted")
	}
	l.valid = true
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("repaired state still rejected: %v", err)
	}
}

func TestSourceUnknownString(t *testing.T) {
	if Source(200).String() != "unknown" {
		t.Error("unknown source string")
	}
}

func TestValidateRejectsMissingTopo(t *testing.T) {
	p := Params{NumCores: 2}
	if err := p.validate(); err == nil {
		t.Fatal("missing topo accepted")
	}
}

// TestReadDuringRFOServiceObservesPreWriteValue pins down ordering: a
// bypassed shared read issued while an RFO is queued serializes before
// the RFO (its value is captured at issue).
func TestReadOrderingAgainstQueuedRFO(t *testing.T) {
	eng, s := testSystem(t, nil)
	// Make the line shared with value 5 so reads bypass.
	access(t, eng, s, 0, 16, RFO, 0, storeApply(5))
	access(t, eng, s, 1, 16, Read, 0, nil)
	access(t, eng, s, 2, 16, Read, 0, nil)
	// Now owner == -1, sharers {0,1,2}? (owner downgraded on first read)
	var readVal uint64
	var wrote bool
	// Queue an RFO and immediately a bypassing read from a non-sharer.
	s.Access(3, s.Handle(16), RFO, 5*sim.Nanosecond, storeApply(6), func(r AccessResult) { wrote = true })
	s.Access(4, s.Handle(16), Read, 0, nil, func(r AccessResult) { readVal = r.Value })
	eng.Drain()
	if !wrote {
		t.Fatal("RFO did not complete")
	}
	// The RFO was granted synchronously (line idle at issue), so the
	// directory already shows core 3 as owner when core 4's read is
	// issued: the read must queue and observe the post-write value.
	if readVal != 6 {
		t.Fatalf("read observed %d, want 6 (serialized after in-flight RFO)", readVal)
	}
}

// TestCheckInvariantsReportsDeterministically breaks eight lines of 50
// fresh systems: every system must report the same violation, the one
// on the line touched first.
func TestCheckInvariantsReportsDeterministically(t *testing.T) {
	var first string
	for i := 0; i < 50; i++ {
		_, s := testSystem(t, nil)
		for k := 1; k <= 8; k++ {
			s.BreakLine(LineID(97*k), k%8)
		}
		err := s.CheckInvariants()
		if err == nil {
			t.Fatal("eight broken lines passed the check")
		}
		if i == 0 {
			first = err.Error()
			if !strings.HasPrefix(first, "line 97:") {
				t.Fatalf("report %q does not name the first line broken, 97", first)
			}
		} else if err.Error() != first {
			t.Fatalf("system %d reported %q, system 0 %q", i, err, first)
		}
	}
}
