package metrics

import (
	"bytes"
	"encoding/json"
	"sort"
	"testing"
)

func TestNilRegistryIsOff(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	v := r.Vector("y", 4)
	h := r.Histogram("z")
	if c != nil || v != nil || h != nil {
		t.Fatalf("nil registry handed out non-nil handles: %v %v %v", c, v, h)
	}
	// All operations must be safe no-ops.
	c.Inc()
	c.Add(7)
	v.Inc(2)
	v.Add(1, 3)
	h.Observe(9)
	r.Reset()
	if c.Value() != 0 || h.Count() != 0 || h.Mean() != 0 || h.Max() != 0 || v.Values() != nil {
		t.Fatal("nil instruments reported non-zero state")
	}
	if s := r.Snapshot(); s != nil {
		t.Fatalf("nil registry snapshot = %+v, want nil", s)
	}
	var s *Snapshot
	if _, ok := s.Counter("x"); ok {
		t.Fatal("nil snapshot resolved a counter")
	}
	if s.Hist("z") != nil || s.Vector("y") != nil {
		t.Fatal("nil snapshot resolved a hist/vector")
	}
}

func TestHotPathOpsDoNotAllocate(t *testing.T) {
	r := New()
	c := r.Counter("c")
	v := r.Vector("v", 8)
	h := r.Histogram("h")
	var nilC *Counter
	var nilH *Histogram
	n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		v.Inc(5)
		h.Observe(1234)
		nilC.Inc()
		nilH.Observe(1)
	})
	if n != 0 {
		t.Fatalf("hot-path instrument ops allocate %.1f allocs/op, want 0", n)
	}
}

func TestCounterVectorHistogram(t *testing.T) {
	r := New()
	c := r.Counter("ops")
	c.Inc()
	c.Add(9)
	if got := c.Value(); got != 10 {
		t.Fatalf("counter = %d, want 10", got)
	}
	if r.Counter("ops") != c {
		t.Fatal("re-registration returned a different counter")
	}

	v := r.Vector("per", 3)
	v.Inc(0)
	v.Add(2, 5)
	v.Inc(-1) // ignored
	v.Inc(3)  // ignored
	if got := v.Values(); len(got) != 3 || got[0] != 1 || got[1] != 0 || got[2] != 5 {
		t.Fatalf("vector = %v", got)
	}
	if grown := r.Vector("per", 5); len(grown.Values()) != 5 || grown.Values()[2] != 5 {
		t.Fatalf("grown vector = %v", grown.Values())
	}

	h := r.Histogram("depth")
	for _, x := range []uint64{0, 1, 1, 3, 8, 1000} {
		h.Observe(x)
	}
	if h.Count() != 6 || h.Max() != 1000 {
		t.Fatalf("hist count=%d max=%d", h.Count(), h.Max())
	}
	if want := float64(0+1+1+3+8+1000) / 6; h.Mean() != want {
		t.Fatalf("hist mean=%v want %v", h.Mean(), want)
	}
}

func TestBucketLow(t *testing.T) {
	cases := map[int]uint64{0: 0, 1: 1, 2: 2, 3: 4, 11: 1024}
	for b, want := range cases {
		if got := BucketLow(b); got != want {
			t.Fatalf("BucketLow(%d) = %d, want %d", b, got, want)
		}
	}
}

func TestSnapshotSortedAndQueryable(t *testing.T) {
	r := New()
	r.Counter("zeta").Add(1)
	r.Counter("alpha").Add(2)
	r.Vector("v", 2).Inc(1)
	h := r.Histogram("h")
	h.Observe(0)
	h.Observe(5)

	s := r.Snapshot()
	names := make([]string, len(s.Counters))
	for i, c := range s.Counters {
		names[i] = c.Name
	}
	if !sort.StringsAreSorted(names) {
		t.Fatalf("counters not sorted: %v", names)
	}
	if v, ok := s.Counter("alpha"); !ok || v != 2 {
		t.Fatalf("Counter(alpha) = %d,%v", v, ok)
	}
	if _, ok := s.Counter("missing"); ok {
		t.Fatal("resolved a missing counter")
	}
	if vals := s.Vector("v"); len(vals) != 2 || vals[1] != 1 {
		t.Fatalf("Vector(v) = %v", vals)
	}
	hs := s.Hist("h")
	if hs == nil || hs.Count != 2 || hs.Max != 5 || hs.Mean() != 2.5 {
		t.Fatalf("Hist(h) = %+v", hs)
	}
	// Buckets: 0 → bucket low 0; 5 → bit length 3 → low 4.
	if len(hs.Buckets) != 2 || hs.Buckets[0].Low != 0 || hs.Buckets[1].Low != 4 {
		t.Fatalf("buckets = %+v", hs.Buckets)
	}
}

// TestSnapshotJSONRoundTripByteExact is the property the harness resume
// cache depends on: a snapshot must re-encode byte-identically after
// decoding, or a resumed run could render different metrics tables than
// the fresh run it replays.
func TestSnapshotJSONRoundTripByteExact(t *testing.T) {
	r := New()
	r.Counter("coh.transfer.remote-cache").Add(12345)
	r.Counter("empty")
	r.Vector("work.thread_ops", 4).Add(3, 99)
	h := r.Histogram("coh.queue_depth")
	for i := uint64(0); i < 100; i++ {
		h.Observe(i * i)
	}
	for _, snap := range []*Snapshot{r.Snapshot(), New().Snapshot()} {
		raw, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		var rt Snapshot
		if err := json.Unmarshal(raw, &rt); err != nil {
			t.Fatal(err)
		}
		raw2, err := json.Marshal(&rt)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, raw2) {
			t.Fatalf("snapshot does not survive a JSON round trip:\n%s\n%s", raw, raw2)
		}
	}
}

func TestReset(t *testing.T) {
	r := New()
	c := r.Counter("c")
	v := r.Vector("v", 2)
	h := r.Histogram("h")
	c.Add(5)
	v.Inc(0)
	h.Observe(7)
	r.Reset()
	if c.Value() != 0 || v.Values()[0] != 0 || h.Count() != 0 || h.Max() != 0 {
		t.Fatal("Reset left state behind")
	}
	// Handles stay live after Reset.
	c.Inc()
	if c.Value() != 1 {
		t.Fatal("counter dead after Reset")
	}
	if r.Counter("c") != c {
		t.Fatal("registration lost by Reset")
	}
}

// TestRecycleAndSnapshotInto pins the pooled-registry contract: a
// recycled registry snapshots exactly like a fresh one holding the same
// instruments (retired names vanish, re-registered ones start at zero),
// and snapshotting into a reused Snapshot allocates nothing.
func TestRecycleAndSnapshotInto(t *testing.T) {
	fill := func(r *Registry) {
		r.Counter("c").Add(3)
		r.Vector("v", 2).Add(1, 5)
		r.Histogram("h").Observe(9)
	}
	r := New()
	fill(r)
	r.Counter("gone").Inc()
	r.Vector("v", 8).Inc(7)
	r.Recycle()
	fill(r)
	fresh := New()
	fill(fresh)
	got, _ := json.Marshal(r.Snapshot())
	want, _ := json.Marshal(fresh.Snapshot())
	if !bytes.Equal(got, want) {
		t.Fatalf("recycled registry snapshot\n%s\nwant\n%s", got, want)
	}

	s := r.SnapshotInto(&Snapshot{})
	if allocs := testing.AllocsPerRun(10, func() { r.SnapshotInto(s) }); allocs != 0 {
		t.Fatalf("SnapshotInto a reused snapshot: %.1f allocs, want 0", allocs)
	}
	if again, _ := json.Marshal(s); !bytes.Equal(again, want) {
		t.Fatalf("reused snapshot\n%s\nwant\n%s", again, want)
	}
}

// TestCopyIntoAddScaledDiff: k extra copies of the growth since a
// CopyInto baseline scale counters, vector slots, and histogram counts,
// sums and buckets, leaving the maximum alone — the same registry as
// recording that growth k more times.
func TestCopyIntoAddScaledDiff(t *testing.T) {
	grow := func(r *Registry) {
		r.Counter("c").Add(2)
		r.Vector("v", 3).Add(2, 4)
		r.Histogram("h").Observe(5)
		r.Histogram("h").Observe(100)
	}
	r, ref := New(), New()
	grow(r)
	grow(ref)
	base := New()
	r.CopyInto(base)
	grow(r)
	r.AddScaledDiff(base, 3)
	for i := 0; i < 4; i++ {
		grow(ref)
	}
	got, _ := json.Marshal(r.Snapshot())
	want, _ := json.Marshal(ref.Snapshot())
	if !bytes.Equal(got, want) {
		t.Fatalf("scaled registry\n%s\nwant\n%s", got, want)
	}
}

// TestSettleBeforeEveryRead: a registry runs its settle hook before
// each of its four readers, so a layer that counts on the side and
// folds in the hook is read exactly; Recycle removes the hook.
func TestSettleBeforeEveryRead(t *testing.T) {
	r := New()
	v := r.Vector("v", 2)
	pending := uint64(0)
	runs := 0
	r.SetSettle(func() {
		runs++
		v.Add(1, pending)
		pending = 0
	})
	pending = 5
	if got := r.Snapshot().Vector("v"); got[1] != 5 {
		t.Fatalf("SnapshotInto read %v before settling", got)
	}
	pending = 7
	r.Reset()
	if v.Values()[1] != 0 {
		t.Fatalf("Reset left %v: the settled counts must be zeroed too", v.Values())
	}
	pending = 3
	base := New()
	r.CopyInto(base)
	if got := base.Vector("v", 2).Values()[1]; got != 3 {
		t.Fatalf("CopyInto copied %d before settling, want 3", got)
	}
	pending = 2
	r.AddScaledDiff(base, 4)
	if got := v.Values()[1]; got != 3+2*5 {
		t.Fatalf("AddScaledDiff gave %d, want %d", got, 3+2*5)
	}
	if runs != 4 {
		t.Fatalf("hook ran %d times over four reads", runs)
	}
	r.Recycle()
	r.Snapshot()
	if runs != 4 {
		t.Fatal("Recycle kept the settle hook")
	}
}
