// Package metrics is the observability layer of the simulator: a
// low-overhead, allocation-free registry of named counters, fixed-size
// counter vectors, and power-of-two histograms that the coherence
// protocol (internal/coherence), the event engine (internal/sim), and
// the benchmark drivers (internal/workload, internal/apps) increment on
// their hot paths. Where internal/stats computes the *results* the
// paper reports (latency distributions, fairness indices), this package
// records *why* a cell produced its number: the transfer mix by data
// source, invalidations, CAS retries, directory queue depths — the
// per-event evidence behind the cache-line-bouncing model of MODEL.md
// §2 (see ARCHITECTURE.md, "Observability", for where it plugs in).
//
// Everything is built around two properties the harness depends on:
//
//   - Nil is off. A nil *Registry hands out nil handles, and every
//     handle method is a nil-receiver no-op, so instrumented code calls
//     Inc/Add/Record/Observe unconditionally and an uninstrumented run
//     pays one nil check per site — no branches on configuration flags,
//     no interface dispatch, zero allocations (verified by the
//     coherence and harness bench suites against BENCH_harness.json).
//   - Snapshots are deterministic and byte-exact under JSON. Snapshot
//     output is sorted by name, holds only integers, and survives a
//     Marshal/Unmarshal/Marshal cycle byte-identically, which is what
//     lets cell snapshots ride the internal/runlog resume cache: a
//     resumed run replays exactly the snapshot the fresh run recorded.
//     The codec is hand-written (json.go): it writes encoding/json's
//     bytes for the type and reads that canonical form in one pass,
//     handing any other input to the generic encoding/json decode.
//   - A layer may count in its own cheaper form and fold into its
//     instruments late (SetSettle): the registry runs the fold before
//     every read of its instruments — Reset, CopyInto, AddScaledDiff
//     and SnapshotInto — so no reader sees the difference.
//
// Registries are single-threaded by design: one registry belongs to one
// simulation cell (one engine), mirroring the harness rule that
// parallelism lives across cells, never inside one.
package metrics

import (
	"math/bits"
	"slices"
)

// Counter is a monotonically increasing event count. The zero value is
// ready to use; a nil Counter discards increments.
type Counter struct {
	v    uint64
	live bool // registered since the registry's last Recycle
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v += n
	}
}

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Vector is a fixed-size array of counters addressed by a small integer
// index (a thread ID, a core). A nil Vector discards increments;
// out-of-range indices are ignored rather than panicking, so hot paths
// need no bounds bookkeeping of their own.
type Vector struct {
	vals []uint64
	live bool
}

// Inc adds one to slot i.
func (v *Vector) Inc(i int) {
	if v != nil && i >= 0 && i < len(v.vals) {
		v.vals[i]++
	}
}

// Add adds n to slot i.
func (v *Vector) Add(i int, n uint64) {
	if v != nil && i >= 0 && i < len(v.vals) {
		v.vals[i] += n
	}
}

// Values returns the slots (nil for a nil vector). The slice is the
// vector's backing store; callers must not modify it.
func (v *Vector) Values() []uint64 {
	if v == nil {
		return nil
	}
	return v.vals
}

// histBuckets is one bucket per possible bit length of a uint64 (0..64):
// bucket b counts values whose bit length is b, i.e. values in
// [2^(b-1), 2^b), with bucket 0 holding exactly the zeros.
const histBuckets = 65

// Histogram counts integer observations in power-of-two buckets, plus
// exact count, sum, and max. Recording is a few instructions and never
// allocates; a nil Histogram discards observations. (internal/stats has
// a richer sim.Time histogram for result reporting; this one is the
// hot-path event variant.)
type Histogram struct {
	n, sum, max uint64
	buckets     [histBuckets]uint64
	live        bool
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.n++
	h.sum += v
	if v > h.max {
		h.max = v
	}
	h.buckets[bits.Len64(v)]++
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.n
}

// Mean returns the mean observation (0 when empty).
func (h *Histogram) Mean() float64 {
	if h == nil || h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Max returns the largest observation.
func (h *Histogram) Max() uint64 {
	if h == nil {
		return 0
	}
	return h.max
}

// BucketLow returns the inclusive lower bound of bucket b.
func BucketLow(b int) uint64 {
	if b <= 0 {
		return 0
	}
	return 1 << (b - 1)
}

// Registry names and owns a cell's instruments. The zero value is not
// used; call New. A nil *Registry is the disabled state: its methods
// return nil handles whose operations are no-ops, so a single nil check
// at handle-creation time turns the whole layer off.
//
// Registration (Counter/Vector/Histogram) allocates and is meant for
// setup time; the returned handles are then free to operate. Asking for
// an already-registered name returns the existing instrument. Recycle
// unregisters everything while keeping the storage, so a pooled
// registry re-registers the same instruments without allocating.
type Registry struct {
	// The maps also hold instruments retired by Recycle (live false):
	// they keep their storage for re-registration but are invisible to
	// every other method.
	counters map[string]*Counter
	vectors  map[string]*Vector
	hists    map[string]*Histogram
	// names is SnapshotInto's reusable sort buffer.
	names []string
	// settle folds what an instrumented layer counted outside the
	// registry into its instruments (SetSettle); nil when none does.
	settle func()
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		vectors:  map[string]*Vector{},
		hists:    map[string]*Histogram{},
	}
}

// Recycle unregisters every instrument, keeping their storage, and
// removes the settle hook: the registry then behaves exactly like New()
// (handles taken earlier must not be used again), but registering the
// same names again reuses the old instruments instead of allocating.
// Cell runners pool one registry each through it.
func (r *Registry) Recycle() {
	r.settle = nil
	for _, c := range r.counters {
		c.live = false
	}
	for _, v := range r.vectors {
		v.live = false
	}
	for _, h := range r.hists {
		h.live = false
	}
}

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	if !c.live {
		*c = Counter{live: true}
	}
	return c
}

// Vector returns the named vector of n slots, creating it if needed. A
// vector re-requested with a larger n grows to it (slot values are
// kept); shrinking never happens.
func (r *Registry) Vector(name string, n int) *Vector {
	if r == nil {
		return nil
	}
	v, ok := r.vectors[name]
	if !ok {
		v = &Vector{}
		r.vectors[name] = v
	}
	switch {
	case !v.live:
		v.live = true
		v.vals = resize(v.vals[:0], n)
	case n > len(v.vals):
		v.vals = resize(v.vals, n)
	}
	return v
}

// resize returns s with length n, reusing its array when it is large
// enough; slots beyond the old length are zero.
func resize(s []uint64, n int) []uint64 {
	if n <= cap(s) {
		old := len(s)
		s = s[:n]
		if n > old {
			clear(s[old:])
		}
		return s
	}
	grown := make([]uint64, n)
	copy(grown, s)
	return grown
}

// Histogram returns the named histogram, creating it if needed.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	if !h.live {
		*h = Histogram{live: true}
	}
	return h
}

// SetSettle installs fn as the registry's settle hook (nil removes
// it): a layer that counts in its own form, cheaper on its hot path
// than an instrument's, folds those counts into its instruments in fn.
// The registry runs fn before every read of its instruments — Reset,
// CopyInto (on the source), AddScaledDiff and SnapshotInto — so each
// of them sees exactly what direct increments would have left; a
// direct read of a handle (Vector.Values) does not settle. A registry
// holds one hook, and Recycle removes it. fn is kept, not copied, so
// a caller that prebakes it once installs it without allocating.
func (r *Registry) SetSettle(fn func()) {
	if r != nil {
		r.settle = fn
	}
}

// settleNow runs the settle hook, if one is installed.
func (r *Registry) settleNow() {
	if r.settle != nil {
		r.settle()
	}
}

// Reset zeroes every registered instrument, keeping registrations and
// handles valid; what the settle hook holds is settled first, and so
// zeroed too. Workloads call it at the end of warmup so snapshots
// cover exactly the measured window.
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	r.settleNow()
	for _, c := range r.counters {
		c.v = 0
	}
	for _, v := range r.vectors {
		clear(v.vals)
	}
	for _, h := range r.hists {
		*h = Histogram{live: h.live}
	}
}

// CopyInto makes dst's instruments an exact copy of r's registered
// ones, registering them in dst as needed; once dst holds them all it
// allocates nothing. It is the baseline capture of the fast-forward
// layer (internal/workload), paired with AddScaledDiff. r is settled
// first; dst's hook does not run.
func (r *Registry) CopyInto(dst *Registry) {
	r.settleNow()
	for name, c := range r.counters {
		if c.live {
			dst.Counter(name).v = c.v
		}
	}
	for name, v := range r.vectors {
		if v.live {
			copy(dst.Vector(name, len(v.vals)).vals, v.vals)
		}
	}
	for name, h := range r.hists {
		if h.live {
			*dst.Histogram(name) = *h
		}
	}
}

// AddScaledDiff adds k extra copies of each instrument's growth since
// base was captured (base must be an earlier CopyInto of r): counters,
// vector slots, histogram counts, sums and buckets grow by k times
// their delta. Histogram maxima stay put — the recorded growth already
// observed every value the k repetitions would repeat. It is the
// fast-forward hook for crediting elided steady-state cycles, like
// stats.Histogram.AddScaledDiff. r is settled first.
func (r *Registry) AddScaledDiff(base *Registry, k uint64) {
	r.settleNow()
	for name, c := range r.counters {
		if c.live {
			c.v += (c.v - base.counters[name].v) * k
		}
	}
	for name, v := range r.vectors {
		if v.live {
			b := base.vectors[name].vals
			for i, x := range v.vals {
				v.vals[i] = x + (x-b[i])*k
			}
		}
	}
	for name, h := range r.hists {
		if h.live {
			b := base.hists[name]
			h.n += (h.n - b.n) * k
			h.sum += (h.sum - b.sum) * k
			for i, x := range h.buckets {
				h.buckets[i] = x + (x-b.buckets[i])*k
			}
		}
	}
}

// CounterSnap is one counter's value in a Snapshot.
type CounterSnap struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// VectorSnap is one vector's slots in a Snapshot.
type VectorSnap struct {
	Name   string   `json:"name"`
	Values []uint64 `json:"values"`
}

// BucketSnap is one non-empty histogram bucket: Low is the bucket's
// inclusive lower bound (a power of two, or 0), Count its population.
type BucketSnap struct {
	Low   uint64 `json:"low"`
	Count uint64 `json:"count"`
}

// HistSnap is one histogram's state in a Snapshot. Buckets holds only
// the non-empty buckets, in ascending Low order.
type HistSnap struct {
	Name    string       `json:"name"`
	Count   uint64       `json:"count"`
	Sum     uint64       `json:"sum"`
	Max     uint64       `json:"max"`
	Buckets []BucketSnap `json:"buckets,omitempty"`
}

// Mean returns Sum/Count (0 when empty).
func (h *HistSnap) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Snapshot is a registry's state frozen for transport: sorted by name,
// integers only, byte-exact under a JSON round trip (its codec is in
// json.go). Cell results carry one (see workload.Result.Metrics), which
// is how snapshots persist through run manifests and survive resume.
type Snapshot struct {
	Counters []CounterSnap `json:"counters,omitempty"`
	Vectors  []VectorSnap  `json:"vectors,omitempty"`
	Hists    []HistSnap    `json:"hists,omitempty"`
}

// Snapshot freezes the registry's current state (nil for a nil
// registry, so callers can assign the result unconditionally).
func (r *Registry) Snapshot() *Snapshot { return r.SnapshotInto(&Snapshot{}) }

// SnapshotInto is Snapshot writing into s, whose slices (and the value
// and bucket slices inside them) are reused: snapshotting the same
// instruments into the same s again allocates nothing. The caller must
// own s outright. It returns s (nil for a nil registry).
func (r *Registry) SnapshotInto(s *Snapshot) *Snapshot {
	if r == nil {
		return nil
	}
	r.settleNow()
	names := r.names[:0]
	for name, c := range r.counters {
		if c.live {
			names = append(names, name)
		}
	}
	slices.Sort(names)
	cs := s.Counters[:0]
	for _, name := range names {
		cs = append(cs, CounterSnap{Name: name, Value: r.counters[name].v})
	}
	s.Counters = cs

	names = names[:0]
	for name, v := range r.vectors {
		if v.live {
			names = append(names, name)
		}
	}
	slices.Sort(names)
	vs := s.Vectors[:0]
	for i, name := range names {
		v := r.vectors[name]
		var vals []uint64
		if i < cap(vs) {
			vals = vs[:i+1][i].Values[:0]
		}
		if vals == nil {
			vals = make([]uint64, 0, len(v.vals))
		}
		vs = append(vs, VectorSnap{Name: name, Values: append(vals, v.vals...)})
	}
	s.Vectors = vs

	names = names[:0]
	for name, h := range r.hists {
		if h.live {
			names = append(names, name)
		}
	}
	slices.Sort(names)
	hs := s.Hists[:0]
	for i, name := range names {
		h := r.hists[name]
		var bs []BucketSnap
		if i < cap(hs) {
			bs = hs[:i+1][i].Buckets[:0]
		}
		for b, n := range h.buckets {
			if n > 0 {
				bs = append(bs, BucketSnap{Low: BucketLow(b), Count: n})
			}
		}
		hs = append(hs, HistSnap{Name: name, Count: h.n, Sum: h.sum, Max: h.max, Buckets: bs})
	}
	s.Hists = hs
	r.names = names
	return s
}

// Counter returns the named counter's value from the snapshot (0, false
// when absent).
func (s *Snapshot) Counter(name string) (uint64, bool) {
	if s == nil {
		return 0, false
	}
	for i := range s.Counters {
		if s.Counters[i].Name == name {
			return s.Counters[i].Value, true
		}
	}
	return 0, false
}

// Hist returns the named histogram from the snapshot (nil when absent).
func (s *Snapshot) Hist(name string) *HistSnap {
	if s == nil {
		return nil
	}
	for i := range s.Hists {
		if s.Hists[i].Name == name {
			return &s.Hists[i]
		}
	}
	return nil
}

// Vector returns the named vector's values from the snapshot (nil when
// absent).
func (s *Snapshot) Vector(name string) []uint64 {
	if s == nil {
		return nil
	}
	for i := range s.Vectors {
		if s.Vectors[i].Name == name {
			return s.Vectors[i].Values
		}
	}
	return nil
}
