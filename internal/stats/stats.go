// Package stats collects the metrics the paper reports: operation
// latency distributions, throughput, per-thread fairness (Jain's index,
// coefficient of variation, min/max ratio), and simple aggregates with
// streaming computation so million-operation runs stay cheap.
//
// In the model pipeline (ARCHITECTURE.md) these are the quantities the
// benchmark drivers measure and the model predicts — MODEL.md §5
// states the fairness and energy definitions. Histograms carry an
// exact sparse JSON encoding (json.go) so they survive the resume
// cache's byte-exact round trip; the cheaper always-on event counters
// live in internal/metrics instead.
//
// A histogram stores the counts of one window of consecutive buckets,
// lo … lo+len(counts)-1, and every bucket outside it is zero. One that
// records (NewHistogram) holds all 328 buckets. One decoded from the
// cache holds only the buckets from its minimum's to its maximum's,
// which is the one bucket of most -quick cells, so a replay allocates
// a few words instead of 2.6 KB. A bucket outside the window widens
// the histogram to every bucket the first time it is written, so a
// decoded histogram records, copies and resets exactly as a full one
// does.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"atomicsmodel/internal/sim"
)

// Histogram is a logarithmic-bucket latency histogram with exact count,
// sum, min and max. Buckets are half-open time ranges growing by ~2×
// with 8 sub-buckets per octave, giving ≤ ~9% quantile error — ample
// for latency curves spanning ns to ms.
type Histogram struct {
	counts []uint64 // buckets lo … lo+len(counts)-1
	lo     int
	n      uint64
	sum    sim.Time
	min    sim.Time
	max    sim.Time
}

const (
	subBuckets = 8
	// maxBuckets covers values up to ~2^40 ps (~1s) with 8 sub-buckets
	// per power of two.
	maxBuckets = 41 * subBuckets
)

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make([]uint64, maxBuckets), min: math.MaxInt64}
}

func bucketOf(v sim.Time) int {
	if v <= 0 {
		return 0
	}
	// Octave = floor(log2(v)); sub-bucket from the next 3 bits.
	x := uint64(v)
	octave := 63 - bits.LeadingZeros64(x)
	var sub uint64
	if octave >= 3 {
		sub = (x >> (uint(octave) - 3)) & 7
	} else {
		sub = (x << (3 - uint(octave))) & 7
	}
	b := octave*subBuckets + int(sub)
	if b >= maxBuckets {
		b = maxBuckets - 1
	}
	return b
}

// bucketLow returns the lower bound of bucket b (used for quantiles).
func bucketLow(b int) sim.Time {
	octave := b / subBuckets
	sub := b % subBuckets
	if octave < 3 {
		// Small values: approximate linearly.
		return sim.Time((1 << uint(octave)) + sub>>1)
	}
	return sim.Time((uint64(1) << uint(octave)) | (uint64(sub) << (uint(octave) - 3)))
}

// widen makes h's window every bucket, keeping its counts.
func (h *Histogram) widen() {
	if len(h.counts) == maxBuckets {
		return
	}
	full := make([]uint64, maxBuckets)
	copy(full[h.lo:], h.counts)
	h.counts, h.lo = full, 0
}

// add adds n to the count of bucket b (0 <= b < maxBuckets), widening
// h if b is outside its window.
func (h *Histogram) add(b int, n uint64) {
	if i, c := b-h.lo, h.counts; uint(i) < uint(len(c)) {
		c[i] += n
		return
	}
	h.widen()
	h.counts[b] += n
}

// Reset empties the histogram in place, reusing the bucket array once
// it holds every bucket. A reset histogram is indistinguishable from
// NewHistogram().
func (h *Histogram) Reset() {
	h.widen()
	clear(h.counts)
	h.n, h.sum, h.max = 0, 0, 0
	h.min = math.MaxInt64
}

// CopyInto makes dst an exact copy of h, reusing dst's bucket array.
// Both end up holding every bucket, so the copy is one flat copy.
func (h *Histogram) CopyInto(dst *Histogram) {
	h.widen()
	dst.widen()
	copy(dst.counts, h.counts)
	dst.n, dst.sum, dst.min, dst.max = h.n, h.sum, h.min, h.max
}

// AddScaledDiff adds k extra copies of the growth of h since base was
// captured (base must be an earlier CopyInto snapshot of h). It is the
// fast-forward hook for replaying a memoized steady-state cycle: the
// bucket and sum deltas are integers, so k-fold replay is exact, and
// the extrema cannot move because the recorded cycle already observed
// every latency the elided cycles would repeat.
func (h *Histogram) AddScaledDiff(base *Histogram, k uint64) {
	h.widen()
	base.widen()
	for i, c := range h.counts {
		h.counts[i] = c + (c-base.counts[i])*k
	}
	h.n += (h.n - base.n) * k
	h.sum += (h.sum - base.sum) * sim.Time(k)
}

// Record adds one observation.
func (h *Histogram) Record(v sim.Time) {
	h.add(bucketOf(v), 1)
	h.n++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// RecordN adds n observations of v at once, exactly as n Record calls
// would.
func (h *Histogram) RecordN(v sim.Time, n uint64) {
	if n == 0 {
		return
	}
	h.add(bucketOf(v), n)
	h.n += n
	h.sum += v * sim.Time(n)
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.n }

// Mean returns the exact mean (0 with no observations).
func (h *Histogram) Mean() sim.Time {
	if h.n == 0 {
		return 0
	}
	return sim.Time(uint64(h.sum) / h.n)
}

// Min and Max return exact extrema (0 with no observations).
func (h *Histogram) Min() sim.Time {
	if h.n == 0 {
		return 0
	}
	return h.min
}

// Max returns the exact maximum observation.
func (h *Histogram) Max() sim.Time { return h.max }

// Quantile returns an approximation of the q-quantile (0 <= q <= 1),
// accurate to the bucket width (~9%). It uses the nearest-rank (ceil)
// convention: the bucket of the smallest observation v such that at
// least ceil(q*n) observations are <= v. With this convention p50 of
// two observations is the first one, and p100 coincides with the
// maximum — the old floor-based rank was off by one whenever q*n was
// integral (p50 of n=2 returned the second observation's bucket).
func (h *Histogram) Quantile(q float64) sim.Time {
	if h.n == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	// The tiny relative backoff keeps ranks that are mathematically
	// integral (0.9*10 = 9) from being inflated by floating-point
	// representation error (0.9*10 = 9.0000000000000018 in binary).
	r := q * float64(h.n)
	rank := uint64(math.Ceil(r - r*1e-12))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			lo := bucketLow(h.lo + i)
			if lo < h.min {
				lo = h.min
			}
			if lo > h.max {
				lo = h.max
			}
			return lo
		}
	}
	return h.max
}

// String summarizes the distribution.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v max=%v",
		h.n, h.Mean(), h.Quantile(0.5), h.Quantile(0.99), h.Max())
}

// JainIndex computes Jain's fairness index over per-thread totals:
// (Σx)² / (n·Σx²). It is 1 when all threads did equal work and 1/n when
// one thread did everything. An empty or all-zero input yields 1 (a
// degenerate run is not unfair, just empty).
func JainIndex(xs []uint64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var sum, sumSq float64
	for _, x := range xs {
		f := float64(x)
		sum += f
		sumSq += f * f
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// CoV computes the coefficient of variation (stddev/mean) of per-thread
// totals; 0 for perfectly balanced work. Empty or zero-mean input
// yields 0.
func CoV(xs []uint64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += float64(x)
	}
	mean := sum / float64(len(xs))
	if mean == 0 {
		return 0
	}
	var sq float64
	for _, x := range xs {
		d := float64(x) - mean
		sq += d * d
	}
	return math.Sqrt(sq/float64(len(xs))) / mean
}

// MinMaxRatio returns min/max of per-thread totals — the paper's
// starkest fairness statistic (0 means a thread was fully starved).
// Empty input yields 1.
func MinMaxRatio(xs []uint64) float64 {
	if len(xs) == 0 {
		return 1
	}
	mn, mx := xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < mn {
			mn = x
		}
		if x > mx {
			mx = x
		}
	}
	if mx == 0 {
		return 1
	}
	return float64(mn) / float64(mx)
}

// Throughput converts an op count over a duration to ops/second.
func Throughput(ops uint64, d sim.Time) float64 {
	if d <= 0 {
		return 0
	}
	return float64(ops) / d.Seconds()
}

// Mean returns the arithmetic mean of a float slice (0 when empty).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Median returns the median of a float slice (0 when empty). The input
// is not modified.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	n := len(cp)
	if n%2 == 1 {
		return cp[n/2]
	}
	return (cp[n/2-1] + cp[n/2]) / 2
}

// MeanAbsPctError returns the mean of |pred-meas|/meas over paired
// slices, as a percentage. It is the model-validation metric. Pairs
// with zero measurement are skipped; mismatched lengths panic (caller
// bug).
func MeanAbsPctError(pred, meas []float64) float64 {
	if len(pred) != len(meas) {
		panic("stats: MeanAbsPctError length mismatch")
	}
	var sum float64
	n := 0
	for i := range pred {
		if meas[i] == 0 {
			continue
		}
		sum += math.Abs(pred[i]-meas[i]) / meas[i]
		n++
	}
	if n == 0 {
		return 0
	}
	return 100 * sum / float64(n)
}
