package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"

	"atomicsmodel/internal/sim"
)

// Histogram JSON encoding for the harness's cell-result cache: the
// bucket array is stored sparsely (bucket index -> count) and every
// field is integral, so a marshal/unmarshal round trip reproduces the
// histogram exactly — quantiles, mean, and extrema included. The empty
// histogram's min sentinel round-trips as-is.
//
// The bytes are the ones json.Marshal writes for histogramJSON, the
// canonical form
//
//	{"n":N,"sum":S,"min":M,"max":X,"buckets":{"I":C,...}}
//
// with buckets omitted when every count is zero, zero counts skipped,
// and bucket keys in encoding/json's map order: sorted as decimal
// strings ("105" < "11" < "2"). Both directions are hand-written for
// that form, since the cache stores one histogram per latency column
// of every cell. The decoder reads the canonical form in one pass and
// hands any other input to the generic json.Unmarshal decode, so every
// input decodes to the same histogram, or fails with the same error,
// as it does through the generic decode alone.

type histogramJSON struct {
	N       uint64         `json:"n"`
	Sum     sim.Time       `json:"sum"`
	Min     sim.Time       `json:"min"`
	Max     sim.Time       `json:"max"`
	Buckets map[int]uint64 `json:"buckets,omitempty"`
}

// bucketOrder lists the bucket indices in the order encoding/json
// writes map[int] keys, as decimal strings; bucketRank is its inverse.
var bucketOrder, bucketRank = func() ([]int, []int) {
	order := make([]int, maxBuckets)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return strconv.Itoa(order[a]) < strconv.Itoa(order[b])
	})
	rank := make([]int, maxBuckets)
	for r, b := range order {
		rank[b] = r
	}
	return order, rank
}()

// MarshalJSON encodes the histogram with sparse buckets.
func (h *Histogram) MarshalJSON() ([]byte, error) {
	b := make([]byte, 0, 96)
	b = append(b, `{"n":`...)
	b = strconv.AppendUint(b, h.n, 10)
	b = append(b, `,"sum":`...)
	b = strconv.AppendInt(b, int64(h.sum), 10)
	b = append(b, `,"min":`...)
	b = strconv.AppendInt(b, int64(h.min), 10)
	b = append(b, `,"max":`...)
	b = strconv.AppendInt(b, int64(h.max), 10)
	open := false
	for _, bi := range bucketOrder {
		if bi >= len(h.counts) || h.counts[bi] == 0 {
			continue
		}
		if open {
			b = append(b, ',')
		} else {
			b = append(b, `,"buckets":{`...)
			open = true
		}
		b = append(b, '"')
		b = strconv.AppendInt(b, int64(bi), 10)
		b = append(b, '"', ':')
		b = strconv.AppendUint(b, h.counts[bi], 10)
	}
	if open {
		b = append(b, '}')
	}
	return append(b, '}'), nil
}

// UnmarshalJSON reconstructs a histogram encoded by MarshalJSON.
func (h *Histogram) UnmarshalJSON(b []byte) error {
	if h.decodeCanonical(b) {
		return nil
	}
	return h.decodeGeneric(b)
}

// decodeGeneric decodes any JSON form of histogramJSON and checks that
// each bucket is in range and that the counts sum to n.
func (h *Histogram) decodeGeneric(b []byte) error {
	var dec histogramJSON
	if err := json.Unmarshal(b, &dec); err != nil {
		return err
	}
	h.counts = make([]uint64, maxBuckets)
	var total uint64
	for bi, c := range dec.Buckets {
		if bi < 0 || bi >= maxBuckets {
			return fmt.Errorf("stats: histogram bucket %d out of range", bi)
		}
		h.counts[bi] = c
		total += c
	}
	if total != dec.N {
		return fmt.Errorf("stats: histogram bucket counts sum to %d, n = %d", total, dec.N)
	}
	h.n = dec.N
	h.sum = dec.Sum
	h.min = dec.Min
	h.max = dec.Max
	return nil
}

// decodeCanonical decodes b if it is in the canonical form MarshalJSON
// writes, with every bucket in range and counts that sum to n, and
// reports whether it did; h is untouched otherwise. Integers must be
// plain decimals without leading zeros, bucket keys must come in
// encoding/json's order (which also rules out duplicates), and no
// whitespace or other field may appear. The bucket object may be
// empty.
func (h *Histogram) decodeCanonical(b []byte) bool {
	p := canonReader{b: b}
	var n uint64
	var sum, minT, maxT sim.Time
	ok := p.lit(`{"n":`) && p.uint(&n) &&
		p.lit(`,"sum":`) && p.time(&sum) &&
		p.lit(`,"min":`) && p.time(&minT) &&
		p.lit(`,"max":`) && p.time(&maxT)
	if !ok {
		return false
	}
	counts := make([]uint64, maxBuckets)
	var total uint64
	if p.lit(`,"buckets":{`) && !p.lit("}") {
		for prev := -1; ; {
			var bi, c uint64
			if !p.lit(`"`) || !p.uint(&bi) || bi >= maxBuckets || bucketRank[bi] <= prev ||
				!p.lit(`":`) || !p.uint(&c) {
				return false
			}
			prev = bucketRank[bi]
			counts[bi] = c
			total += c
			if p.lit("}") {
				break
			}
			if !p.lit(",") {
				return false
			}
		}
	}
	if !p.lit("}") || p.i != len(b) || total != n {
		return false
	}
	h.counts, h.n, h.sum, h.min, h.max = counts, n, sum, minT, maxT
	return true
}

// canonReader consumes the canonical histogram form from b[i:].
type canonReader struct {
	b []byte
	i int
}

// lit consumes s if b continues with it.
func (p *canonReader) lit(s string) bool {
	if len(p.b)-p.i < len(s) || string(p.b[p.i:p.i+len(s)]) != s {
		return false
	}
	p.i += len(s)
	return true
}

// uint consumes a decimal without sign or leading zeros that fits in
// a uint64.
func (p *canonReader) uint(v *uint64) bool {
	j := p.i
	for j < len(p.b) && p.b[j] >= '0' && p.b[j] <= '9' {
		j++
	}
	if j == p.i || (p.b[p.i] == '0' && j > p.i+1) {
		return false
	}
	var x uint64
	for _, c := range p.b[p.i:j] {
		d := uint64(c - '0')
		if x > (math.MaxUint64-d)/10 {
			return false
		}
		x = x*10 + d
	}
	*v, p.i = x, j
	return true
}

// time consumes an optionally negative decimal that fits in an int64.
func (p *canonReader) time(v *sim.Time) bool {
	neg := p.lit("-")
	var m uint64
	if !p.uint(&m) || m > 1<<63 || (!neg && m == 1<<63) {
		return false
	}
	if neg {
		m = -m
	}
	*v = sim.Time(m)
	return true
}
