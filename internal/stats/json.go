package stats

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"

	"atomicsmodel/internal/canonjson"
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
// as it does through the generic decode alone. The cell results that
// hold histograms (internal/workload, internal/apps) write and read
// them in place, inside their own one-pass codecs, with AppendJSON and
// ReadHistogram.

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
	return h.AppendJSON(make([]byte, 0, 96)), nil
}

// AppendJSON appends MarshalJSON's encoding of h to b, or null for a
// nil h, as json.Marshal writes a nil *Histogram field.
func (h *Histogram) AppendJSON(b []byte) []byte {
	if h == nil {
		return append(b, "null"...)
	}
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
		i := bi - h.lo
		if uint(i) >= uint(len(h.counts)) || h.counts[i] == 0 {
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
		b = strconv.AppendUint(b, h.counts[i], 10)
	}
	if open {
		b = append(b, '}')
	}
	return append(b, '}')
}

// UnmarshalJSON reconstructs a histogram encoded by MarshalJSON.
func (h *Histogram) UnmarshalJSON(b []byte) error {
	if h.decodeCanonical(b) {
		return nil
	}
	return h.decodeGeneric(b)
}

// decoded returns an empty histogram with the header a decoder read
// and the window its buckets should fill: from min's bucket to max's,
// or none when n is 0 or max's bucket is below min's. A decoded
// bucket outside the window widens it (add), so an inconsistent
// header costs memory, not contents.
func decoded(n uint64, sum, minT, maxT sim.Time) Histogram {
	d := Histogram{n: n, sum: sum, min: minT, max: maxT}
	if lo, hi := bucketOf(minT), bucketOf(maxT); n > 0 && hi >= lo {
		d.lo, d.counts = lo, make([]uint64, hi-lo+1)
	}
	return d
}

// decodeGeneric decodes any JSON form of histogramJSON and checks that
// each bucket is in range and that the counts sum to n.
func (h *Histogram) decodeGeneric(b []byte) error {
	var dec histogramJSON
	if err := json.Unmarshal(b, &dec); err != nil {
		return err
	}
	d := decoded(dec.N, dec.Sum, dec.Min, dec.Max)
	var total uint64
	for bi, c := range dec.Buckets {
		if bi < 0 || bi >= maxBuckets {
			return fmt.Errorf("stats: histogram bucket %d out of range", bi)
		}
		d.add(bi, c)
		total += c
	}
	if total != dec.N {
		return fmt.Errorf("stats: histogram bucket counts sum to %d, n = %d", total, dec.N)
	}
	*h = d
	return nil
}

// decodeCanonical decodes b if it is one histogram in the canonical
// form (see ReadJSON) and reports whether it did; h is untouched
// otherwise.
func (h *Histogram) decodeCanonical(b []byte) bool {
	p := canonjson.Reader{B: b}
	var d Histogram
	if !d.ReadJSON(&p) || !p.Done() {
		return false
	}
	*h = d
	return true
}

// ReadHistogram consumes null, which it stores as a nil *h, or a
// histogram in the canonical form, which it stores as a new one: the
// reading json.Unmarshal gives a *Histogram field of a value whose
// codec reads its histograms in place.
func ReadHistogram(p *canonjson.Reader, h **Histogram) bool {
	if p.Lit("null") {
		*h = nil
		return true
	}
	d := &Histogram{}
	if !d.ReadJSON(p) {
		return false
	}
	*h = d
	return true
}

// ReadJSON consumes a histogram in the canonical form MarshalJSON
// writes from p, with every bucket in range and counts that sum to n,
// and reports whether it did; h is untouched otherwise, and p is left
// where reading stopped. Integers must be plain decimals without
// leading zeros, bucket keys must come in encoding/json's order (which
// also rules out duplicates), and no whitespace or other field may
// appear. The bucket object may be empty. Codecs of values that hold
// a histogram read it in place with this; what follows it in p is
// theirs to check.
func (h *Histogram) ReadJSON(p *canonjson.Reader) bool {
	var n uint64
	var sum, minT, maxT sim.Time
	ok := p.Lit(`{"n":`) && p.Uint(&n) &&
		p.Lit(`,"sum":`) && canonjson.Int(p, &sum) &&
		p.Lit(`,"min":`) && canonjson.Int(p, &minT) &&
		p.Lit(`,"max":`) && canonjson.Int(p, &maxT)
	if !ok {
		return false
	}
	d := decoded(n, sum, minT, maxT)
	var total uint64
	if p.Lit(`,"buckets":{`) && !p.Lit("}") {
		for prev := -1; ; {
			var bi, c uint64
			if !p.Lit(`"`) || !p.Uint(&bi) || bi >= maxBuckets || bucketRank[bi] <= prev ||
				!p.Lit(`":`) || !p.Uint(&c) {
				return false
			}
			prev = bucketRank[bi]
			d.add(int(bi), c)
			total += c
			if p.Lit("}") {
				break
			}
			if !p.Lit(",") {
				return false
			}
		}
	}
	if !p.Lit("}") || total != n {
		return false
	}
	*h = d
	return true
}
