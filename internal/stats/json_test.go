package stats

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"atomicsmodel/internal/sim"
)

// genericJSON is the encoding the hand-written MarshalJSON must
// reproduce byte for byte: json.Marshal of histogramJSON.
func genericJSON(h *Histogram) ([]byte, error) {
	enc := histogramJSON{N: h.n, Sum: h.sum, Min: h.min, Max: h.max}
	for i, c := range h.counts {
		if c != 0 {
			if enc.Buckets == nil {
				enc.Buckets = make(map[int]uint64)
			}
			enc.Buckets[h.lo+i] = c
		}
	}
	return json.Marshal(enc)
}

// randomHistogram records up to n values spread over several octaves,
// so bucket indices of one, two and three digits all occur.
func randomHistogram(seed uint64, n int) *Histogram {
	rng := sim.NewRNG(seed)
	h := NewHistogram()
	for i := 0; i < int(rng.Uint64()%uint64(n+1)); i++ {
		h.RecordN(sim.Time(rng.Uint64()%(1<<(rng.Uint64()%40))), 1+rng.Uint64()%3)
	}
	return h
}

// TestHistogramMarshalMatchesGeneric pins the hand-written encoder to
// the bytes encoding/json writes, including its string order of
// bucket keys, alone and nested in a value as the cell cache stores
// it.
func TestHistogramMarshalMatchesGeneric(t *testing.T) {
	hs := []*Histogram{NewHistogram(), {}}
	for seed := uint64(1); seed <= 200; seed++ {
		hs = append(hs, randomHistogram(seed, 3000))
	}
	neg := NewHistogram()
	neg.sum, neg.min = -5, -1<<63
	hs = append(hs, neg)
	for i, h := range hs {
		got, err := json.Marshal(h)
		if err != nil {
			t.Fatal(err)
		}
		want, err := genericJSON(h)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("histogram %d:\n got %s\nwant %s", i, got, want)
		}
		h2 := &Histogram{}
		if !h2.decodeCanonical(got) {
			t.Fatalf("histogram %d: canonical decode rejected its own encoding %s", i, got)
		}
		if h.counts != nil {
			sameContents(t, fmt.Sprintf("histogram %d round trip", i), h2, h)
		}
	}
}

// count returns the count of absolute bucket b, which is zero outside
// h's window.
func (h *Histogram) count(b int) uint64 {
	if i := b - h.lo; i >= 0 && i < len(h.counts) {
		return h.counts[i]
	}
	return 0
}

// sameContents fails t unless got and want hold the same histogram:
// n, sum, min and max, and the count of every bucket 0 … maxBuckets-1,
// wherever their windows lie.
func sameContents(t *testing.T, what string, got, want *Histogram) {
	t.Helper()
	if got.n != want.n || got.sum != want.sum || got.min != want.min || got.max != want.max {
		t.Fatalf("%s: n, sum, min, max = %d, %d, %d, %d; want %d, %d, %d, %d",
			what, got.n, got.sum, got.min, got.max, want.n, want.sum, want.min, want.max)
	}
	for b := 0; b < maxBuckets; b++ {
		if g, w := got.count(b), want.count(b); g != w {
			t.Fatalf("%s: bucket %d holds %d, want %d", what, b, g, w)
		}
	}
}

// TestDecodedHistogramWindow: a decoded histogram holds only the
// buckets from its minimum's to its maximum's (none when empty), and
// one whose header is inconsistent with its buckets decodes to every
// bucket with the same contents through both decoders.
func TestDecodedHistogramWindow(t *testing.T) {
	for _, tc := range []struct {
		in     string
		lo, nb int
	}{
		{`{"n":0,"sum":0,"min":9223372036854775807,"max":0}`, 0, 0},
		{`{"n":2,"sum":200,"min":100,"max":100,"buckets":{"52":2}}`, 52, 1},
		{`{"n":2,"sum":300,"min":100,"max":200,"buckets":{"52":1,"60":1}}`, 52, 9},
		{`{"n":1,"sum":100,"min":100,"max":100,"buckets":{"60":1}}`, 0, maxBuckets},
		{`{"n":1,"sum":100,"min":200,"max":100,"buckets":{"52":1}}`, 0, maxBuckets},
		{`{"n":0,"sum":0,"min":0,"max":0,"buckets":{"3":0}}`, 0, maxBuckets},
	} {
		for _, dec := range []func(*Histogram, []byte) error{(*Histogram).UnmarshalJSON, (*Histogram).decodeGeneric} {
			var h Histogram
			if err := dec(&h, []byte(tc.in)); err != nil {
				t.Fatalf("%s: %v", tc.in, err)
			}
			if h.lo != tc.lo || len(h.counts) != tc.nb {
				t.Fatalf("%s: window %d+%d, want %d+%d", tc.in, h.lo, len(h.counts), tc.lo, tc.nb)
			}
			got, _ := h.MarshalJSON()
			want, _ := genericJSON(&h)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s re-encodes as %s, generic %s", tc.in, got, want)
			}
		}
	}
}

// TestDecodedHistogramActsFull: Record, RecordN, CopyInto (either
// way), AddScaledDiff and Reset on a decoded histogram leave it, and
// what they write, holding what the same calls leave on the full-width
// histogram it was encoded from.
func TestDecodedHistogramActsFull(t *testing.T) {
	for seed := uint64(1); seed <= 60; seed++ {
		full := randomHistogram(seed, 300)
		enc, _ := full.MarshalJSON()
		decode := func() *Histogram {
			var h Histogram
			if err := h.UnmarshalJSON(enc); err != nil {
				t.Fatal(err)
			}
			return &h
		}
		rng := sim.NewRNG(seed + 1000)
		v := sim.Time(rng.Uint64() % (1 << (rng.Uint64() % 40)))
		fullCopy := func() *Histogram {
			h := NewHistogram()
			full.CopyInto(h)
			return h
		}
		what := func(op string) string { return fmt.Sprintf("seed %d: %s", seed, op) }

		d, f := decode(), fullCopy()
		d.Record(v)
		f.Record(v)
		sameContents(t, what("Record"), d, f)
		d, f = decode(), fullCopy()
		d.RecordN(v, 3)
		f.RecordN(v, 3)
		sameContents(t, what("RecordN"), d, f)
		if d, f := decode(), fullCopy(); d.Quantile(0.5) != f.Quantile(0.5) || d.Quantile(0.99) != f.Quantile(0.99) {
			t.Fatalf("%s: quantiles differ", what("Quantile"))
		}

		d, f = decode(), fullCopy()
		dst, fdst := randomHistogram(seed+7, 50), randomHistogram(seed+7, 50)
		d.CopyInto(dst)
		f.CopyInto(fdst)
		sameContents(t, what("CopyInto from decoded"), dst, fdst)
		sameContents(t, what("CopyInto source"), d, f)
		d, f = decode(), fullCopy()
		src := randomHistogram(seed+9, 50)
		src.CopyInto(d)
		src.CopyInto(f)
		sameContents(t, what("CopyInto to decoded"), d, f)

		// A snapshot, a few more records, then k-fold replay of the
		// growth, with the decoded histogram as the live one and as
		// the base in turn.
		d, f = decode(), fullCopy()
		base, fbase := NewHistogram(), NewHistogram()
		d.CopyInto(base)
		f.CopyInto(fbase)
		for i := 0; i < 5; i++ {
			d.Record(v + sim.Time(i))
			f.Record(v + sim.Time(i))
		}
		d.AddScaledDiff(base, 4)
		f.AddScaledDiff(fbase, 4)
		sameContents(t, what("AddScaledDiff"), d, f)
		live, flive := fullCopy(), fullCopy()
		dbase, fb := decode(), fullCopy()
		live.Record(v)
		flive.Record(v)
		live.AddScaledDiff(dbase, 2)
		flive.AddScaledDiff(fb, 2)
		sameContents(t, what("AddScaledDiff on a decoded base"), live, flive)

		d, f = decode(), fullCopy()
		d.Reset()
		f.Reset()
		sameContents(t, what("Reset"), d, f)
		sameContents(t, what("Reset vs new"), d, NewHistogram())
	}
}

// FuzzHistogramJSON holds the one-pass decoder to the generic decode
// it stands in for: on any input, UnmarshalJSON and the generic decode
// agree on failing or not and on the histogram they build, and an
// input the canonical reader accepts decodes the same through both.
// A decoded histogram re-encodes to the generic encoder's bytes. Run
// with `go test -fuzz FuzzHistogramJSON ./internal/stats`.
func FuzzHistogramJSON(f *testing.F) {
	for _, h := range []*Histogram{NewHistogram(), randomHistogram(7, 500), randomHistogram(11, 50)} {
		b, _ := h.MarshalJSON()
		f.Add(b)
	}
	for _, s := range []string{
		`{"n":0,"sum":0,"min":0,"max":0,"buckets":{}}`,
		`{"n":1,"sum":-0,"min":-9223372036854775808,"max":9223372036854775807,"buckets":{"5":1}}`,
		`{"n":2,"sum":1,"min":1,"max":1,"buckets":{"5":1,"5":1}}`,
		`{"n":2,"sum":1,"min":1,"max":1,"buckets":{"2":1,"11":1}}`,
		`{"n":1,"sum":1,"min":1,"max":1,"buckets":{"05":1}}`,
		`{"n":1,"sum":1,"min":1,"max":1,"buckets":{"\u0035":1}}`,
		`{"n":1,"sum":1,"min":1,"max":1,"buckets":{"999":1}}`,
		`{"n":2,"sum":1,"min":1,"max":1,"buckets":{"5":1}}`,
		`{"n":1,"sum":1,"min":1,"max":1,"buckets":{"5":0,"6":1}}`,
		`{"sum":1,"n":0,"min":1,"max":1}`,
		`{"N":0,"sum":1,"min":1,"max":1}`,
		`{"n":0, "sum":1,"min":1,"max":1}`,
		`{"n":0,"sum":1.0,"min":1,"max":1}`,
		`{"n":18446744073709551616,"sum":1,"min":1,"max":1}`,
		`{"n":0,"sum":9223372036854775808,"min":1,"max":1}`,
		`{"n":0,"sum":1,"min":1,"max":1} `,
		`{"n":0,"sum":1,"min":1,"max":1,"buckets":null}`,
		`null`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fast := &Histogram{}
		canonical := fast.decodeCanonical(data)
		gen := &Histogram{}
		genErr := gen.decodeGeneric(data)
		if canonical {
			if genErr != nil {
				t.Fatalf("canonical decode accepted %q, generic decode failed: %v", data, genErr)
			}
			if !reflect.DeepEqual(fast, gen) {
				t.Fatalf("decodes of %q differ:\ncanonical %+v\n  generic %+v", data, fast, gen)
			}
		}
		h := &Histogram{}
		err := h.UnmarshalJSON(data)
		if (err == nil) != (genErr == nil) {
			t.Fatalf("UnmarshalJSON(%q) = %v, generic decode = %v", data, err, genErr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(h, gen) {
			t.Fatalf("decodes of %q differ:\nUnmarshalJSON %+v\n      generic %+v", data, h, gen)
		}
		got, _ := h.MarshalJSON()
		want, err := genericJSON(h)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("re-encoding of %q:\n got %s\nwant %s", data, got, want)
		}
	})
}

// histogramSink keeps the benchmarked results live.
var histogramSink []byte

// BenchmarkHistogramJSON times one histogram through the cell cache's
// codec in each direction. The histogram holds 2,000 latencies spread
// over about 20 buckets, the shape of a contended cell's.
func BenchmarkHistogramJSON(b *testing.B) {
	h := NewHistogram()
	rng := sim.NewRNG(3)
	for i := 0; i < 2000; i++ {
		h.Record(sim.Time(20000 + rng.Uint64()%60000))
	}
	enc, err := h.MarshalJSON()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Marshal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			histogramSink, _ = h.MarshalJSON()
		}
	})
	b.Run("Unmarshal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var d Histogram
			if err := d.UnmarshalJSON(enc); err != nil {
				b.Fatal(err)
			}
		}
	})
}
