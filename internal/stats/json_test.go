package stats

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"atomicsmodel/internal/sim"
)

// genericJSON is the encoding the hand-written MarshalJSON must
// reproduce byte for byte: json.Marshal of histogramJSON.
func genericJSON(h *Histogram) ([]byte, error) {
	enc := histogramJSON{N: h.n, Sum: h.sum, Min: h.min, Max: h.max}
	for b, c := range h.counts {
		if c != 0 {
			if enc.Buckets == nil {
				enc.Buckets = make(map[int]uint64)
			}
			enc.Buckets[b] = c
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
		if h.counts != nil && !reflect.DeepEqual(h, h2) {
			t.Fatalf("histogram %d: round trip changed it: %+v -> %+v", i, h, h2)
		}
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
