package metrics

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"atomicsmodel/internal/canonjson"
)

// fleetSnapshot is a snapshot the size and shape of a fleet cell's
// (about 1.5 KB of JSON): the coherence, engine and workload counters,
// the four occupancy and per-thread vectors of a 36-node machine with
// 16 threads, mostly zero as a contended cell's are, and the two
// queueing histograms.
func fleetSnapshot() *Snapshot {
	r := New()
	for i, name := range []string{
		CohTransferLocal, CohTransferRemote, CohTransferLLC, CohTransferDRAM,
		CohInvalidations, CohCrossSocket, SimEvents, SimQueuePeak, SimQueueTime,
		WorkCASFailures, WorkReads, WorkRMWs, WorkWindow,
	} {
		r.Counter(name).Add(uint64(i) * 45720)
	}
	dir, line, link, ops := r.Vector(CohDirBusy, 36), r.Vector(CohLineBusy, maxLines), r.Vector(CohLinkBusy, 60), r.Vector(WorkThreadOps, 16)
	for i := 0; i < 60; i += 7 {
		dir.Add(i%36, 4000000*uint64(i+1))
		link.Add(i, 123456789*uint64(i+1))
	}
	line.Add(1, 400004280)
	for i := 0; i < 16; i++ {
		ops.Add(i, 11429+uint64(i))
	}
	depth, behind := r.Histogram(CohQueueDepth), r.Histogram(CohQueuedBehind)
	for i := uint64(0); i < 2000; i++ {
		depth.Observe(1 + i%16)
		behind.Observe(i % 5)
	}
	return r.Snapshot()
}

// maxLines is the occupancy vector's length in a coherence system.
const maxLines = 64

// FuzzSnapshotJSON holds Snapshot's hand codec to the generic
// encoding/json codec of the same fields (genericSnapshot). On any
// input, UnmarshalJSON into a zero snapshot fails exactly where the
// generic decode fails, with the same error, and otherwise decodes the
// same value; an input the canonical reader accepts is one the generic
// decode reads the same. The decoded value encodes to the generic
// encoder's bytes, and that encoding decodes back on the canonical
// path to a value that encodes the same. Run with
// `go test -fuzz FuzzSnapshotJSON ./internal/metrics`.
func FuzzSnapshotJSON(f *testing.F) {
	for _, s := range []*Snapshot{
		fleetSnapshot(),
		{},
		{Vectors: []VectorSnap{{Name: "nil"}, {Name: "empty", Values: []uint64{}}}},
		{Hists: []HistSnap{{Name: "h", Count: 1, Sum: math.MaxUint64, Max: 7}}},
		{Counters: []CounterSnap{{Name: "<&>é", Value: 1}}},
	} {
		b, err := s.MarshalJSON()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, s := range []string{
		`{}`,
		`{"counters":[]}`,
		`{"counters":null}`,
		`{"vectors":[{"name":"v","values":null}]}`,
		`{"vectors":[{"name":"v","values":[]}]}`,
		`{"hists":[{"name":"h","count":1,"sum":1,"max":1}]}`,
		`{"hists":[{"name":"h","count":1,"sum":1,"max":1,"buckets":[]}]}`,
		`{"hists":[{"name":"h","count":1,"sum":1,"max":1,"buckets":null}]}`,
		`{"vectors":[{"name":"v","values":[1]}],"counters":[{"name":"c","value":1}]}`,
		`{"counters":[{"value":1,"name":"c"}]}`,
		`{"counters":[{"name":"c","value":1}],"counters":[{"name":"d","value":2}]}`,
		`{"counters":[{"name":"c","value":1,"value":2}]}`,
		`{"Counters":[{"Name":"c","VALUE":1}]}`,
		`{"counters":[{"name":"c","value":1}],"extra":1}`,
		`{ "counters" : [ {"name":"c","value":1} ] }`,
		`{"counters":[{"name":"c","value":1}]} `,
		`{"counters":[{"name":"c","value":18446744073709551615}]}`,
		`{"counters":[{"name":"c","value":18446744073709551616}]}`,
		`{"counters":[{"name":"c","value":-1}]}`,
		`{"counters":[{"name":"c","value":1.0}]}`,
		`{"counters":[{"name":"c","value":01}]}`,
		`{"vectors":[{"name":"v","values":[1,18446744073709551616]}]}`,
		`{"counters":[{"name":"c","value":1}]}`,
		`{"counters":[{"name":"cé","value":1}]}`,
		`{"counters":[{"name":1,"value":1}]}`,
		`null`, `[]`, `7`, `""`, ` {}`, `{`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var canon Snapshot
		p := &canonjson.Reader{B: data}
		canonOK := canon.ReadJSON(p) && p.Done()
		hand, gen := &Snapshot{}, &Snapshot{}
		err := hand.UnmarshalJSON(data)
		genErr := json.Unmarshal(data, (*genericSnapshot)(gen))
		if (err == nil) != (genErr == nil) || (err != nil && err.Error() != genErr.Error()) {
			t.Fatalf("UnmarshalJSON(%q) = %v, generic decode = %v", data, err, genErr)
		}
		if canonOK && (genErr != nil || !reflect.DeepEqual(&canon, gen)) {
			t.Fatalf("canonical read of %q gave %+v, generic decode %+v (%v)", data, canon, gen, genErr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(hand, gen) {
			t.Fatalf("decodes of %q differ:\n  hand %+v\n   gen %+v", data, hand, gen)
		}
		got, err := gen.MarshalJSON()
		want, wantErr := json.Marshal((*genericSnapshot)(gen))
		if err != nil || wantErr != nil {
			t.Fatalf("MarshalJSON error %v, generic encode error %v", err, wantErr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("encodings differ:\n got %s\nwant %s", got, want)
		}
		back := &Snapshot{}
		bp := &canonjson.Reader{B: got}
		if !back.ReadJSON(bp) || !bp.Done() {
			// Only names the reader's strings cannot hold, escaped or
			// outside printable ASCII, leave the canonical path.
			if !bytes.ContainsFunc(got, func(r rune) bool { return r == '\\' || r < 0x20 || r > 0x7e }) {
				t.Fatalf("canonical read rejected its own encoding %s", got)
			}
			return
		}
		if again, _ := back.MarshalJSON(); !bytes.Equal(again, got) {
			t.Fatalf("round trip of %s re-encodes as %s", got, again)
		}
	})
}

// TestSnapshotJSONThroughEncodingJSON: json.Marshal and json.Unmarshal
// reach the codec through encoding/json, which must add nothing (the
// codec's output is already compact and HTML-safe) and decode what it
// decodes when called directly, a nil snapshot field included.
func TestSnapshotJSONThroughEncodingJSON(t *testing.T) {
	type holder struct {
		S *Snapshot `json:"s,omitempty"`
		N *Snapshot `json:"n"`
	}
	for i, s := range []*Snapshot{fleetSnapshot(), {}, {Counters: []CounterSnap{{Name: "<a&b>", Value: 3}}}} {
		direct, err := s.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		via, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(direct, via) {
			t.Fatalf("snapshot %d: json.Marshal adds to MarshalJSON:\n%s\n%s", i, via, direct)
		}
		want, _ := json.Marshal((*genericSnapshot)(s))
		if !bytes.Equal(direct, want) {
			t.Fatalf("snapshot %d: MarshalJSON differs from the generic encoding:\n%s\n%s", i, direct, want)
		}
		hb, err := json.Marshal(holder{S: s})
		if err != nil {
			t.Fatal(err)
		}
		var h holder
		if err := json.Unmarshal(hb, &h); err != nil {
			t.Fatal(err)
		}
		again, _ := json.Marshal(h)
		if !bytes.Equal(again, hb) || h.N != nil {
			t.Fatalf("snapshot %d: holder round trip %s, want %s", i, again, hb)
		}
	}
	// A partly filled snapshot takes the generic decode, which reuses
	// its slices element by element: a histogram keeps buckets the
	// input leaves out.
	s := &Snapshot{Hists: []HistSnap{{Name: "old", Buckets: []BucketSnap{{Low: 1, Count: 2}}}}}
	g := &Snapshot{Hists: []HistSnap{{Name: "old", Buckets: []BucketSnap{{Low: 1, Count: 2}}}}}
	in := []byte(`{"hists":[{"name":"new","count":0,"sum":0,"max":0}]}`)
	if err := s.UnmarshalJSON(in); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(in, (*genericSnapshot)(g)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, g) {
		t.Fatalf("decode into a filled snapshot: %+v, generic decode %+v", s, g)
	}
}

// snapshotSink keeps the benchmarked results live.
var snapshotSink []byte

// BenchmarkSnapshotJSON times one fleet-sized snapshot (fleetSnapshot)
// through its codec in each direction: the per-cell cost of carrying a
// metrics-on cell's snapshot through the resume cache.
func BenchmarkSnapshotJSON(b *testing.B) {
	s := fleetSnapshot()
	enc, err := s.MarshalJSON()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Marshal", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(enc)))
		for i := 0; i < b.N; i++ {
			snapshotSink, _ = s.MarshalJSON()
		}
	})
	b.Run("Unmarshal", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(enc)))
		for i := 0; i < b.N; i++ {
			var d Snapshot
			if err := d.UnmarshalJSON(enc); err != nil {
				b.Fatal(err)
			}
		}
	})
}
