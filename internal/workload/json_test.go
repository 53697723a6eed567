package workload

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"atomicsmodel/internal/atomics"
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/sim"
)

// resultSeeds returns results whose encodings seed FuzzResultJSON: two
// simulated cells, one with a metrics snapshot, and hand-made ones with
// nil and empty PerThreadOps, nil histograms, and floats at the edges
// of encoding/json's 'f' and 'e' forms.
func resultSeeds(tb testing.TB) []*Result {
	plain, err := Run(quickCfg(machine.XeonE5(), atomics.CAS, 8))
	if err != nil {
		tb.Fatal(err)
	}
	cfg := quickCfg(machine.Ideal(8), atomics.FAA, 4)
	cfg.Metrics = true
	metered, err := Run(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	edges := &Result{
		Ops: math.MaxUint64, PerThreadOps: []uint64{}, MeasuredFor: math.MinInt64,
		ThroughputMops: 1e-7, Jain: 1e21, CoV: 9.999999999999999e20, MinMax: 1e-6,
		Coh: metered.Coh,
	}
	edges.Energy.StaticJ, edges.Energy.ActiveJ, edges.Energy.DynamicJ = -1e-7, 5e-324, math.MaxFloat64
	edges.Coh.MaxQueueLen, edges.Coh.LinkStall = -3, math.MaxInt64
	return []*Result{plain, metered, {}, edges}
}

// FuzzResultJSON holds Result's hand codec to the generic encoding/json
// codec of the same fields (genericResult). On any input,
// UnmarshalJSON fails exactly where the generic decode fails, with the
// same error, and otherwise decodes the same value. The decoded value,
// with x written into two of its floats (NaN and ±Inf included),
// encodes to the generic encoder's bytes, or fails where it fails, and
// a successful encoding decodes back on the canonical path to a value
// that encodes the same. Run with
// `go test -fuzz FuzzResultJSON ./internal/workload`.
func FuzzResultJSON(f *testing.F) {
	for _, r := range resultSeeds(f) {
		b, err := r.MarshalJSON()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b, r.ThroughputMops)
	}
	for _, s := range []string{
		`{"Ops":1,"Attempts":2,"Failures":1,"PerThreadOps":null,"Latency":null,"SuccessLatency":null,"MeasuredFor":0,` +
			`"ThroughputMops":0,"Jain":0,"CoV":0,"MinMax":0,"Energy":{"StaticJ":0,"ActiveJ":0,"DynamicJ":0,"TotalJ":0,` +
			`"PerOpNJ":0,"AvgPowerW":0},"Coh":{"Accesses":0,"LocalHits":0,"RemoteXfers":0,"LLCFills":0,"DRAMFills":0,` +
			`"Invals":0,"TotalHops":0,"CrossSocket":0,"MaxQueueLen":0,"LinkStall":0}}`,
		`{"Ops": 1}`,
		`{"Attempts":2,"Ops":1}`,
		`{"Ops":1,"Ops":2}`,
		`{"ops":1,"metrics":{"counters":[{"name":"x","value":1}]}}`,
		`{"Ops":-1}`,
		`{"Ops":1.5}`,
		`{"ThroughputMops":1e400}`,
		`{"ThroughputMops":-0.0,"Jain":1E+2,"CoV":0.1e-7}`,
		`{"PerThreadOps":[1,2,"3"]}`,
		`{"Latency":{"n":1,"sum":1,"min":1,"max":1,"buckets":{"999":1}}}`,
		`{"Coh":{"MaxQueueLen":9223372036854775808}}`,
		`{"metrics":null}`,
		`[]`, `null`, `7`, `"x"`, ` {}`, `{}`,
	} {
		f.Add([]byte(s), 1.0)
	}
	f.Add([]byte(`{}`), math.NaN())
	f.Add([]byte(`{}`), math.Inf(1))
	f.Add([]byte(`{}`), math.Inf(-1))
	f.Fuzz(func(t *testing.T, data []byte, x float64) {
		hand, gen := &Result{}, &Result{}
		err := hand.UnmarshalJSON(data)
		genErr := json.Unmarshal(data, (*genericResult)(gen))
		if (err == nil) != (genErr == nil) || (err != nil && err.Error() != genErr.Error()) {
			t.Fatalf("UnmarshalJSON(%q) = %v, generic decode = %v", data, err, genErr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(hand, gen) {
			t.Fatalf("decodes of %q differ:\n  hand %+v\n   gen %+v", data, hand, gen)
		}
		gen.ThroughputMops, gen.Energy.PerOpNJ = x, -x
		got, err := gen.MarshalJSON()
		want, wantErr := json.Marshal((*genericResult)(gen))
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("MarshalJSON error %v, generic encode error %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("encodings differ:\n got %s\nwant %s", got, want)
		}
		back := &Result{}
		if !back.readJSON(got) {
			t.Fatalf("canonical decode rejected its own encoding %s", got)
		}
		if again, _ := back.MarshalJSON(); !bytes.Equal(again, got) {
			t.Fatalf("round trip of %s re-encodes as %s", got, again)
		}
	})
}

// TestResultJSONThroughEncodingJSON: json.Marshal and json.Unmarshal
// reach the codec through encoding/json, which must add nothing (the
// codec's output is already compact and HTML-safe) and decode what it
// decodes when called directly.
func TestResultJSONThroughEncodingJSON(t *testing.T) {
	for i, r := range resultSeeds(t) {
		direct, err := r.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		via, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(direct, via) {
			t.Fatalf("result %d: json.Marshal adds to MarshalJSON:\n%s\n%s", i, via, direct)
		}
		var a, b Result
		if err := a.UnmarshalJSON(direct); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(direct, &b); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("result %d decodes differently through json.Unmarshal", i)
		}
	}
	if b, err := (*Result)(nil).MarshalJSON(); err != nil || string(b) != "null" {
		t.Fatalf("nil result encodes as %s, %v", b, err)
	}
}

// resultSink keeps the benchmarked results live.
var resultSink []byte

// BenchmarkResultJSON times one F3-sized cell result through its codec
// each way: the 72-thread high-contention FAA cell of full F3 on
// XeonE5, with its latency histograms and per-thread op counts.
func BenchmarkResultJSON(b *testing.B) {
	r, err := Run(Config{
		Machine: machine.XeonE5(), Threads: 72, Primitive: atomics.FAA,
		Mode: HighContention, Warmup: 20 * sim.Microsecond, Duration: 200 * sim.Microsecond, Seed: 42 + 72,
	})
	if err != nil {
		b.Fatal(err)
	}
	enc, err := r.MarshalJSON()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Marshal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			resultSink, _ = r.MarshalJSON()
		}
	})
	b.Run("Unmarshal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var d Result
			if err := d.UnmarshalJSON(enc); err != nil {
				b.Fatal(err)
			}
		}
	})
}
