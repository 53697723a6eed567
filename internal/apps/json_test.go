package apps

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

// runResultSeeds returns results whose encodings seed
// FuzzRunResultJSON: an elimination stack with every optional field
// set and a metrics snapshot, a plain counter, and hand-made ones with
// nil and empty PerThreadOps, a nil histogram, an App name that needs
// escaping, and floats at the edges of encoding/json's 'f' and 'e'
// forms.
func runResultSeeds(tb testing.TB) []*RunResult {
	cfg := appCfg(machine.XeonE5(), 16, func(eng *sim.Engine, mem *atomics.Memory) App {
		return NewEliminationStack(eng, mem, 64, 4, 200*sim.Nanosecond)
	})
	cfg.Metrics = true
	elim, err := Run(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if elim.Attempts == 0 || elim.Eliminations == 0 || elim.Metrics == nil {
		tb.Fatalf("elimination seed lacks an optional field: %+v", elim)
	}
	elim.Violations = 2
	plain, err := Run(appCfg(machine.Ideal(8), 4, func(eng *sim.Engine, mem *atomics.Memory) App {
		return NewFAACounter(mem)
	}))
	if err != nil {
		tb.Fatal(err)
	}
	edges := &RunResult{
		App: `<a&b> "q"\`, Threads: math.MinInt64, PerThreadOps: []uint64{},
		ThroughputMops: 1e-7, Jain: 1e21, MinMax: 9.999999999999999e20, TotalOps: math.MaxUint64,
	}
	return []*RunResult{elim, plain, {}, edges}
}

// FuzzRunResultJSON holds RunResult's hand codec to the generic
// encoding/json codec of the same fields (genericRunResult), as
// FuzzResultJSON does workload.Result's: the same value or the same
// error on decode, the generic encoder's bytes or its error on encode
// (x goes into two floats, NaN and ±Inf included), and a canonical
// decode of every encoding. Run with
// `go test -fuzz FuzzRunResultJSON ./internal/apps`.
func FuzzRunResultJSON(f *testing.F) {
	for _, r := range runResultSeeds(f) {
		b, err := r.MarshalJSON()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b, r.ThroughputMops)
	}
	for _, s := range []string{
		`{"App":"treiber","Threads":4,"Ops":1,"PerThreadOps":null,"Latency":null,"ThroughputMops":0,"Jain":0,` +
			`"MinMax":0,"TotalOps":1,"attempts":0,"violations":1}`,
		`{"App":"ab","Threads":1}`,
		`{"App":"x","Threads":1,"Ops":1}` + "\n",
		`{"Threads":1,"App":"x"}`,
		`{"App":"x","App":"y"}`,
		`{"app":"x","ATTEMPTS":3,"metrics":{"counters":[{"name":"x","value":1}]}}`,
		`{"Threads":9223372036854775808}`,
		`{"Threads":-0}`,
		`{"Jain":1e400}`,
		`{"MinMax":-0.0,"Jain":1E+2,"ThroughputMops":0.1e-7}`,
		`{"PerThreadOps":[1,-2]}`,
		`{"attempts":1,"eliminations":2,"violations":3,"metrics":null}`,
		`[]`, `null`, `7`, `"x"`, ` {}`, `{}`,
	} {
		f.Add([]byte(s), 1.0)
	}
	f.Add([]byte(`{}`), math.NaN())
	f.Add([]byte(`{}`), math.Inf(1))
	f.Add([]byte(`{}`), math.Inf(-1))
	f.Fuzz(func(t *testing.T, data []byte, x float64) {
		hand, gen := &RunResult{}, &RunResult{}
		err := hand.UnmarshalJSON(data)
		genErr := json.Unmarshal(data, (*genericRunResult)(gen))
		if (err == nil) != (genErr == nil) || (err != nil && err.Error() != genErr.Error()) {
			t.Fatalf("UnmarshalJSON(%q) = %v, generic decode = %v", data, err, genErr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(hand, gen) {
			t.Fatalf("decodes of %q differ:\n  hand %+v\n   gen %+v", data, hand, gen)
		}
		gen.ThroughputMops, gen.MinMax = x, -x
		got, err := gen.MarshalJSON()
		want, wantErr := json.Marshal((*genericRunResult)(gen))
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("MarshalJSON error %v, generic encode error %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("encodings differ:\n got %s\nwant %s", got, want)
		}
		back := &RunResult{}
		if err := back.UnmarshalJSON(got); err != nil {
			t.Fatalf("encoding %s does not decode: %v", got, err)
		}
		if again, _ := back.MarshalJSON(); !bytes.Equal(again, got) {
			t.Fatalf("round trip of %s re-encodes as %s", got, again)
		}
	})
}

// TestRunResultCanonicalDecode: every seed's encoding takes the
// one-pass path, and so does any App name that needs no escape.
func TestRunResultCanonicalDecode(t *testing.T) {
	for i, r := range runResultSeeds(t) {
		b, err := r.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		escaped := bytes.ContainsRune(b, '\\')
		if ok := (&RunResult{}).readJSON(b); ok == escaped {
			t.Fatalf("seed %d: canonical decode of %s = %v", i, b, ok)
		}
	}
}
