package apps

import (
	"encoding/json"

	"atomicsmodel/internal/canonjson"
	"atomicsmodel/internal/stats"
)

// RunResult's JSON codec, written by hand for the one form
// encoding/json writes, as workload.Result's is (see its json.go):
//
//	{"App":"…","Threads":…,"Ops":…,"PerThreadOps":[…],"Latency":H,
//	 "ThroughputMops":…,"Jain":…,"MinMax":…,"TotalOps":…,
//	 "attempts":…,"eliminations":…,"violations":…,"metrics":…}
//
// without the line breaks, the last four only when nonzero or present.
// The reader takes exactly that form, with an App string that needs no
// escape, and hands any other input to the generic decode of
// genericRunResult.

// genericRunResult is RunResult without its methods: the type whose
// generic encoding the codec reproduces and falls back to.
type genericRunResult RunResult

// MarshalJSON encodes r as json.Marshal encodes its fields; a nil r
// encodes as null.
func (r *RunResult) MarshalJSON() ([]byte, error) {
	if r == nil {
		return []byte("null"), nil
	}
	w := canonjson.Writer{B: make([]byte, 0, 512+len(r.App)+12*len(r.PerThreadOps))}
	w.Lit(`{"App":`)
	w.Str(r.App)
	w.Lit(`,"Threads":`)
	w.Int(int64(r.Threads))
	w.Lit(`,"Ops":`)
	w.Uint(r.Ops)
	w.Lit(`,"PerThreadOps":`)
	w.Uints(r.PerThreadOps)
	w.Lit(`,"Latency":`)
	w.B = r.Latency.AppendJSON(w.B)
	w.Lit(`,"ThroughputMops":`)
	w.Float(r.ThroughputMops)
	w.Lit(`,"Jain":`)
	w.Float(r.Jain)
	w.Lit(`,"MinMax":`)
	w.Float(r.MinMax)
	w.Lit(`,"TotalOps":`)
	w.Uint(r.TotalOps)
	if r.Attempts != 0 {
		w.Lit(`,"attempts":`)
		w.Uint(r.Attempts)
	}
	if r.Eliminations != 0 {
		w.Lit(`,"eliminations":`)
		w.Uint(r.Eliminations)
	}
	if r.Violations != 0 {
		w.Lit(`,"violations":`)
		w.Int(int64(r.Violations))
	}
	if r.Metrics != nil {
		w.Lit(`,"metrics":`)
		w.Value(r.Metrics)
	}
	w.Lit("}")
	return w.Bytes()
}

// UnmarshalJSON decodes b as json.Unmarshal decodes r's fields.
func (r *RunResult) UnmarshalJSON(b []byte) error {
	if r.readJSON(b) {
		return nil
	}
	return json.Unmarshal(b, (*genericRunResult)(r))
}

// readJSON decodes b if it is in the canonical form MarshalJSON writes
// and reports whether it did. Like the generic decode, it leaves the
// optional fields b does not name as they were.
func (r *RunResult) readJSON(b []byte) bool {
	p := canonjson.Reader{B: b}
	v := *r
	var app []byte
	ok := p.Lit(`{"App":`) && p.Str(&app) &&
		p.Lit(`,"Threads":`) && canonjson.Int(&p, &v.Threads) &&
		p.Lit(`,"Ops":`) && p.Uint(&v.Ops) &&
		p.Lit(`,"PerThreadOps":`) && p.Uints(&v.PerThreadOps) &&
		p.Lit(`,"Latency":`) && stats.ReadHistogram(&p, &v.Latency) &&
		p.Lit(`,"ThroughputMops":`) && p.Float(&v.ThroughputMops) &&
		p.Lit(`,"Jain":`) && p.Float(&v.Jain) &&
		p.Lit(`,"MinMax":`) && p.Float(&v.MinMax) &&
		p.Lit(`,"TotalOps":`) && p.Uint(&v.TotalOps) &&
		(!p.Lit(`,"attempts":`) || p.Uint(&v.Attempts)) &&
		(!p.Lit(`,"eliminations":`) || p.Uint(&v.Eliminations)) &&
		(!p.Lit(`,"violations":`) || canonjson.Int(&p, &v.Violations)) &&
		(!p.Lit(`,"metrics":`) || p.Rest(&v.Metrics, "}")) &&
		p.Lit("}") && p.Done()
	if ok {
		v.App = string(app)
		*r = v
	}
	return ok
}
