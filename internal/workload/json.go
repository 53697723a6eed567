package workload

import (
	"encoding/json"

	"atomicsmodel/internal/canonjson"
	"atomicsmodel/internal/stats"
)

// Result's JSON codec. The resume cache stores one Result per workload
// cell, and the harness encodes, decodes and re-encodes every fresh one
// (its byte-exact round-trip check), so both directions are written by
// hand for the one form encoding/json writes:
//
//	{"Ops":…,"Attempts":…,"Failures":…,"PerThreadOps":[…],
//	 "Latency":H,"SuccessLatency":H,"MeasuredFor":…,"ThroughputMops":…,
//	 "Jain":…,"CoV":…,"MinMax":…,"Energy":{…},"Coh":{…},"metrics":…}
//
// without the line breaks: fields in declaration order, Config left
// out, null for a nil slice or histogram, histograms in their own
// canonical form (internal/stats), floats as json.Marshal writes them,
// and "metrics" only when a snapshot is present, encoded and decoded by
// encoding/json itself. The writer fails where json.Marshal fails (NaN
// or ±Inf). The reader takes exactly that form, in one pass, and hands
// any other input (whitespace, another field order or spelling, a
// repeated key) to the generic decode of genericResult, so every input
// decodes to the value, or fails where, json.Unmarshal alone would; an
// error message names genericResult where the generic decode of Result
// named Result.

// genericResult is Result without its methods: the type whose generic
// encoding the codec reproduces and falls back to.
type genericResult Result

// MarshalJSON encodes r as json.Marshal encodes its fields; a nil r
// encodes as null.
func (r *Result) MarshalJSON() ([]byte, error) {
	if r == nil {
		return []byte("null"), nil
	}
	w := canonjson.Writer{B: make([]byte, 0, 1024+12*len(r.PerThreadOps))}
	w.Lit(`{"Ops":`)
	w.Uint(r.Ops)
	w.Lit(`,"Attempts":`)
	w.Uint(r.Attempts)
	w.Lit(`,"Failures":`)
	w.Uint(r.Failures)
	w.Lit(`,"PerThreadOps":`)
	w.Uints(r.PerThreadOps)
	w.Lit(`,"Latency":`)
	w.B = r.Latency.AppendJSON(w.B)
	w.Lit(`,"SuccessLatency":`)
	w.B = r.SuccessLatency.AppendJSON(w.B)
	w.Lit(`,"MeasuredFor":`)
	w.Int(int64(r.MeasuredFor))
	w.Lit(`,"ThroughputMops":`)
	w.Float(r.ThroughputMops)
	w.Lit(`,"Jain":`)
	w.Float(r.Jain)
	w.Lit(`,"CoV":`)
	w.Float(r.CoV)
	w.Lit(`,"MinMax":`)
	w.Float(r.MinMax)
	e := &r.Energy
	w.Lit(`,"Energy":{"StaticJ":`)
	w.Float(e.StaticJ)
	w.Lit(`,"ActiveJ":`)
	w.Float(e.ActiveJ)
	w.Lit(`,"DynamicJ":`)
	w.Float(e.DynamicJ)
	w.Lit(`,"TotalJ":`)
	w.Float(e.TotalJ)
	w.Lit(`,"PerOpNJ":`)
	w.Float(e.PerOpNJ)
	w.Lit(`,"AvgPowerW":`)
	w.Float(e.AvgPowerW)
	c := &r.Coh
	w.Lit(`},"Coh":{"Accesses":`)
	w.Uint(c.Accesses)
	w.Lit(`,"LocalHits":`)
	w.Uint(c.LocalHits)
	w.Lit(`,"RemoteXfers":`)
	w.Uint(c.RemoteXfers)
	w.Lit(`,"LLCFills":`)
	w.Uint(c.LLCFills)
	w.Lit(`,"DRAMFills":`)
	w.Uint(c.DRAMFills)
	w.Lit(`,"Invals":`)
	w.Uint(c.Invals)
	w.Lit(`,"TotalHops":`)
	w.Uint(c.TotalHops)
	w.Lit(`,"CrossSocket":`)
	w.Uint(c.CrossSocket)
	w.Lit(`,"MaxQueueLen":`)
	w.Int(int64(c.MaxQueueLen))
	w.Lit(`,"LinkStall":`)
	w.Int(int64(c.LinkStall))
	w.Lit("}")
	if r.Metrics != nil {
		w.Lit(`,"metrics":`)
		w.Value(r.Metrics)
	}
	w.Lit("}")
	return w.Bytes()
}

// UnmarshalJSON decodes b as json.Unmarshal decodes r's fields.
func (r *Result) UnmarshalJSON(b []byte) error {
	if r.readJSON(b) {
		return nil
	}
	return json.Unmarshal(b, (*genericResult)(r))
}

// readJSON decodes b if it is in the canonical form MarshalJSON writes
// and reports whether it did; r is untouched otherwise. Like the
// generic decode, it leaves Config, and Metrics when b has none, as
// they were.
func (r *Result) readJSON(b []byte) bool {
	p := canonjson.Reader{B: b}
	v := *r
	e, c := &v.Energy, &v.Coh
	ok := p.Lit(`{"Ops":`) && p.Uint(&v.Ops) &&
		p.Lit(`,"Attempts":`) && p.Uint(&v.Attempts) &&
		p.Lit(`,"Failures":`) && p.Uint(&v.Failures) &&
		p.Lit(`,"PerThreadOps":`) && p.Uints(&v.PerThreadOps) &&
		p.Lit(`,"Latency":`) && stats.ReadHistogram(&p, &v.Latency) &&
		p.Lit(`,"SuccessLatency":`) && stats.ReadHistogram(&p, &v.SuccessLatency) &&
		p.Lit(`,"MeasuredFor":`) && canonjson.Int(&p, &v.MeasuredFor) &&
		p.Lit(`,"ThroughputMops":`) && p.Float(&v.ThroughputMops) &&
		p.Lit(`,"Jain":`) && p.Float(&v.Jain) &&
		p.Lit(`,"CoV":`) && p.Float(&v.CoV) &&
		p.Lit(`,"MinMax":`) && p.Float(&v.MinMax) &&
		p.Lit(`,"Energy":{"StaticJ":`) && p.Float(&e.StaticJ) &&
		p.Lit(`,"ActiveJ":`) && p.Float(&e.ActiveJ) &&
		p.Lit(`,"DynamicJ":`) && p.Float(&e.DynamicJ) &&
		p.Lit(`,"TotalJ":`) && p.Float(&e.TotalJ) &&
		p.Lit(`,"PerOpNJ":`) && p.Float(&e.PerOpNJ) &&
		p.Lit(`,"AvgPowerW":`) && p.Float(&e.AvgPowerW) &&
		p.Lit(`},"Coh":{"Accesses":`) && p.Uint(&c.Accesses) &&
		p.Lit(`,"LocalHits":`) && p.Uint(&c.LocalHits) &&
		p.Lit(`,"RemoteXfers":`) && p.Uint(&c.RemoteXfers) &&
		p.Lit(`,"LLCFills":`) && p.Uint(&c.LLCFills) &&
		p.Lit(`,"DRAMFills":`) && p.Uint(&c.DRAMFills) &&
		p.Lit(`,"Invals":`) && p.Uint(&c.Invals) &&
		p.Lit(`,"TotalHops":`) && p.Uint(&c.TotalHops) &&
		p.Lit(`,"CrossSocket":`) && p.Uint(&c.CrossSocket) &&
		p.Lit(`,"MaxQueueLen":`) && canonjson.Int(&p, &c.MaxQueueLen) &&
		p.Lit(`,"LinkStall":`) && canonjson.Int(&p, &c.LinkStall) &&
		p.Lit("}") &&
		(!p.Lit(`,"metrics":`) || p.Rest(&v.Metrics, "}")) &&
		p.Lit("}") && p.Done()
	if ok {
		*r = v
	}
	return ok
}
