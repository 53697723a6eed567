package metrics

import (
	"encoding/json"

	"atomicsmodel/internal/canonjson"
)

// Snapshot's JSON codec. Every metrics-on cell result carries a
// snapshot through the resume cache, and the harness encodes, decodes
// and re-encodes each fresh one, so both directions are written by
// hand for the one form encoding/json writes:
//
//	{"counters":[{"name":…,"value":…},…],
//	 "vectors":[{"name":…,"values":[…]},…],
//	 "hists":[{"name":…,"count":…,"sum":…,"max":…,"buckets":[{"low":…,"count":…},…]},…]}
//
// without the line breaks: fields in declaration order, each of the
// three lists left out when empty, null for a nil Values slice,
// "buckets" left out when empty, and names quoted as json.Marshal
// quotes them. The reader takes exactly that form, in one pass, and
// hands any other input (whitespace, another field order or spelling,
// a repeated key, an empty list written out, an integer out of range)
// to the generic decode of genericSnapshot, so every input decodes to
// the value, or fails where, json.Unmarshal alone would. The cell
// results that hold a snapshot (internal/workload, internal/apps)
// write and read it in place, inside their own one-pass codecs, with
// WriteJSON and ReadSnapshot.

// genericSnapshot is Snapshot without its methods: the type whose
// generic encoding the codec reproduces and falls back to.
type genericSnapshot Snapshot

// MarshalJSON encodes s as json.Marshal encodes its fields; a nil s
// encodes as null.
func (s *Snapshot) MarshalJSON() ([]byte, error) {
	w := canonjson.Writer{B: make([]byte, 0, 1024)}
	s.WriteJSON(&w)
	return w.Bytes()
}

// WriteJSON appends MarshalJSON's encoding of s to w, or null for a
// nil s, as json.Marshal writes a nil *Snapshot field.
func (s *Snapshot) WriteJSON(w *canonjson.Writer) {
	if s == nil {
		w.Lit("null")
		return
	}
	w.Lit("{")
	sep := ""
	if len(s.Counters) > 0 {
		w.Lit(`"counters":[`)
		for i := range s.Counters {
			c := &s.Counters[i]
			if i > 0 {
				w.Lit(",")
			}
			w.Lit(`{"name":`)
			w.Str(c.Name)
			w.Lit(`,"value":`)
			w.Uint(c.Value)
			w.Lit("}")
		}
		w.Lit("]")
		sep = ","
	}
	if len(s.Vectors) > 0 {
		w.Lit(sep)
		w.Lit(`"vectors":[`)
		for i := range s.Vectors {
			v := &s.Vectors[i]
			if i > 0 {
				w.Lit(",")
			}
			w.Lit(`{"name":`)
			w.Str(v.Name)
			w.Lit(`,"values":`)
			w.Uints(v.Values)
			w.Lit("}")
		}
		w.Lit("]")
		sep = ","
	}
	if len(s.Hists) > 0 {
		w.Lit(sep)
		w.Lit(`"hists":[`)
		for i := range s.Hists {
			h := &s.Hists[i]
			if i > 0 {
				w.Lit(",")
			}
			w.Lit(`{"name":`)
			w.Str(h.Name)
			w.Lit(`,"count":`)
			w.Uint(h.Count)
			w.Lit(`,"sum":`)
			w.Uint(h.Sum)
			w.Lit(`,"max":`)
			w.Uint(h.Max)
			if len(h.Buckets) > 0 {
				w.Lit(`,"buckets":[`)
				for j, b := range h.Buckets {
					if j > 0 {
						w.Lit(",")
					}
					w.Lit(`{"low":`)
					w.Uint(b.Low)
					w.Lit(`,"count":`)
					w.Uint(b.Count)
					w.Lit("}")
				}
				w.Lit("]")
			}
			w.Lit("}")
		}
		w.Lit("]")
	}
	w.Lit("}")
}

// UnmarshalJSON decodes b as json.Unmarshal decodes s's fields. The
// one-pass reader serves a zero s, the only state in which decoding
// replaces every field it meets; a partly filled s, whose slices the
// generic decode reuses element by element, goes to the generic decode
// whatever b holds.
func (s *Snapshot) UnmarshalJSON(b []byte) error {
	if s.Counters == nil && s.Vectors == nil && s.Hists == nil {
		p := canonjson.Reader{B: b}
		var d Snapshot
		if d.ReadJSON(&p) && p.Done() {
			*s = d
			return nil
		}
	}
	return json.Unmarshal(b, (*genericSnapshot)(s))
}

// ReadSnapshot consumes null, which it stores as a nil *s, or a
// snapshot in the canonical form, which it stores as a new one when *s
// is nil: the reading json.Unmarshal gives a *Snapshot field of a value
// whose codec reads its snapshot in place. A non-nil *s, which the
// generic decode would decode into, is left to that decode: ReadSnapshot
// reports false for anything but null then.
func ReadSnapshot(p *canonjson.Reader, s **Snapshot) bool {
	if p.Lit("null") {
		*s = nil
		return true
	}
	if *s != nil {
		return false
	}
	d := &Snapshot{}
	if !d.ReadJSON(p) {
		return false
	}
	*s = d
	return true
}

// ReadJSON consumes a snapshot in the canonical form MarshalJSON writes
// from p and reports whether it did; s is untouched otherwise, and p is
// left where reading stopped. Integers must be plain decimals without
// leading zeros that fit a uint64, names escape-free strings, and no
// whitespace, other field or empty list may appear. What follows the
// snapshot in p is the caller's to check.
func (s *Snapshot) ReadJSON(p *canonjson.Reader) bool {
	var d Snapshot
	if !p.Lit("{") {
		return false
	}
	if p.Lit(`"counters":[`) {
		for {
			var c CounterSnap
			if !p.Lit(`{"name":`) || !readName(p, &c.Name) ||
				!p.Lit(`,"value":`) || !p.Uint(&c.Value) || !p.Lit("}") {
				return false
			}
			d.Counters = append(d.Counters, c)
			if !p.Lit(",") {
				break
			}
		}
		if !p.Lit("]") {
			return false
		}
	}
	if (d.Counters == nil && p.Lit(`"vectors":[`)) || (d.Counters != nil && p.Lit(`,"vectors":[`)) {
		for {
			var v VectorSnap
			if !p.Lit(`{"name":`) || !readName(p, &v.Name) ||
				!p.Lit(`,"values":`) || !p.Uints(&v.Values) || !p.Lit("}") {
				return false
			}
			d.Vectors = append(d.Vectors, v)
			if !p.Lit(",") {
				break
			}
		}
		if !p.Lit("]") {
			return false
		}
	}
	first := d.Counters == nil && d.Vectors == nil
	if (first && p.Lit(`"hists":[`)) || (!first && p.Lit(`,"hists":[`)) {
		for {
			var h HistSnap
			if !p.Lit(`{"name":`) || !readName(p, &h.Name) ||
				!p.Lit(`,"count":`) || !p.Uint(&h.Count) ||
				!p.Lit(`,"sum":`) || !p.Uint(&h.Sum) ||
				!p.Lit(`,"max":`) || !p.Uint(&h.Max) {
				return false
			}
			if p.Lit(`,"buckets":[`) {
				for {
					var b BucketSnap
					if !p.Lit(`{"low":`) || !p.Uint(&b.Low) ||
						!p.Lit(`,"count":`) || !p.Uint(&b.Count) || !p.Lit("}") {
						return false
					}
					h.Buckets = append(h.Buckets, b)
					if !p.Lit(",") {
						break
					}
				}
				if !p.Lit("]") {
					return false
				}
			}
			if !p.Lit("}") {
				return false
			}
			d.Hists = append(d.Hists, h)
			if !p.Lit(",") {
				break
			}
		}
		if !p.Lit("]") {
			return false
		}
	}
	if !p.Lit("}") {
		return false
	}
	*s = d
	return true
}

// readName consumes an escape-free string into name.
func readName(p *canonjson.Reader, name *string) bool {
	var b []byte
	if !p.Str(&b) {
		return false
	}
	*name = string(b)
	return true
}
