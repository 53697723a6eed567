// Package canonjson holds the pieces the hand-written JSON codecs of
// the run log share: a Reader that consumes one canonical encoding
// token by token (literals, unsigned and signed integers, JSON-grammar
// floats, escape-free strings, uint64 arrays), and a Writer whose
// floats and strings come out in encoding/json's exact format.
//
// The codecs it serves (the histogram in internal/stats, the metrics
// snapshot in internal/metrics, the cell results in internal/workload
// and internal/apps, the cache line and the manifest's cell record in
// internal/runlog) each write the bytes
// json.Marshal writes for their type, and each reads its canonical
// form in one pass. A reader method that meets anything it does not
// recognise reports false; the codec then hands the whole input to the
// generic encoding/json decode, so no input decodes differently from
// json.Unmarshal.
package canonjson

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strconv"
)

// Reader consumes a canonical encoding from B[I:]. Each method either
// consumes one token and reports true, or leaves I where it was and
// reports false.
type Reader struct {
	B []byte
	I int
}

// Done reports whether every byte of B has been consumed.
func (p *Reader) Done() bool { return p.I == len(p.B) }

// Lit consumes s if B continues with it.
func (p *Reader) Lit(s string) bool {
	if len(p.B)-p.I < len(s) || string(p.B[p.I:p.I+len(s)]) != s {
		return false
	}
	p.I += len(s)
	return true
}

// Uint consumes a decimal without sign or leading zeros that fits in a
// uint64: a JSON integer json.Unmarshal stores in a uint64 field.
func (p *Reader) Uint(v *uint64) bool {
	j := p.digits(p.I)
	if j == p.I || (p.B[p.I] == '0' && j > p.I+1) {
		return false
	}
	var x uint64
	for _, c := range p.B[p.I:j] {
		d := uint64(c - '0')
		if x > (math.MaxUint64-d)/10 {
			return false
		}
		x = x*10 + d
	}
	*v, p.I = x, j
	return true
}

// Int consumes an optionally negative decimal without leading zeros
// that fits in v's type: a JSON integer json.Unmarshal stores in a
// field of that type.
func Int[T ~int | ~int64](p *Reader, v *T) bool {
	start := p.I
	neg := p.Lit("-")
	var m uint64
	if !p.Uint(&m) || m > 1<<63 || (!neg && m == 1<<63) {
		p.I = start
		return false
	}
	x := int64(m)
	if neg {
		x = -x
	}
	if int64(T(x)) != x {
		p.I = start
		return false
	}
	*v = T(x)
	return true
}

// Float consumes a number in the JSON grammar whose value
// strconv.ParseFloat accepts, the test json.Unmarshal applies to a
// float64 field.
func (p *Reader) Float(v *float64) bool {
	j := p.I
	if j < len(p.B) && p.B[j] == '-' {
		j++
	}
	switch k := p.digits(j); {
	case k == j:
		return false
	case p.B[j] == '0' && k > j+1:
		j++ // "0" ends the integer part; the caller meets the next digit
	default:
		j = k
	}
	if j < len(p.B) && p.B[j] == '.' {
		k := p.digits(j + 1)
		if k == j+1 {
			return false
		}
		j = k
	}
	if j < len(p.B) && (p.B[j] == 'e' || p.B[j] == 'E') {
		j++
		if j < len(p.B) && (p.B[j] == '+' || p.B[j] == '-') {
			j++
		}
		k := p.digits(j)
		if k == j {
			return false
		}
		j = k
	}
	f, err := strconv.ParseFloat(string(p.B[p.I:j]), 64)
	if err != nil {
		return false
	}
	*v, p.I = f, j
	return true
}

// Str consumes a quoted string whose body is printable ASCII without a
// backslash, which decodes to itself, and stores the body in s.
func (p *Reader) Str(s *[]byte) bool {
	if p.I >= len(p.B) || p.B[p.I] != '"' {
		return false
	}
	for j := p.I + 1; j < len(p.B); j++ {
		switch c := p.B[j]; {
		case c == '"':
			*s, p.I = p.B[p.I+1:j], j+1
			return true
		case c < 0x20 || c > 0x7e || c == '\\':
			return false
		}
	}
	return false
}

// Uints consumes null, which it stores as a nil slice, or an array of
// Uint decimals, which it stores as a new slice (empty, not nil, for
// "[]"): json.Unmarshal's reading of a []uint64 field.
func (p *Reader) Uints(v *[]uint64) bool {
	start := p.I
	if p.Lit("null") {
		*v = nil
		return true
	}
	end := bytes.IndexByte(p.B[p.I:], ']')
	if end < 0 || !p.Lit("[") {
		return false
	}
	s := make([]uint64, 0, bytes.Count(p.B[p.I:start+end], []byte{','})+1)
	for first := true; !p.Lit("]"); first = false {
		var x uint64
		if (!first && !p.Lit(",")) || !p.Uint(&x) {
			p.I = start
			return false
		}
		s = append(s, x)
	}
	*v = s
	return true
}

// digits returns the index of the first byte at or after j that is not
// a decimal digit.
func (p *Reader) digits(j int) int {
	for j < len(p.B) && p.B[j] >= '0' && p.B[j] <= '9' {
		j++
	}
	return j
}

// Writer appends one encoding to B. A value json.Marshal rejects
// leaves its error in Err; the first error is kept, and the caller
// checks it once, through Bytes, instead of after every float.
type Writer struct {
	B   []byte
	Err error
}

// Bytes returns the encoding, or nil and Err if a value was rejected.
func (w *Writer) Bytes() ([]byte, error) {
	if w.Err != nil {
		return nil, w.Err
	}
	return w.B, nil
}

// fail keeps err unless an earlier error was kept.
func (w *Writer) fail(err error) {
	if w.Err == nil {
		w.Err = err
	}
}

// Lit appends s as it is: punctuation and keys that need no escape.
func (w *Writer) Lit(s string) { w.B = append(w.B, s...) }

// Uint appends v in decimal.
func (w *Writer) Uint(v uint64) { w.B = strconv.AppendUint(w.B, v, 10) }

// Int appends v in decimal.
func (w *Writer) Int(v int64) { w.B = strconv.AppendInt(w.B, v, 10) }

// Float appends f as json.Marshal writes a float64: the shortest
// decimal that reads back as f, in 'f' form, or in 'e' form when
// |f| < 1e-6 or |f| >= 1e21 with a one-digit negative exponent
// unpadded ("1e-7", not "1e-07"). NaN and ±Inf fail with the error
// json.Marshal returns for them.
func (w *Writer) Float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		w.fail(&json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)})
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b := strconv.AppendFloat(w.B, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	w.B = b
}

// Str appends s quoted as json.Marshal quotes it, with its HTML
// escaping. A string of printable ASCII that needs no escape is copied
// as it is; any other goes through json.Marshal.
func (w *Writer) Str(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			w.Value(s)
			return
		}
	}
	w.B = append(w.B, '"')
	w.B = append(w.B, s...)
	w.B = append(w.B, '"')
}

// Uints appends v as json.Marshal encodes a []uint64: null when v is
// nil.
func (w *Writer) Uints(v []uint64) {
	if v == nil {
		w.Lit("null")
		return
	}
	w.B = append(w.B, '[')
	for i, x := range v {
		if i > 0 {
			w.B = append(w.B, ',')
		}
		w.Uint(x)
	}
	w.B = append(w.B, ']')
}

// Value appends json.Marshal(v), which is compact and HTML-safe: for a
// value the writer has no shortcut for.
func (w *Writer) Value(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		w.fail(err)
	}
	w.B = append(w.B, b...)
}
