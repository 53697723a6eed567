package canonjson

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// TestWriterFloatMatchesMarshal: Writer.Float writes json.Marshal's
// bytes for floats at the edges of its 'f' and 'e' forms, for random
// bit patterns, and for NaN and ±Inf, where both fail with the same
// error.
func TestWriterFloatMatchesMarshal(t *testing.T) {
	fs := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 9.99999e-7, 1e-7, -1e-7, 1.5e-9, 1e-10,
		1e20, 1e21, -1e21, 9.999999999999999e20, 1e100, 5e-324, math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, 123456789.125, math.NaN(), math.Inf(1), math.Inf(-1)}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		fs = append(fs, math.Float64frombits(rng.Uint64()))
	}
	for _, f := range fs {
		want, wantErr := json.Marshal(f)
		w := Writer{B: []byte("x")}
		w.Float(f)
		got, err := w.Bytes()
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("%v: Float error %v, json.Marshal error %v", f, err, wantErr)
		}
		if err == nil && string(got) != "x"+string(want) {
			t.Fatalf("%v: Float wrote %s, json.Marshal %s", f, got[1:], want)
		}
	}
}

// TestWriterStrMatchesMarshal: Writer.Str quotes like json.Marshal,
// HTML escaping, invalid UTF-8 and U+2028 included.
func TestWriterStrMatchesMarshal(t *testing.T) {
	for _, s := range []string{"", "plain key/wl@e3eb36d03610", "<a>&", `q"uote`, `back\slash`, "tab\tnl\n",
		"\x00\x1f\x7f", "ünï→", "line\u2028sep\u2029", "bad\xffutf8"} {
		want, _ := json.Marshal(s)
		var w Writer
		if w.Str(s); string(w.B) != string(want) {
			t.Fatalf("%q: Str wrote %s, json.Marshal %s", s, w.B, want)
		}
	}
}

// TestReaderMatchesUnmarshal: each Reader method accepts a token
// exactly where json.Unmarshal decodes it into the matching Go type,
// to the same value, and leaves a token it rejects unconsumed. The one
// token it rejects that json.Unmarshal takes is null ("no change"),
// which the codecs leave to the generic decode.
func TestReaderMatchesUnmarshal(t *testing.T) {
	tokens := []string{"0", "-0", "1", "-1", "01", "1.", ".5", "1.5", "-1.5e3", "1E+2", "1e-7", "0.1e-7", "1e400",
		"-", "+1", "1e", "18446744073709551615", "18446744073709551616", "9223372036854775807",
		"9223372036854775808", "-9223372036854775808", "-9223372036854775809", `"s"`, "null", "x"}
	for _, tok := range tokens {
		full := func(p *Reader, ok bool) bool {
			if !ok && p.I != 0 {
				t.Fatalf("%q: rejected token consumed %d bytes", tok, p.I)
			}
			return ok && p.Done()
		}
		var u, uw uint64
		p := Reader{B: []byte(tok)}
		if ok := full(&p, p.Uint(&u)); ok && (json.Unmarshal(p.B, &uw) != nil || u != uw) || !ok && tok != "null" && json.Unmarshal(p.B, &uw) == nil {
			t.Fatalf("%q: Uint = %v, %d; json.Unmarshal gives %d", tok, ok, u, uw)
		}
		var i, iw int64
		p = Reader{B: []byte(tok)}
		if ok := full(&p, Int(&p, &i)); ok && (json.Unmarshal(p.B, &iw) != nil || i != iw) || !ok && tok != "null" && json.Unmarshal(p.B, &iw) == nil {
			t.Fatalf("%q: Int = %v, %d; json.Unmarshal gives %d", tok, ok, i, iw)
		}
		var f, fw float64
		p = Reader{B: []byte(tok)}
		if ok := full(&p, p.Float(&f)); ok && (json.Unmarshal(p.B, &fw) != nil || f != fw) || !ok && tok != "null" && json.Unmarshal(p.B, &fw) == nil {
			t.Fatalf("%q: Float = %v, %v; json.Unmarshal gives %v", tok, ok, f, fw)
		}
	}
}
