package canonjson

import (
	"encoding/json"
	"strings"
	"testing"
)

// verbatimBefore is Verbatim as it was before ValidCompact: json.Valid
// and then a scan for whitespace and the runes json.Marshal escapes.
// FuzzValidCompact holds Verbatim to it.
func verbatimBefore(v []byte) bool {
	if !json.Valid(v) {
		return false
	}
	inString := false
	for i := 0; i < len(v); i++ {
		switch c := v[i]; {
		case c == '<' || c == '>' || c == '&':
			return false
		case c == 0xE2 && i+2 < len(v) && v[i+1] == 0x80 && v[i+2]&^1 == 0xA8:
			return false
		case inString && c == '\\':
			i++
		case c == '"':
			inString = !inString
		case !inString && isSpace(c):
			return false
		}
	}
	return true
}

// validCompactSeeds are inputs at the edges of ValidCompact's form:
// escapes, non-ASCII and HTML-escaped runes, whitespace, deep nesting,
// every number edge case, and literals cut short.
func validCompactSeeds() []string {
	seeds := []string{
		`{"n":1,"sum":-5,"min":0,"max":9,"buckets":{"105":1,"11":2}}`,
		`{"Ops":1,"PerThreadOps":[1,2,3],"Latency":null,"ThroughputMops":1.5e-7,"metrics":{"counters":[]}}`,
		`{}`, `[]`, `""`, `"a b"`, `true`, `false`, `null`, `[true,false,null]`, `{"a":{"b":[{}]}}`,
		`"q\"uote"`, `"back\\slash"`, `"A"`, `"\/"`, `"\x"`, `"\u12"`, `"\u00zz"`, `"a\"`, `["\"]`, `"tab	in"`, "\"nl\nin\"",
		"\"line\u2028sep\"", "\"para\u2029sep\"", "\"\xe2\x80\"", `"ünï"`, "\"bad\xffutf8\"", "\"\x7f\"",
		`"<a>"`, `"&amp;"`, `{"k":"<"}`,
		` {}`, `{} `, `{ }`, `[1, 2]`, `{"a" :1}`, `{"a": 1}`, "[1,\n2]", "\t1", "1\r",
		`0`, `-0`, `01`, `-01`, `1.`, `.5`, `1.5`, `-1.5e3`, `1E+2`, `1e-7`, `0.1e-7`, `1e400`, `-`, `+1`,
		`1e`, `1e+`, `1.e5`, `0e0`, `0.0`, `-0.0E-0`, `18446744073709551616`, `1x`, `2 3`,
		`{"a":1,}`, `[1,]`, `{"a"}`, `{"a":}`, `{,}`, `[,1]`, `{"a":1"b":2}`, `[1 2]`, `{1:2}`, `nul`, `tru`, `fals`,
		`truex`, `nulll`, `"unterminated`, `{"a":1`, `[1`, ``, `]`, `}`, `"`,
	}
	for _, d := range []int{2, maxDepth - 1, maxDepth, maxDepth + 1, 10000, 10001} {
		seeds = append(seeds, strings.Repeat("[", d)+strings.Repeat("]", d),
			strings.Repeat(`{"a":`, d)+"1"+strings.Repeat("}", d))
	}
	long := `{"key":"XeonE5/FAA/t72","value":{"Ops":123456,"PerThreadOps":[1,2,3,4],"Jain":0.9987}}`
	for i := range long {
		seeds = append(seeds, long[:i])
	}
	return seeds
}

// TestValidCompactSeeds: every seed meets FuzzValidCompact's
// properties, and the forms ValidCompact exists for are accepted.
func TestValidCompactSeeds(t *testing.T) {
	for _, s := range validCompactSeeds() {
		checkValidCompact(t, []byte(s))
	}
	for _, s := range []string{`{}`, `[]`, `-0.0E-0`, `{"a":{"b":[{}]}}`, `[true,false,null]`,
		`{"n":1,"sum":-5,"min":0,"max":9,"buckets":{"105":1,"11":2}}`} {
		if !ValidCompact([]byte(s)) {
			t.Errorf("ValidCompact(%s) = false", s)
		}
	}
}

// FuzzValidCompact holds ValidCompact to json.Valid and Verbatim to
// its earlier form: on any input, ValidCompact implies json.Valid, so
// ValidCompact(v) || json.Valid(v) is json.Valid(v), and Verbatim
// answers as verbatimBefore does. Run with
// `go test -fuzz FuzzValidCompact ./internal/canonjson`.
func FuzzValidCompact(f *testing.F) {
	for _, s := range validCompactSeeds() {
		f.Add([]byte(s))
	}
	f.Fuzz(checkValidCompact)
}

func checkValidCompact(t *testing.T, v []byte) {
	fast, valid := ValidCompact(v), json.Valid(v)
	if fast && !valid {
		t.Fatalf("ValidCompact accepts %q, which json.Valid rejects", v)
	}
	if (fast || valid) != valid {
		t.Fatalf("ValidCompact(%q) || json.Valid = %v, json.Valid = %v", v, fast || valid, valid)
	}
	if got, want := Verbatim(v), verbatimBefore(v); got != want {
		t.Fatalf("Verbatim(%q) = %v, before ValidCompact %v", v, got, want)
	}
}
