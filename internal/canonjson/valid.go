package canonjson

import "encoding/json"

// maxDepth bounds the nesting ValidCompact follows, well under the
// 10,000 levels json.Valid accepts, so a value ValidCompact accepts
// is one json.Valid accepts too.
const maxDepth = 1000

// plain marks the bytes a string body may hold for ValidCompact:
// printable ASCII other than the quote, the backslash and the three
// characters json.Marshal escapes for HTML ('<', '>', '&').
var plain = func() (t [256]bool) {
	for c := 0x20; c < 0x7f; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// ValidCompact reports whether v is one valid JSON value with no
// whitespace outside its strings, whose strings hold only printable
// ASCII without '\', '<', '>' or '&': the form every hand-written
// codec of the run log writes. It is one recursive-descent pass over
// v. True implies json.Valid(v) and Verbatim(v); false means only that
// v is not of that form, so a caller that needs validity falls back to
// json.Valid.
func ValidCompact(v []byte) bool {
	return value(v, 0, 0) == len(v)
}

// value returns the index just past the value that starts at v[i], or
// -1 if none of ValidCompact's form starts there.
func value(v []byte, i, depth int) int {
	if i >= len(v) {
		return -1
	}
	switch v[i] {
	case '{':
		if depth == maxDepth {
			return -1
		}
		if i++; i < len(v) && v[i] == '}' {
			return i + 1
		}
		for {
			if i = str(v, i); i < 0 || i >= len(v) || v[i] != ':' {
				return -1
			}
			if i = value(v, i+1, depth+1); i < 0 || i >= len(v) {
				return -1
			}
			switch v[i] {
			case ',':
				i++
			case '}':
				return i + 1
			default:
				return -1
			}
		}
	case '[':
		if depth == maxDepth {
			return -1
		}
		if i++; i < len(v) && v[i] == ']' {
			return i + 1
		}
		for {
			if i = value(v, i, depth+1); i < 0 || i >= len(v) {
				return -1
			}
			switch v[i] {
			case ',':
				i++
			case ']':
				return i + 1
			default:
				return -1
			}
		}
	case '"':
		return str(v, i)
	case 't':
		return word(v, i, "true")
	case 'f':
		return word(v, i, "false")
	case 'n':
		return word(v, i, "null")
	}
	return number(v, i)
}

// str returns the index just past the string that starts at v[i], if
// its body is all plain bytes, or -1.
func str(v []byte, i int) int {
	if i >= len(v) || v[i] != '"' {
		return -1
	}
	for i++; i < len(v); i++ {
		if c := v[i]; !plain[c] {
			if c == '"' {
				return i + 1
			}
			return -1
		}
	}
	return -1
}

// word returns the index just past the literal w at v[i], or -1.
func word(v []byte, i int, w string) int {
	if len(v)-i < len(w) || string(v[i:i+len(w)]) != w {
		return -1
	}
	return i + len(w)
}

// number returns the index just past the JSON-grammar number that
// starts at v[i], or -1.
func number(v []byte, i int) int {
	if v[i] == '-' {
		i++
	}
	switch {
	case i >= len(v):
		return -1
	case v[i] == '0':
		i++
	case v[i] >= '1' && v[i] <= '9':
		i = digits(v, i+1)
	default:
		return -1
	}
	if i < len(v) && v[i] == '.' {
		j := digits(v, i+1)
		if j == i+1 {
			return -1
		}
		i = j
	}
	if i < len(v) && (v[i] == 'e' || v[i] == 'E') {
		i++
		if i < len(v) && (v[i] == '+' || v[i] == '-') {
			i++
		}
		j := digits(v, i)
		if j == i {
			return -1
		}
		i = j
	}
	return i
}

// digits returns the index of the first byte at or after i that is not
// a decimal digit.
func digits(v []byte, i int) int {
	for i < len(v) && v[i] >= '0' && v[i] <= '9' {
		i++
	}
	return i
}

// Verbatim reports whether v is one valid JSON value that json.Marshal
// embeds byte for byte as a json.RawMessage: it has no whitespace
// outside strings and none of the runes json.Marshal escapes for HTML
// safety ('<', '>', '&', U+2028, U+2029). A value ValidCompact accepts
// is verbatim at once; any other gets json.Valid and a scan for those
// runes.
func Verbatim(v []byte) bool {
	if ValidCompact(v) {
		return true
	}
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
			i++ // skip the escaped byte, which may be a quote
		case c == '"':
			inString = !inString
		case !inString && isSpace(c):
			return false
		}
	}
	return true
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }
