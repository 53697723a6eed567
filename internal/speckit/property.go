package speckit

import (
	"bytes"
	"fmt"
)

// Spec is what Property needs of a spec kind.
type Spec interface {
	Canonicalizer
	Validate() error
}

// Seeds returns the canonical encoding of every registered entry: the
// fuzz corpus each spec kind starts from.
func Seeds[T interface {
	Cloner[T]
	Canonicalizer
}](r *Registry[T]) [][]byte {
	var out [][]byte
	for _, name := range r.Names() {
		raw, err := r.byName[name].Canonical()
		if err != nil {
			panic(fmt.Sprintf("%s: registered %s %s has no canonical form: %v", r.pkg, r.noun, name, err))
		}
		out = append(out, raw)
	}
	return out
}

// Property is the loader contract every spec kind keeps for arbitrary
// input bytes, the body of the spec fuzz targets. parse must not panic;
// a spec it accepts that validates must digest deterministically; its
// canonical encoding must reparse and re-encode to the same bytes (a
// fixed point, which is what makes the digest a cache identity); and
// every point points expands it into must validate and digest.
// Rejected input is not a violation.
func Property[T Spec](data []byte, parse func([]byte) (T, error), points func(T) []T) error {
	s, err := parse(data)
	if err != nil || s.Validate() != nil {
		return nil
	}
	d1, err := Digest(s)
	if err != nil {
		return fmt.Errorf("valid spec does not digest: %v", err)
	}
	if d2, err := Digest(s); err != nil || d1 != d2 || d1 == "" {
		return fmt.Errorf("digest not deterministic: %q vs %q (%v)", d1, d2, err)
	}
	raw1, err := s.Canonical()
	if err != nil {
		return fmt.Errorf("canonical encoding of a valid spec failed: %v", err)
	}
	s2, err := parse(raw1)
	if err != nil {
		return fmt.Errorf("canonical encoding does not reparse: %v\n%s", err, raw1)
	}
	raw2, err := s2.Canonical()
	if err != nil {
		return fmt.Errorf("reparsed canonical encoding does not encode: %v", err)
	}
	if !bytes.Equal(raw1, raw2) {
		return fmt.Errorf("canonical encoding not a fixed point:\n%s\nvs\n%s", raw1, raw2)
	}
	for _, pt := range points(s) {
		if err := pt.Validate(); err != nil {
			return fmt.Errorf("expanded point of a valid spec invalid: %v", err)
		}
		if _, err := Digest(pt); err != nil {
			return fmt.Errorf("expanded point does not digest: %v", err)
		}
	}
	return nil
}
