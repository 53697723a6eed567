// Package speckit is the shared mechanics of the repo's declarative
// specs — machines, workloads, apps and jobs. Every spec kind is strict
// JSON whose canonical encoding's sha256 is a persisted identity (cell
// cache keys, job IDs), and every registered kind is a table of
// embedded JSON files resolved by name. This package holds what those
// kinds share: strict decoding, the digest, the registry, CLI
// selection, thread-ladder expansion, and the knobs workload and app
// specs have in common (thread count or ladder, measurement window).
// Each kind keeps its own fields, validation, defaults and error
// prefix.
package speckit

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path"
	"sort"
	"strings"
)

// Strict decodes data as exactly one JSON value into a new T. Unknown
// fields, at any nesting level, and trailing data are errors: a spec is
// user input, and a typo that silently dropped a knob would produce
// confidently wrong results. Errors start with prefix.
func Strict[T any](prefix string, data []byte) (*T, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var v T
	if err := dec.Decode(&v); err != nil {
		return nil, fmt.Errorf("%s: %w", prefix, err)
	}
	var trailer json.RawMessage
	if err := dec.Decode(&trailer); err != io.EOF {
		return nil, fmt.Errorf("%s: trailing data after the spec object", prefix)
	}
	return &v, nil
}

// Canonicalizer is a spec with a canonical encoding: fixed field order,
// defaults explicit, no insignificant whitespace.
type Canonicalizer interface {
	Canonical() ([]byte, error)
}

// Digest returns the first 12 hex digits of the sha256 of the spec's
// canonical encoding: the spec's identity in cell cache keys and job
// IDs.
func Digest(s Canonicalizer) (string, error) {
	raw, err := s.Canonical()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:6]), nil
}

// LoadFile reads and parses one spec file. Errors name the file.
func LoadFile[T any](prefix, file string, parse func([]byte) (T, error)) (T, error) {
	var zero T
	raw, err := os.ReadFile(file)
	if err != nil {
		return zero, fmt.Errorf("%s %s: %w", prefix, file, err)
	}
	v, err := parse(raw)
	if err != nil {
		return zero, fmt.Errorf("%s: %w", file, err)
	}
	return v, nil
}

// Cloner is a spec that deep-copies itself.
type Cloner[T any] interface {
	Clone() T
}

// Registry is a table of named specs: the built-in machines, workloads
// or apps. It is filled at package init (MustLoad, MustAdd) and only
// read afterwards, so lookups take no lock. Names and aliases match
// case-insensitively, and lookups return clones that callers mutate
// freely.
type Registry[T Cloner[T]] struct {
	pkg, noun string
	byName    map[string]T      // canonical name → spec
	lookup    map[string]string // lowercased name or alias → canonical name
}

// NewRegistry returns an empty registry. pkg prefixes its errors and
// noun names one entry in them ("workload: unknown workload ...").
func NewRegistry[T Cloner[T]](pkg, noun string) *Registry[T] {
	return &Registry[T]{pkg: pkg, noun: noun, byName: map[string]T{}, lookup: map[string]string{}}
}

// Add registers v under its canonical name and aliases. An empty name
// and a name or alias that collides with an earlier entry's, in any
// case, are errors: a silent shadow would make lookups ambiguous.
func (r *Registry[T]) Add(v T, name string, aliases ...string) error {
	if name == "" {
		return fmt.Errorf("%s: registration requires a name", r.pkg)
	}
	keys := append([]string{name}, aliases...)
	for _, k := range keys {
		if owner, taken := r.lookup[strings.ToLower(k)]; taken {
			return fmt.Errorf("%s: name %q of %s collides with %s", r.pkg, k, name, owner)
		}
	}
	r.byName[name] = v.Clone()
	for _, k := range keys {
		r.lookup[strings.ToLower(k)] = name
	}
	return nil
}

// MustAdd is Add for init: the entry ships with the binary, so a
// failure is a build defect.
func (r *Registry[T]) MustAdd(v T, name string, aliases ...string) {
	if err := r.Add(v, name, aliases...); err != nil {
		panic(err)
	}
}

// MustLoad parses every file in dir of fsys (the embedded specs/
// directory) and adds it under the names keys returns, canonical name
// first. Any failure panics, as in MustAdd.
func (r *Registry[T]) MustLoad(fsys fs.FS, dir string, parse func([]byte) (T, error), keys func(T) []string) {
	entries, err := fs.ReadDir(fsys, dir)
	if err != nil {
		panic(fmt.Sprintf("%s: embedded specs: %v", r.pkg, err))
	}
	for _, e := range entries {
		raw, err := fs.ReadFile(fsys, path.Join(dir, e.Name()))
		if err == nil {
			var v T
			if v, err = parse(raw); err == nil {
				k := keys(v)
				err = r.Add(v, k[0], k[1:]...)
			}
		}
		if err != nil {
			panic(fmt.Sprintf("%s: embedded spec %s: %v", r.pkg, e.Name(), err))
		}
	}
}

// Names returns the canonical names of every entry, sorted.
func (r *Registry[T]) Names() []string {
	out := make([]string, 0, len(r.byName))
	for name := range r.byName {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Get returns a clone of the entry registered under name or one of its
// aliases. An unknown name's error lists every registered one.
func (r *Registry[T]) Get(name string) (T, error) {
	canonical, ok := r.lookup[strings.ToLower(name)]
	if !ok {
		var zero T
		return zero, fmt.Errorf("%s: unknown %s %q (registered: %s)", r.pkg, r.noun, name, strings.Join(r.Names(), ", "))
	}
	return r.byName[canonical].Clone(), nil
}

// Select resolves what a CLI run targets: names is a comma-separated
// list resolved with byName, files a comma-separated list of spec
// files resolved with load. Either may be empty; results concatenate
// in the order given, names first. Two results with the same identity
// (ident) are rejected, because the harness would silently fold their
// cells together; pkg prefixes that error.
func Select[T any](pkg, names, files string, byName, load func(string) (T, error), ident func(T) (string, error)) ([]T, error) {
	var out []T
	for _, list := range []struct {
		csv     string
		resolve func(string) (T, error)
	}{{names, byName}, {files, load}} {
		for _, item := range strings.Split(list.csv, ",") {
			if item = strings.TrimSpace(item); item == "" {
				continue
			}
			v, err := list.resolve(item)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
	}
	seen := map[string]bool{}
	for _, v := range out {
		id, err := ident(v)
		if err != nil {
			return nil, err
		}
		if seen[id] {
			return nil, fmt.Errorf("%s: %s selected twice", pkg, id)
		}
		seen[id] = true
	}
	return out, nil
}

// ByNames resolves each name, surrounding spaces trimmed, with get, in
// order; the first failure is returned as is.
func ByNames[T any](names []string, get func(string) (T, error)) ([]T, error) {
	var out []T
	for _, name := range names {
		v, err := get(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// Expand returns the pinned specs a thread ladder describes: a clone of
// s when the ladder is empty, otherwise one clone per rung with pin
// applied, which sets the rung's thread count and clears the ladder.
func Expand[T Cloner[T]](s T, ladder []int, pin func(p T, threads int)) []T {
	if len(ladder) == 0 {
		return []T{s.Clone()}
	}
	out := make([]T, 0, len(ladder))
	for _, n := range ladder {
		p := s.Clone()
		pin(p, n)
		out = append(out, p)
	}
	return out
}

// MaxThreads bounds spec-declared thread counts and ladder points; it
// matches the machine layer's hardware-thread ceiling — a spec beyond
// it is a typo, not a plan.
const MaxThreads = 1 << 16

// CheckThreads validates a spec's threads/threadLadder pair: exactly
// one is set, the count is in 1..MaxThreads, and the ladder strictly
// increases within that range. Errors start with prefix.
func CheckThreads(prefix string, threads int, ladder []int) error {
	switch {
	case threads == 0 && len(ladder) == 0:
		return fmt.Errorf("%s: one of threads or threadLadder is required", prefix)
	case threads != 0 && len(ladder) != 0:
		return fmt.Errorf("%s: threads and threadLadder are mutually exclusive", prefix)
	case threads < 0 || threads > MaxThreads:
		return fmt.Errorf("%s: threads = %d (want 1..%d)", prefix, threads, MaxThreads)
	}
	prev := 0
	for _, n := range ladder {
		if n <= prev || n > MaxThreads {
			return fmt.Errorf("%s: threadLadder %v must be strictly increasing in 1..%d", prefix, ladder, MaxThreads)
		}
		prev = n
	}
	return nil
}

// CheckWindow rejects a negative measurement window (picoseconds).
// Errors start with prefix.
func CheckWindow[T ~int64](prefix string, warmup, duration T) error {
	if warmup < 0 || duration < 0 {
		return fmt.Errorf("%s: negative warmupPS/durationPS", prefix)
	}
	return nil
}

// DefaultWindow makes a zero measurement window explicit: 20µs of
// warmup and 200µs measured, in picoseconds.
func DefaultWindow[T ~int64](warmup, duration *T) {
	if *warmup == 0 {
		*warmup = 20_000_000
	}
	if *duration == 0 {
		*duration = 200_000_000
	}
}
