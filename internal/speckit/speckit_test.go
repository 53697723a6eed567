package speckit

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/fstest"
)

// toy is a minimal spec kind: a name, aliases and a thread ladder.
type toy struct {
	Name    string   `json:"name"`
	Aliases []string `json:"aliases,omitempty"`
	Threads int      `json:"threads,omitempty"`
	Ladder  []int    `json:"ladder,omitempty"`
}

func (s *toy) Clone() *toy {
	out := *s
	out.Aliases = append([]string(nil), s.Aliases...)
	out.Ladder = append([]int(nil), s.Ladder...)
	return &out
}

func (s *toy) Canonical() ([]byte, error) { return json.Marshal(s) }

func (s *toy) Validate() error {
	if s.Threads < 0 {
		return fmt.Errorf("toy spec: threads %d", s.Threads)
	}
	return nil
}

func parseToy(raw []byte) (*toy, error) { return Strict[toy]("toy spec", raw) }

func TestStrict(t *testing.T) {
	if s, err := parseToy([]byte(`{"name":"a","threads":2}`)); err != nil || s.Name != "a" || s.Threads != 2 {
		t.Fatalf("valid spec: %+v, %v", s, err)
	}
	for body, want := range map[string]string{
		`{"name":"a","bogus":1}`: "bogus",
		`{"name":"a"} {"b":1}`:   "trailing data",
		`{"name":"a"} junk`:      "trailing data",
		`hello`:                  "invalid character",
	} {
		_, err := parseToy([]byte(body))
		if err == nil || !strings.HasPrefix(err.Error(), "toy spec: ") || !strings.Contains(err.Error(), want) {
			t.Errorf("Strict(%s) = %v, want a \"toy spec: \" error containing %q", body, err, want)
		}
	}
}

func TestDigest(t *testing.T) {
	s := &toy{Name: "a", Threads: 4}
	raw, _ := s.Canonical()
	sum := sha256.Sum256(raw)
	d, err := Digest(s)
	if err != nil || d != hex.EncodeToString(sum[:])[:12] {
		t.Fatalf("Digest = %q, %v; want the 12-hex sha256 prefix of %s", d, err, raw)
	}
	if d2, _ := Digest(&toy{Name: "a", Threads: 5}); d2 == d {
		t.Fatal("distinct canonical bytes share a digest")
	}
}

func newToyRegistry(t *testing.T) *Registry[*toy] {
	t.Helper()
	r := NewRegistry[*toy]("toys", "toy")
	r.MustLoad(fstest.MapFS{
		"specs/a.json": {Data: []byte(`{"name":"Alpha","aliases":["a"],"ladder":[1,2]}`)},
		"specs/b.json": {Data: []byte(`{"name":"beta","threads":3}`)},
	}, "specs", parseToy, func(s *toy) []string { return append([]string{s.Name}, s.Aliases...) })
	return r
}

func TestRegistryLookup(t *testing.T) {
	r := newToyRegistry(t)
	if got := strings.Join(r.Names(), ","); got != "Alpha,beta" {
		t.Fatalf("Names = %s", got)
	}
	for _, name := range []string{"Alpha", "ALPHA", "a", "A"} {
		s, err := r.Get(name)
		if err != nil || s.Name != "Alpha" {
			t.Fatalf("Get(%s) = %+v, %v", name, s, err)
		}
	}
	s, _ := r.Get("alpha")
	s.Ladder[0] = 99 // a clone: the registry keeps its own copy
	if again, _ := r.Get("alpha"); again.Ladder[0] != 1 {
		t.Fatal("Get returned a shared mutable spec")
	}
	_, err := r.Get("gamma")
	if err == nil || !strings.Contains(err.Error(), `toys: unknown toy "gamma" (registered: Alpha, beta)`) {
		t.Fatalf("unknown name error = %v", err)
	}
}

func TestRegistryCollisions(t *testing.T) {
	r := newToyRegistry(t)
	for _, c := range []struct {
		name    string
		aliases []string
		want    string
	}{
		{"", nil, "requires a name"},
		{"beta", nil, `name "beta" of beta collides with beta`},
		{"BETA", nil, `name "BETA" of BETA collides with beta`},
		{"gamma", []string{"A"}, `name "A" of gamma collides with Alpha`},
		{"alpha", nil, `name "alpha" of alpha collides with Alpha`},
	} {
		err := r.Add(&toy{Name: c.name}, c.name, c.aliases...)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Add(%q, %v) = %v, want %q", c.name, c.aliases, err, c.want)
		}
	}
	if got := strings.Join(r.Names(), ","); got != "Alpha,beta" {
		t.Fatalf("a rejected entry was registered: %s", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustAdd of a colliding name did not panic")
		}
	}()
	r.MustAdd(&toy{Name: "beta"}, "beta")
}

func TestMustLoadPanicsOnBadSpec(t *testing.T) {
	defer func() {
		if p := recover(); p == nil || !strings.Contains(fmt.Sprint(p), "embedded spec bad.json") {
			t.Fatalf("recover() = %v, want a panic naming bad.json", p)
		}
	}()
	NewRegistry[*toy]("toys", "toy").MustLoad(fstest.MapFS{
		"specs/bad.json": {Data: []byte(`{"name":"x","nope":1}`)},
	}, "specs", parseToy, func(s *toy) []string { return []string{s.Name} })
}

func TestSelect(t *testing.T) {
	r := newToyRegistry(t)
	dir := t.TempDir()
	file := filepath.Join(dir, "c.json")
	if err := os.WriteFile(file, []byte(`{"name":"gamma","threads":8}`), 0o644); err != nil {
		t.Fatal(err)
	}
	load := func(p string) (*toy, error) { return LoadFile("toy spec", p, parseToy) }
	ident := func(s *toy) (string, error) { return Digest(s) }

	got, err := Select("toys", " beta , alpha,", file, r.Get, load, ident)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, s := range got {
		names = append(names, s.Name)
	}
	if strings.Join(names, ",") != "beta,Alpha,gamma" {
		t.Fatalf("Select order = %v, want names first, in the order given", names)
	}
	if got, err := Select("toys", "", "", r.Get, load, ident); err != nil || got != nil {
		t.Fatalf("empty selection = %v, %v", got, err)
	}
	if _, err := Select("toys", "alpha,A", "", r.Get, load, ident); err == nil || !strings.Contains(err.Error(), "toys: ") || !strings.Contains(err.Error(), "selected twice") {
		t.Fatalf("duplicate identity: %v", err)
	}
	if _, err := Select("toys", "nope", "", r.Get, load, ident); err == nil || !strings.Contains(err.Error(), "registered:") {
		t.Fatalf("unknown name: %v", err)
	}
	missing := filepath.Join(dir, "missing.json")
	if _, err := Select("toys", "", missing, r.Get, load, ident); err == nil || !strings.HasPrefix(err.Error(), "toy spec "+missing) {
		t.Fatalf("missing file: %v", err)
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"name":"x"} tail`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Select("toys", "", bad, r.Get, load, ident); err == nil || !strings.HasPrefix(err.Error(), bad+": toy spec: trailing") {
		t.Fatalf("bad file: %v", err)
	}
}

func TestExpand(t *testing.T) {
	pin := func(p *toy, n int) { p.Threads, p.Ladder = n, nil }
	s := &toy{Name: "l", Ladder: []int{1, 4, 16}}
	pts := Expand(s, s.Ladder, pin)
	if len(pts) != 3 {
		t.Fatalf("%d points, want 3", len(pts))
	}
	for i, want := range []int{1, 4, 16} {
		if pts[i].Threads != want || pts[i].Ladder != nil || pts[i].Name != "l" {
			t.Errorf("point %d = %+v", i, pts[i])
		}
	}
	if len(s.Ladder) != 3 || s.Threads != 0 {
		t.Fatal("Expand mutated its input")
	}
	pinned := &toy{Name: "p", Threads: 2}
	one := Expand(pinned, pinned.Ladder, pin)
	if len(one) != 1 || one[0] == pinned || one[0].Threads != 2 {
		t.Fatalf("pinned spec expands to %+v, want one clone", one)
	}
}

func TestProperty(t *testing.T) {
	r := newToyRegistry(t)
	points := func(s *toy) []*toy {
		return Expand(s, s.Ladder, func(p *toy, n int) { p.Threads, p.Ladder = n, nil })
	}
	for _, seed := range Seeds(r) {
		if err := Property(seed, parseToy, points); err != nil {
			t.Errorf("registered spec %s: %v", seed, err)
		}
	}
	// Rejected input is not a violation.
	for _, bad := range []string{`[`, `{"nope":1}`, `{"threads":-1}`} {
		if err := Property([]byte(bad), parseToy, points); err != nil {
			t.Errorf("rejected input %s: %v", bad, err)
		}
	}
	// A ladder rung the spec's own validation rejects is a violation.
	if err := Property([]byte(`{"name":"x","ladder":[-2]}`), parseToy, points); err == nil {
		t.Error("an invalid expanded point passed")
	}
	// So is a parser that drops a field the canonical form carries.
	lossy := func(raw []byte) (*toy, error) {
		s, err := parseToy(raw)
		if err == nil {
			s.Threads++
		}
		return s, err
	}
	if err := Property([]byte(`{"name":"x"}`), lossy, points); err == nil || !strings.Contains(err.Error(), "fixed point") {
		t.Errorf("non-idempotent parse: %v", err)
	}
}
