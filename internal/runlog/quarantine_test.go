package runlog

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"atomicsmodel/internal/faults"
)

// seedCache writes a fresh cache with n entries keyed k0..k(n-1) and
// returns the cells.jsonl path.
func seedCache(t *testing.T, dir string, n int) string {
	t.Helper()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		v, _ := json.Marshal(map[string]int{"v": i * 100})
		if _, err := c.Put(key(i), v); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	return filepath.Join(dir, "cells.jsonl")
}

func key(i int) string { return "exp|seed=1|quick=true|cell=" + string(rune('a'+i)) }

func TestTornFinalCacheLineQuarantined(t *testing.T) {
	dir := t.TempDir()
	path := seedCache(t, dir, 3)
	if err := faults.TearFinalLine(path); err != nil {
		t.Fatal(err)
	}
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatalf("torn cache fatal instead of quarantined: %v", err)
	}
	defer c.Close()
	if c.Loaded() != 2 {
		t.Fatalf("loaded %d entries, want the 2 intact ones", c.Loaded())
	}
	q := c.Quarantined()
	if len(q) != 1 || q[0].Line != 3 || !strings.Contains(q[0].Reason, "torn final write") {
		t.Fatalf("quarantine = %+v, want the torn line 3", q)
	}
	if _, _, ok := c.Get(key(2)); ok {
		t.Fatal("torn entry still served from cache")
	}
	// The cell recomputes: a fresh Put under the same key must land.
	if _, err := c.Put(key(2), json.RawMessage(`{"v":200}`)); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := c.Get(key(2)); !ok {
		t.Fatal("recomputed entry not stored")
	}
}

func TestBitFlippedPayloadQuarantined(t *testing.T) {
	dir := t.TempDir()
	path := seedCache(t, dir, 3)
	if err := faults.FlipPayloadByte(path, 2); err != nil {
		t.Fatal(err)
	}
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatalf("bit rot fatal instead of quarantined: %v", err)
	}
	defer c.Close()
	q := c.Quarantined()
	if len(q) != 1 || q[0].Line != 2 {
		t.Fatalf("quarantine = %+v, want line 2", q)
	}
	// A flipped payload byte either breaks the JSON or breaks the
	// digest; both must name the problem, and a digest mismatch keeps
	// the key so the report can say which cell was dropped.
	if strings.Contains(q[0].Reason, "digest mismatch") && q[0].Key != key(1) {
		t.Fatalf("digest-mismatch quarantine lost its key: %+v", q[0])
	}
	if _, _, ok := c.Get(key(1)); ok {
		t.Fatal("corrupt entry still served from cache")
	}
	for _, i := range []int{0, 2} {
		if _, _, ok := c.Get(key(i)); !ok {
			t.Errorf("intact entry %d dropped alongside the corrupt one", i)
		}
	}
}

func TestCorruptDigestQuarantined(t *testing.T) {
	dir := t.TempDir()
	path := seedCache(t, dir, 2)
	if err := faults.CorruptDigest(path, 1); err != nil {
		t.Fatal(err)
	}
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	q := c.Quarantined()
	if len(q) != 1 || !strings.Contains(q[0].Reason, "digest mismatch") || q[0].Key != key(0) {
		t.Fatalf("quarantine = %+v, want a keyed digest mismatch on line 1", q)
	}
}

func TestStaleEntryNeverReplays(t *testing.T) {
	dir := t.TempDir()
	path := seedCache(t, dir, 1)
	if err := faults.InjectStaleEntry(path, "old-exp|seed=9|stale", []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// The injected entry carries a bogus digest, so it is quarantined
	// outright; even a stale entry with a valid digest would only sit
	// unused, since no current cell addresses its key.
	if _, _, ok := c.Get("old-exp|seed=9|stale"); ok {
		t.Fatal("stale injected entry replayed")
	}
	if _, _, ok := c.Get(key(0)); !ok {
		t.Fatal("legitimate entry lost")
	}
}

func TestValidateToleratesTornFinalManifestLine(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Cell(CellRecord{Exp: "F3", Cell: 0, Key: "k"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "manifest.jsonl")

	// A torn final line is the normal residue of a killed run: tolerated,
	// reported, and treated as "cell not recorded".
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"type":"cell","exp":"F3","ce`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	summary, err := Validate(dir)
	if err != nil {
		t.Fatalf("torn final line rejected: %v", err)
	}
	if !strings.Contains(summary, "1 torn final line (cell not recorded)") {
		t.Fatalf("summary %q does not report the torn line", summary)
	}
	if !strings.HasPrefix(summary, "manifest ok:") {
		t.Fatalf("summary %q lost its prefix", summary)
	}

	// Interior corruption is a different beast — the manifest is lying,
	// not merely incomplete — and must still fail loudly.
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(b), "\n")
	lines[0] = "{broken json\n"
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Validate(dir); err == nil {
		t.Fatal("interior manifest corruption accepted")
	}
}

func TestValidateReportsQuarantinedCacheLines(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	path := seedCache(t, dir, 2)
	if err := faults.CorruptDigest(path, 2); err != nil {
		t.Fatal(err)
	}
	summary, err := Validate(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(summary, "1 cache line(s) quarantined") {
		t.Fatalf("summary %q does not surface the quarantine", summary)
	}
}

// TestManifestResumeAfterTornTail: a run killed while writing its
// summary, then resumed. The resumed run's records must not land on
// the fragment, or -checkmanifest fails on an interior line.
func TestManifestResumeAfterTornTail(t *testing.T) {
	dir := t.TempDir()
	for i, open := range []func(string) (*Writer, error){Create, Append} {
		w, err := open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Cell(CellRecord{Exp: "F3", Cell: i, Key: key(i)}); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := faults.TearFinalLine(filepath.Join(dir, manifestFile)); err != nil {
		t.Fatal(err)
	}
	w, err := Append(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Cell(CellRecord{Exp: "F3", Cell: 2, Key: key(2)}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	summary, err := Validate(dir)
	if err != nil {
		t.Fatalf("resumed manifest rejected: %v", err)
	}
	if !strings.Contains(summary, "3 cells (0 failed), 2 run summaries") || strings.Contains(summary, "torn") {
		t.Fatalf("summary %q, want both complete runs and all 3 cells, nothing torn", summary)
	}
}

// TestCacheAppendAfterTornTail: the cell recomputed after a torn tail
// must replay on the next resume, and nothing is quarantined twice.
func TestCacheAppendAfterTornTail(t *testing.T) {
	dir := t.TempDir()
	path := seedCache(t, dir, 3)
	if err := faults.TearFinalLine(path); err != nil {
		t.Fatal(err)
	}
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if q := c.Quarantined(); len(q) != 1 || q[0].Line != 3 {
		t.Fatalf("first reopen quarantined %+v, want the torn line 3", q)
	}
	if _, err := c.Put(key(2), json.RawMessage(`{"v":200}`)); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c2, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if q := c2.Quarantined(); len(q) != 0 {
		t.Fatalf("second reopen quarantined %+v, want nothing", q)
	}
	if v, _, ok := c2.Get(key(2)); !ok || string(v) != `{"v":200}` || c2.Loaded() != 3 {
		t.Fatalf("recomputed cell = (%s, %v), %d loaded; want it replayed among 3", v, ok, c2.Loaded())
	}
}

func readBytes(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
