package runlog

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestWriterEmitsValidRecords(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Cell(CellRecord{Exp: "F1", Cell: 0, Key: "F1|a", Digest: "abcd", WallMS: 1.5, Ops: 42}); err != nil {
		t.Fatal(err)
	}
	if err := w.Cell(CellRecord{Exp: "F1", Cell: 1, Key: "F1|b", Error: "boom", Panic: true, Stack: "stack"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Exp(ExpRecord{Exp: "F1", Cells: 2, Failed: 1, Error: "boom"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	b, err := os.ReadFile(filepath.Join(dir, "manifest.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("manifest lines = %d, want 4:\n%s", len(lines), b)
	}
	for i, line := range lines {
		if !json.Valid([]byte(line)) {
			t.Fatalf("line %d is not valid JSON: %s", i+1, line)
		}
	}
	var run RunRecord
	if err := json.Unmarshal([]byte(lines[3]), &run); err != nil {
		t.Fatal(err)
	}
	if run.Type != TypeRun || run.Cells != 2 || run.FailedCells != 1 || run.Experiments != 1 || run.Failed != 1 {
		t.Fatalf("run summary = %+v", run)
	}

	sum, err := Validate(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sum, "2 cells (1 failed)") {
		t.Fatalf("Validate summary = %q", sum)
	}
}

func TestCreateTruncatesStaleRun(t *testing.T) {
	dir := t.TempDir()
	w, _ := Create(dir)
	c, _ := OpenCache(dir)
	if _, err := c.Put("k", json.RawMessage(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	c.Close()
	w.Close()

	// A fresh Create must not see the old run's cells.
	w2, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	c2, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c2.Len() != 0 || c2.Loaded() != 0 {
		t.Fatalf("fresh run sees %d stale cells", c2.Len())
	}
}

func TestCacheRoundTripAndResume(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	val := json.RawMessage(`{"ops":7,"x":1.25}`)
	d1, err := c.Put("F3|seed=42|XeonE5/FAA/8", val)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != Digest(val) {
		t.Fatalf("digest mismatch: %s vs %s", d1, Digest(val))
	}
	// Overwrite: newest wins.
	val2 := json.RawMessage(`{"ops":9}`)
	if _, err := c.Put("F3|seed=42|XeonE5/FAA/8", val2); err != nil {
		t.Fatal(err)
	}
	c.Close()

	c2, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	got, digest, ok := c2.Get("F3|seed=42|XeonE5/FAA/8")
	if !ok || string(got) != string(val2) || digest != Digest(val2) {
		t.Fatalf("resume Get = %s, %s, %v", got, digest, ok)
	}
	if c2.Loaded() != 1 {
		t.Fatalf("Loaded = %d", c2.Loaded())
	}
}

func TestCacheToleratesTornFinalLine(t *testing.T) {
	dir := t.TempDir()
	c, _ := OpenCache(dir)
	c.Put("a", json.RawMessage(`{"v":1}`))
	c.Close()
	f, err := os.OpenFile(filepath.Join(dir, "cells.jsonl"), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"key":"b","digest":"xx","value":{"v":`) // killed mid-write
	f.Close()

	c2, err := OpenCache(dir)
	if err != nil {
		t.Fatalf("torn final line must be skipped, got %v", err)
	}
	defer c2.Close()
	if _, _, ok := c2.Get("a"); !ok {
		t.Fatal("intact entry lost")
	}
	if _, _, ok := c2.Get("b"); ok {
		t.Fatal("torn entry resurrected")
	}
}

func TestValidateRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "manifest.jsonl"), []byte("not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Validate(dir); err == nil {
		t.Fatal("Validate accepted garbage")
	}
}

func TestDigestStable(t *testing.T) {
	if Digest([]byte("x")) != Digest([]byte("x")) {
		t.Fatal("digest not deterministic")
	}
	if len(Digest([]byte("x"))) != 16 {
		t.Fatalf("digest length = %d", len(Digest([]byte("x"))))
	}
	if Digest([]byte("x")) == Digest([]byte("y")) {
		t.Fatal("digest collision on trivial input")
	}
}

func TestCacheStatsCountsTraffic(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s != (CacheStats{}) {
		t.Fatalf("fresh cache stats = %+v, want zeros", s)
	}
	// Miss, then a hit on an entry stored this run: counted as a hit but
	// not a replay (nothing came from disk yet).
	if _, _, ok := c.Get("k"); ok {
		t.Fatal("unexpected hit on empty cache")
	}
	if _, err := c.Put("k", json.RawMessage(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	c.Get("k")
	if s := c.Stats(); s != (CacheStats{Hits: 1, Misses: 1, Replayed: 0}) {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 0 replayed", s)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the entry now comes from disk, so a hit on it is a replay.
	c2, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	c2.Get("k")
	c2.Get("missing")
	if s := c2.Stats(); s != (CacheStats{Hits: 1, Misses: 1, Replayed: 1}) {
		t.Fatalf("resumed stats = %+v, want 1 hit / 1 miss / 1 replayed", s)
	}
	// Re-storing the key makes it this run's entry again: further hits
	// stop counting as replays.
	if _, err := c2.Put("k", json.RawMessage(`{"v":2}`)); err != nil {
		t.Fatal(err)
	}
	c2.Get("k")
	if s := c2.Stats(); s != (CacheStats{Hits: 2, Misses: 1, Replayed: 1}) {
		t.Fatalf("post-Put stats = %+v, want 2 hits / 1 miss / 1 replayed", s)
	}
}

// TestCachePutKeepsRightSizedValue: Put stores its own copy of the
// value, sized to it, so an encoder's spare capacity in the caller's
// slice does not stay live for the cache's lifetime, and a caller that
// reuses its buffer cannot change the stored value.
func TestCachePutKeepsRightSizedValue(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	val := append(make(json.RawMessage, 0, 4096), `{"v":1}`...)
	if _, err := c.Put("k", val); err != nil {
		t.Fatal(err)
	}
	copy(val, `{"v":2}`)
	got, _, ok := c.Get("k")
	if !ok {
		t.Fatal("Put entry missing")
	}
	if string(got) != `{"v":1}` || cap(got) != len(got) {
		t.Fatalf("stored value %q has len %d, cap %d; want {\"v\":1} with cap == len", got, len(got), cap(got))
	}
}

// TestValidateAcceptsRetiredAttemptsField: manifests written while the
// harness still retried cells carry an "attempts" count on failed cell
// records. The field is gone from CellRecord, and such manifests must
// still validate.
func TestValidateAcceptsRetiredAttemptsField(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Cell(CellRecord{Exp: "F3", Cell: 0, Key: "k", Error: "cell 0 panicked: boom", Panic: true}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "manifest.jsonl")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	old := strings.Replace(string(b), `"panic":true`, `"panic":true,"attempts":2`, 1)
	if old == string(b) {
		t.Fatal("fixture has no failed cell record to extend")
	}
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	summary, err := Validate(dir)
	if err != nil {
		t.Fatalf("manifest with an attempts field rejected: %v", err)
	}
	if !strings.Contains(summary, "1 failed") {
		t.Fatalf("summary %q does not count the failed cell", summary)
	}
}
