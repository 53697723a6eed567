//go:build unix

package runlog

import (
	"bytes"
	"errors"
	"path/filepath"
	"strings"
	"testing"
)

// TestCacheWriterLockExcludesSecondWriter: one live writer per run
// directory. A second OpenCache must fail fast with an error naming
// the holder, and the lock must release on Close.
func TestCacheWriterLockExcludesSecondWriter(t *testing.T) {
	dir := t.TempDir()
	c1, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCache(dir); err == nil {
		t.Fatal("second OpenCache succeeded; two writers would interleave appends")
	} else if !strings.Contains(err.Error(), "locked by") {
		t.Fatalf("contention error = %v, want it to name the holder", err)
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}
	c2, err := OpenCache(dir)
	if err != nil {
		t.Fatalf("OpenCache after Close: %v (lock not released)", err)
	}
	c2.Close()
}

// TestCacheReadOnlyBypassesLock: read-only opens coexist with a live
// writer (that is their point — -checkmanifest against a running
// daemon) and refuse writes.
func TestCacheReadOnlyBypassesLock(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.Put("k", []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}

	r, err := OpenCacheReadOnly(dir)
	if err != nil {
		t.Fatalf("OpenCacheReadOnly alongside a writer: %v", err)
	}
	if raw, _, ok := r.Get("k"); !ok || string(raw) != `{"v":1}` {
		t.Fatalf("read-only Get = (%s, %v), want the written entry", raw, ok)
	}
	if _, err := r.Put("k2", []byte(`{}`)); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("read-only Put = %v, want ErrReadOnly", err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("read-only Close: %v", err)
	}
	// The writer is unaffected by the reader's lifecycle.
	if _, err := w.Put("k3", []byte(`{"v":3}`)); err != nil {
		t.Fatalf("writer Put after reader Close: %v", err)
	}
}

// TestWritersLeaveLiveDirectoryAlone: Create and Append on a directory
// whose cache is held by a live writer fail with the holder's pid and
// touch neither file; they take the lock before they remove, truncate
// or repair anything.
func TestWritersLeaveLiveDirectoryAlone(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Cell(CellRecord{Exp: "F3", Cell: 0, Key: key(0)}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	seedCache(t, dir, 2)
	live, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	manifest, cells := readBytes(t, filepath.Join(dir, manifestFile)), readBytes(t, filepath.Join(dir, cacheFile))

	for name, open := range map[string]func(string) (*Writer, error){"Create": Create, "Append": Append} {
		if w, err := open(dir); err == nil {
			w.Close()
			t.Fatalf("%s on a live directory succeeded", name)
		} else if !strings.Contains(err.Error(), "locked by") || !strings.Contains(err.Error(), "run directory "+dir) {
			t.Fatalf("%s error = %v, want it to name the run directory and its holder", name, err)
		}
		if !bytes.Equal(readBytes(t, filepath.Join(dir, manifestFile)), manifest) {
			t.Fatalf("%s changed the live run's manifest", name)
		}
		if !bytes.Equal(readBytes(t, filepath.Join(dir, cacheFile)), cells) {
			t.Fatalf("%s changed the live run's cell cache", name)
		}
	}
}

// TestRunHoldsItsDirectory: a run holds its directory from Create to
// its last Close. Its own OpenCache joins the Writer's lock; a second
// Create, Append or OpenCache in that span fails and touches nothing,
// whichever of the run's two handles closes first.
func TestRunHoldsItsDirectory(t *testing.T) {
	dir := t.TempDir()
	for _, cacheFirst := range []bool{false, true} {
		w, err := Create(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Cell(CellRecord{Exp: "F3", Cell: 0, Key: key(0)}); err != nil {
			t.Fatal(err)
		}
		manifest := readBytes(t, filepath.Join(dir, manifestFile))
		if _, err := Create(dir); err == nil || !strings.Contains(err.Error(), "locked by") {
			t.Fatalf("second Create before the run's OpenCache: err = %v, want locked by", err)
		}
		if !bytes.Equal(readBytes(t, filepath.Join(dir, manifestFile)), manifest) {
			t.Fatal("second Create changed the live run's manifest")
		}
		c, err := OpenCache(dir)
		if err != nil {
			t.Fatalf("the run's own OpenCache: %v", err)
		}
		if _, err := OpenCache(dir); err == nil {
			t.Fatal("second OpenCache joined a lock its run's cache already holds")
		}
		first, second := w.Close, c.Close
		if cacheFirst {
			first, second = c.Close, w.Close
		}
		if err := first(); err != nil {
			t.Fatal(err)
		}
		if _, err := Append(dir); err == nil || !strings.Contains(err.Error(), "locked by") {
			t.Fatalf("Append with one handle of the run still open: err = %v, want locked by", err)
		}
		if err := second(); err != nil {
			t.Fatal(err)
		}
	}
	w, err := Append(dir)
	if err != nil {
		t.Fatalf("Append after the run closed: %v (lock not released)", err)
	}
	w.Close()
}
