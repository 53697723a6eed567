package runlog

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// TestOpenLogTerminatesParsedFinalLine: a final record that parses but
// lost its newline is kept, and the open terminates it, so the next
// append starts a line of its own.
func TestOpenLogTerminatesParsedFinalLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	if err := os.WriteFile(path, []byte(`{"a":1}`+"\n"+`{"b":2}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var seen []string
	l, torn, err := OpenLog(path, func(n int, line []byte) error {
		seen = append(seen, string(line))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if torn != 0 || len(seen) != 2 || seen[1] != `{"b":2}` {
		t.Fatalf("replay saw %q, torn line %d; want both records and no torn line", seen, torn)
	}
	if err := l.Append(map[string]int{"c": 3}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := string(readBytes(t, path)), `{"a":1}`+"\n"+`{"b":2}`+"\n"+`{"c":3}`+"\n"; got != want {
		t.Fatalf("log = %q, want %q", got, want)
	}
}

// TestOpenLogCutsTornFinalLine: a torn final line is reported to the
// caller, not replayed, and cut before the first append.
func TestOpenLogCutsTornFinalLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	if err := os.WriteFile(path, []byte(`{"a":1}`+"\n"+`{"b":`), 0o644); err != nil {
		t.Fatal(err)
	}
	replayed := 0
	l, torn, err := OpenLog(path, func(int, []byte) error { replayed++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if torn != 2 || replayed != 1 {
		t.Fatalf("torn line %d, %d replayed; want line 2 torn and 1 replayed", torn, replayed)
	}
	if err := l.Append(map[string]int{"c": 3}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := string(readBytes(t, path)), `{"a":1}`+"\n"+`{"c":3}`+"\n"; got != want {
		t.Fatalf("log = %q, want %q", got, want)
	}
}

// TestLogWriteErrorSticky: after a failed write the log writes
// nothing more, and every later Append and Close return that error.
func TestLogWriteErrorSticky(t *testing.T) {
	l, _, err := OpenLog(filepath.Join(t.TempDir(), "log.jsonl"), nil)
	if err != nil {
		t.Fatal(err)
	}
	l.f.Close() // every write now fails
	first := l.Append(1)
	if first == nil {
		t.Fatal("append to a closed file succeeded")
	}
	if err := l.Append(2); !errors.Is(err, first) {
		t.Fatalf("second append = %v, want the first failure %v", err, first)
	}
	if err := l.Close(); !errors.Is(err, first) {
		t.Fatalf("Close = %v, want the first failure %v", err, first)
	}
}

// TestLogConcurrentAppends: appends from several goroutines land as
// whole lines, none lost or interleaved.
func TestLogConcurrentAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	l, _, err := OpenLog(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := l.Append(map[string]int{"g": g, "i": i}); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	_, torn, err := ReadLog(path, func(n int, line []byte) error {
		var rec struct{ G, I int }
		if err := json.Unmarshal(line, &rec); err != nil {
			return err
		}
		seen[string(line)] = true
		return nil
	})
	if err != nil || torn != 0 || len(seen) != 400 {
		t.Fatalf("read %d distinct records (torn line %d, err %v), want 400", len(seen), torn, err)
	}
}
