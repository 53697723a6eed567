package runlog

import (
	"bytes"
	"encoding/json"
	"os"
	"sync"
)

// Log is one append-only JSON-lines file of a run directory. The
// manifest, the cell cache and the job journal all append through it.
// Each record is json.Marshal plus '\n', written with one Write under
// the log's mutex: concurrent appends never interleave, and a record is
// in the file before Append returns, so a killed process loses at most
// the record it was writing. The first failed write is sticky: later
// appends return it without writing, and so does Close.
type Log struct {
	mu  sync.Mutex
	f   *os.File
	err error
}

// OpenLog replays the JSON-lines file at path through replay (nil
// skips it) with ReadLog's rules, then opens the file for appending,
// creating it if needed. Before the first append it ends the file at a
// record boundary, reusing the bytes the replay read: an unterminated
// final line that parses gets its '\n', and a torn one is cut, so a
// new record is never glued onto a fragment. The torn line's number
// is returned as ReadLog returns it. The caller holds the run
// directory's writer lock, so no live writer's file is repaired.
func OpenLog(path string, replay func(n int, line []byte) error) (*Log, int, error) {
	b, torn, err := ReadLog(path, replay)
	if err != nil && !os.IsNotExist(err) {
		return nil, 0, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	if n := len(b); n > 0 && b[n-1] != '\n' {
		if torn > 0 {
			err = f.Truncate(int64(bytes.LastIndexByte(b, '\n') + 1))
		} else {
			_, err = f.Write([]byte{'\n'})
		}
		if err != nil {
			f.Close()
			return nil, 0, err
		}
	}
	return &Log{f: f}, torn, nil
}

// ReadLog calls fn on each non-empty line of the JSON-lines file at
// path, in order, with its 1-based line number, and stops at fn's
// first error. An unterminated final line that is not valid JSON is a
// torn write, the residue of a process killed mid-append: it is not
// passed to fn, and its line number is returned as torn (0 when there
// is none). Every other line, however malformed, reaches fn. ReadLog
// also returns the bytes it read.
func ReadLog(path string, fn func(n int, line []byte) error) (b []byte, torn int, err error) {
	if b, err = os.ReadFile(path); err != nil {
		return nil, 0, err
	}
	for n, rest := 1, b; len(rest) > 0; n++ {
		line, next, terminated := bytes.Cut(rest, []byte{'\n'})
		rest = next
		if !terminated && !json.Valid(line) {
			return b, n, nil
		}
		if len(line) > 0 && fn != nil {
			if err := fn(n, line); err != nil {
				return b, 0, err
			}
		}
	}
	return b, 0, nil
}

// Append writes v as one JSON line.
func (l *Log) Append(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return l.appendLine(b)
}

// appendLine writes one encoded record, b without its '\n', as one
// line. It is the log's only write path.
func (l *Log) appendLine(b []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err == nil {
		_, l.err = l.f.Write(append(b, '\n'))
	}
	return l.err
}

// Close closes the file and returns the first failed write or the
// close error.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.f.Close(); l.err == nil {
		l.err = err
	}
	return l.err
}
