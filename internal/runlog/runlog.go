// Package runlog gives long experiment runs a durable, structured
// identity on disk. A run directory holds two JSON-lines files:
//
//	manifest.jsonl — one record per simulation cell (config key, wall
//	                 time, ops, result digest, error/panic), one record
//	                 per experiment, and a trailing run summary. This is
//	                 the observability stream: it answers "what ran, how
//	                 long did it take, what failed" without re-parsing
//	                 rendered tables.
//	cells.jsonl    — the content-keyed cell-result cache: one record per
//	                 completed cell mapping its config key to the cell's
//	                 JSON-encoded result. A later run pointed at the same
//	                 directory (resume) replays these instead of
//	                 re-simulating, so only missing, failed, or changed
//	                 cells run again.
//
// A cache line has the canonical form
//
//	{"key":K,"digest":"D","value":V}
//
// with K the JSON-quoted config key, D the digest of V, and V the
// cell's compact JSON result: the bytes json.Marshal writes for the
// entry. Put writes it by splicing, and a load reads it in one pass,
// checking V with json.Valid and then against D. A value or line in any
// other form goes through json.Marshal or json.Unmarshal instead, so
// both paths write the same bytes and load the same entries.
//
// The manifest's cell record, one per cell of every run, replayed
// cells included, is written by hand too (CellRecord.line): the bytes
// json.Marshal writes for the record, built field by field with the
// shared helpers of internal/canonjson. Its other records go through
// json.Marshal.
//
// Both files, and the job journal atomicd keeps beside them
// (internal/jobs), are one Log each: append-only, one Write per
// record, read back by one reader (ReadLog). A run killed mid-write
// leaves at most a torn final line, and loses only the record it was
// writing. The reader reports that line instead of passing it on, and
// a writable open ends the file at a record boundary before its first
// append: it terminates a final line that parses and cuts one that
// does not. So the next record never lands on a fragment.
//
// One writer lock (cells.lock) guards a run directory. Create and
// Append take it before they remove, truncate or repair anything, and
// the run holds it until its Writer and Cache are both closed:
// OpenCache joins the lock of a live Writer on the same directory. So
// a second run pointed at a live directory fails with "locked by pid
// N" and leaves its files alone.
//
// In the model pipeline (ARCHITECTURE.md) this package is the
// persistence arm of the observability layer: the harness's cell
// scheduler writes both streams, and the byte-exact round-trip
// contract on cached results (DESIGN.md, "Run manifests and resume")
// is what lets cell metrics snapshots (internal/metrics) survive a
// resume unchanged.
package runlog

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"atomicsmodel/internal/canonjson"
)

// Record types stored in manifest.jsonl, discriminated by Type.
const (
	TypeCell = "cell" // one simulation cell
	TypeExp  = "exp"  // one experiment (a group of cells)
	TypeRun  = "run"  // trailing run summary
)

// CellRecord describes one completed (or failed) simulation cell.
type CellRecord struct {
	Type string `json:"type"`
	// Exp is the experiment ID the cell belongs to (e.g. "F3").
	Exp string `json:"exp"`
	// Cell is the cell's index within its experiment.
	Cell int `json:"cell"`
	// Key is the cell's full config key — experiment ID, base options,
	// and the per-cell configuration. Cells with equal keys compute the
	// same result; the key is what the resume cache is addressed by.
	// The per-cell part identifies both halves of a cell by content:
	// machines as "Name@digest" (machine.Key) and workloads as a
	// "/wl@digest" suffix (workload.Spec.Digest), so two differently
	// parameterized machines or workload specs sharing a name never
	// share cache entries.
	Key string `json:"key,omitempty"`
	// Digest is a short content hash of the JSON-encoded result.
	Digest string `json:"digest,omitempty"`
	// Cached marks a cell replayed from the resume cache.
	Cached bool `json:"cached,omitempty"`
	// WallMS is the wall-clock time the cell took, in milliseconds.
	WallMS float64 `json:"wall_ms"`
	// SimNS is the simulated measurement window, when the cell's result
	// reports one (nanoseconds of simulated time).
	SimNS float64 `json:"sim_ns,omitempty"`
	// Ops is the cell's completed-operation count, when reported.
	Ops uint64 `json:"ops,omitempty"`
	// Error is the cell's error text; Panic marks errors that were
	// recovered panics, and Stack carries the panicking cell's stack.
	Error string `json:"error,omitempty"`
	Panic bool   `json:"panic,omitempty"`
	Stack string `json:"stack,omitempty"`
	// TimedOut marks errors raised by the cell watchdog (the cell
	// exceeded its wall-clock deadline).
	TimedOut bool `json:"timed_out,omitempty"`
	// Canceled marks cells that never ran because the run's context was
	// canceled (or past its deadline) when their turn came.
	Canceled bool `json:"canceled,omitempty"`
}

// ExpRecord summarizes one experiment's cells.
type ExpRecord struct {
	Type   string  `json:"type"`
	Exp    string  `json:"exp"`
	Cells  int     `json:"cells"`
	Cached int     `json:"cached"`
	Failed int     `json:"failed"`
	WallMS float64 `json:"wall_ms"`
	Error  string  `json:"error,omitempty"`
}

// RunRecord is the trailing run summary.
type RunRecord struct {
	Type        string  `json:"type"`
	Experiments int     `json:"experiments"`
	Failed      int     `json:"failed"`
	Cells       int     `json:"cells"`
	Cached      int     `json:"cached"`
	FailedCells int     `json:"failed_cells"`
	WallMS      float64 `json:"wall_ms"`
	// Resumed marks manifests appended by a -resume invocation.
	Resumed bool `json:"resumed,omitempty"`
}

// Digest returns the short content hash used for result digests: the
// first 16 hex characters of SHA-256.
func Digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// Writer appends manifest records to <dir>/manifest.jsonl and keeps the
// running totals for the trailing run summary. Methods are safe for
// concurrent use by scheduler workers.
type Writer struct {
	mu      sync.Mutex
	log     *Log
	lock    *dirLock
	start   time.Time
	resumed bool

	exps, failedExps           int
	cells, cached, failedCells int
}

const (
	manifestFile = "manifest.jsonl"
	cacheFile    = "cells.jsonl"
)

// Create starts a fresh run directory: it removes any existing
// manifest and cell cache so stale results cannot leak into a new run.
func Create(dir string) (*Writer, error) {
	return newWriter(dir, false)
}

// Append opens an existing run directory for a resumed run: manifest
// records are appended and the cell cache is preserved.
func Append(dir string) (*Writer, error) {
	return newWriter(dir, true)
}

// newWriter takes the directory's writer lock before it removes or
// repairs files, and holds it until Close; the run's OpenCache on the
// same directory joins it.
func newWriter(dir string, resume bool) (w *Writer, err error) {
	lock, err := lockDir(dir, false)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			lock.release()
		}
	}()
	if !resume {
		// A fresh run starts both files over: OpenCache on this
		// directory must not see another run's cells.
		for _, name := range []string{manifestFile, cacheFile} {
			if err := os.Remove(filepath.Join(dir, name)); err != nil && !os.IsNotExist(err) {
				return nil, err
			}
		}
	}
	log, _, err := OpenLog(filepath.Join(dir, manifestFile), nil)
	if err != nil {
		return nil, err
	}
	return &Writer{log: log, lock: lock, start: time.Now(), resumed: resume}, nil
}

// Cell records one completed or failed cell.
func (w *Writer) Cell(r CellRecord) error {
	r.Type = TypeCell
	line, err := r.line()
	w.mu.Lock()
	defer w.mu.Unlock()
	w.cells++
	if r.Cached {
		w.cached++
	}
	if r.Error != "" {
		w.failedCells++
	}
	if err != nil {
		return err
	}
	return w.log.appendLine(line)
}

// line encodes r as its manifest.jsonl line: the bytes json.Marshal(r)
// writes, field by field, since the manifest takes one of these for
// every cell, replayed ones included. The float fields fail as
// json.Marshal fails on NaN and ±Inf.
func (r *CellRecord) line() ([]byte, error) {
	// One spare byte for the '\n' appendLine adds.
	w := canonjson.Writer{B: make([]byte, 0, 128+len(r.Exp)+len(r.Key)+len(r.Digest)+len(r.Error)+len(r.Stack)+1)}
	w.Lit(`{"type":`)
	w.Str(r.Type)
	w.Lit(`,"exp":`)
	w.Str(r.Exp)
	w.Lit(`,"cell":`)
	w.Int(int64(r.Cell))
	if r.Key != "" {
		w.Lit(`,"key":`)
		w.Str(r.Key)
	}
	if r.Digest != "" {
		w.Lit(`,"digest":`)
		w.Str(r.Digest)
	}
	if r.Cached {
		w.Lit(`,"cached":true`)
	}
	w.Lit(`,"wall_ms":`)
	w.Float(r.WallMS)
	if r.SimNS != 0 {
		w.Lit(`,"sim_ns":`)
		w.Float(r.SimNS)
	}
	if r.Ops != 0 {
		w.Lit(`,"ops":`)
		w.Uint(r.Ops)
	}
	if r.Error != "" {
		w.Lit(`,"error":`)
		w.Str(r.Error)
	}
	if r.Panic {
		w.Lit(`,"panic":true`)
	}
	if r.Stack != "" {
		w.Lit(`,"stack":`)
		w.Str(r.Stack)
	}
	if r.TimedOut {
		w.Lit(`,"timed_out":true`)
	}
	if r.Canceled {
		w.Lit(`,"canceled":true`)
	}
	w.Lit("}")
	return w.Bytes()
}

// Totals returns the cell counters accumulated so far: total cells,
// cache-replayed cells, and failed cells. Drivers diff snapshots taken
// around an experiment to fill its ExpRecord.
func (w *Writer) Totals() (cells, cached, failed int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.cells, w.cached, w.failedCells
}

// Exp records one experiment's summary.
func (w *Writer) Exp(r ExpRecord) error {
	r.Type = TypeExp
	w.mu.Lock()
	defer w.mu.Unlock()
	w.exps++
	if r.Error != "" {
		w.failedExps++
	}
	return w.log.Append(r)
}

// Close writes the trailing run summary, closes the manifest and
// releases the Writer's hold on the directory lock. It returns the
// first failed write of the run, if any.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	// A failed write is sticky: Close below returns it.
	_ = w.log.Append(RunRecord{
		Type:        TypeRun,
		Experiments: w.exps,
		Failed:      w.failedExps,
		Cells:       w.cells,
		Cached:      w.cached,
		FailedCells: w.failedCells,
		WallMS:      float64(time.Since(w.start)) / float64(time.Millisecond),
		Resumed:     w.resumed,
	})
	defer w.lock.release()
	return w.log.Close()
}

// cacheEntry is one line of cells.jsonl.
type cacheEntry struct {
	Key    string          `json:"key"`
	Digest string          `json:"digest"`
	Value  json.RawMessage `json:"value"`
	// fromDisk marks entries read from cells.jsonl at open time (never
	// serialized): a Get hit on one of these is a replay of an earlier
	// run's cell, not a rediscovery of something this run stored.
	fromDisk bool
}

// Quarantine describes one corrupt cache line that was isolated at load
// time instead of being trusted: the cell it held is simply recomputed.
type Quarantine struct {
	// Line is the 1-based line number in cells.jsonl.
	Line int
	// Key is the entry's config key, when it could still be recovered
	// from the corrupt line (a digest mismatch keeps the key; a torn or
	// unparseable line usually loses it).
	Key string
	// Reason says what was wrong with the line.
	Reason string
}

// Cache is the content-keyed cell-result cache. Get and Put are safe
// for concurrent use. Entries live in memory and are appended to
// <dir>/cells.jsonl as they are stored; the newest entry for a key
// wins on load.
//
// A writable cache holds the directory's writer lock until Close, so
// two runs never interleave appends. OpenCacheReadOnly takes no lock
// and refuses Put.
type Cache struct {
	mu          sync.Mutex
	log         *Log // nil when read-only
	lock        *dirLock
	entries     map[string]cacheEntry
	loaded      int
	quarantined []Quarantine

	// Get/Put traffic counters; see CacheStats.
	hits, misses, replayed uint64
}

// CacheStats is a point-in-time snapshot of a cache's traffic: how many
// Gets hit, how many missed (the cell had to simulate), and how many of
// the hits replayed an entry loaded from disk at open time (a resumed
// run reusing an earlier run's cell, as opposed to re-reading a cell
// this run stored). The daemon surfaces these on /healthz so operators
// can see resume effectiveness without parsing manifests.
type CacheStats struct {
	Hits     uint64 `json:"hits"`
	Misses   uint64 `json:"misses"`
	Replayed uint64 `json:"replayed"`
}

// Stats returns a snapshot of the cache's Get traffic counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Replayed: c.replayed}
}

// ErrReadOnly is returned by Put on a cache opened with
// OpenCacheReadOnly.
var ErrReadOnly = fmt.Errorf("runlog: cache is open read-only")

// OpenCache loads any existing cell cache in dir and opens it for
// appending, taking the directory's writer lock or joining the one a
// live Writer on dir holds. Corruption is quarantined rather than
// fatal: a torn final line (killed run), an unparseable line (bad
// disk, editor mishap), and an entry whose stored digest no longer
// matches its payload (bit rot) are each recorded in Quarantined and
// excluded from the cache, so the affected cells recompute instead of
// replaying garbage or crashing the run. A directory whose writer lock
// another run holds fails with an error naming the holder's pid.
func OpenCache(dir string) (*Cache, error) {
	lock, err := lockDir(dir, true)
	if err != nil {
		return nil, err
	}
	c := &Cache{lock: lock, entries: map[string]cacheEntry{}}
	log, torn, err := OpenLog(filepath.Join(dir, cacheFile), c.replay)
	if err != nil {
		lock.release()
		return nil, err
	}
	c.log = log
	return c.loadedWith(torn), nil
}

// OpenCacheReadOnly loads the cell cache in dir without taking the
// writer lock and without opening an append stream: any number of
// read-only opens may coexist with one live writer. Put fails with
// ErrReadOnly. A missing cache loads as empty, like OpenCache on a
// fresh directory.
func OpenCacheReadOnly(dir string) (*Cache, error) {
	c := &Cache{entries: map[string]cacheEntry{}}
	_, torn, err := ReadLog(filepath.Join(dir, cacheFile), c.replay)
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	return c.loadedWith(torn), nil
}

// replay loads one cells.jsonl line into the cache, or quarantines it.
// A line in the canonical form Put writes is read in one pass; any
// other line goes through json.Unmarshal. Both reach the same digest
// check with the same entry, so a line is kept, or quarantined with
// the same reason, whichever way it was read.
func (c *Cache) replay(n int, line []byte) error {
	e, ok := canonicalEntry(line)
	if !ok {
		if err := json.Unmarshal(line, &e); err != nil {
			c.quarantined = append(c.quarantined, Quarantine{Line: n, Reason: fmt.Sprintf("unparseable entry: %v", err)})
			return nil
		}
	}
	if got := Digest(e.Value); got != e.Digest {
		c.quarantined = append(c.quarantined, Quarantine{Line: n, Key: e.Key,
			Reason: fmt.Sprintf("digest mismatch: stored %s, payload hashes to %s", e.Digest, got)})
	} else {
		e.fromDisk = true
		c.entries[e.Key] = e
	}
	return nil
}

// canonicalEntry parses a cells.jsonl line of the canonical form
//
//	{"key":"K","digest":"D","value":V}
//
// where K and D are printable ASCII without a backslash (no escapes)
// and V is one valid JSON value with no whitespace at either end. The
// entry's Value aliases line. ok is false for any other line, which
// json.Unmarshal then decodes: it yields the same entry for every line
// accepted here.
func canonicalEntry(line []byte) (e cacheEntry, ok bool) {
	p := canonjson.Reader{B: line}
	var key, digest []byte
	if !p.Lit(`{"key":`) || !p.Str(&key) || !p.Lit(`,"digest":`) || !p.Str(&digest) || !p.Lit(`,"value":`) {
		return e, false
	}
	v, ok := bytes.CutSuffix(line[p.I:], []byte("}"))
	if !ok || len(v) == 0 || isSpace(v[0]) || isSpace(v[len(v)-1]) || !json.Valid(v) {
		return e, false
	}
	return cacheEntry{Key: string(key), Digest: string(digest), Value: v}, true
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// loadedWith finishes a load: it quarantines the torn final line, if
// any, and counts the entries read from disk.
func (c *Cache) loadedWith(torn int) *Cache {
	if torn > 0 {
		c.quarantined = append(c.quarantined, Quarantine{Line: torn, Reason: "torn final write (killed run)"})
	}
	c.loaded = len(c.entries)
	return c
}

// Quarantined returns the corrupt lines isolated when the cache was
// loaded, in file order. Drivers report them so dropped results are
// visible, not silent.
func (c *Cache) Quarantined() []Quarantine { return c.quarantined }

// Get returns the cached result and digest for key, if present, and
// counts the lookup in the cache's traffic stats.
func (c *Cache) Get(key string) (json.RawMessage, string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if ok {
		c.hits++
		if e.fromDisk {
			c.replayed++
		}
	} else {
		c.misses++
	}
	return e.Value, e.Digest, ok
}

// Put stores a cell result under key and returns its digest.
func (c *Cache) Put(key string, value json.RawMessage) (string, error) {
	if c.log == nil {
		return "", ErrReadOnly
	}
	e := cacheEntry{Key: key, Digest: Digest(value), Value: value}
	c.mu.Lock()
	c.entries[key] = e
	c.mu.Unlock()
	line, err := e.line()
	if err != nil {
		return e.Digest, err
	}
	return e.Digest, c.log.appendLine(line)
}

// line encodes e as its cells.jsonl line, the bytes json.Marshal(e)
// writes. A value that json.Marshal would copy unchanged (see
// compactJSON) is spliced in as it is; any other value is left to
// json.Marshal, which compacts and escapes it or fails. The digest is
// Digest's hex, which needs no escaping.
func (e cacheEntry) line() ([]byte, error) {
	if !compactJSON(e.Value) {
		return json.Marshal(e)
	}
	// One spare byte for the '\n' appendLine adds.
	w := canonjson.Writer{B: make([]byte, 0, len(`{"key":"","digest":"","value":}`)+len(e.Key)+len(e.Digest)+len(e.Value)+1)}
	w.Lit(`{"key":`)
	w.Str(e.Key)
	w.Lit(`,"digest":"`)
	w.Lit(e.Digest)
	w.Lit(`","value":`)
	w.B = append(w.B, e.Value...)
	w.Lit("}")
	return w.Bytes()
}

// compactJSON reports whether v is one valid JSON value that
// json.Marshal embeds byte for byte: it has no whitespace outside
// strings and none of the runes json.Marshal escapes for HTML safety
// ('<', '>', '&', U+2028, U+2029).
func compactJSON(v []byte) bool {
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

// Len returns the number of cached cells.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Loaded returns the number of entries read from disk when the cache
// was opened (before this run added any).
func (c *Cache) Loaded() int { return c.loaded }

// Close closes the cache's append log and releases the directory's
// writer lock. Closing a read-only cache is a no-op.
func (c *Cache) Close() error {
	if c.log == nil {
		return nil
	}
	defer c.lock.release()
	return c.log.Close()
}

// Validate parses a run directory's manifest and cell cache and returns
// a summary line, or an error describing the first malformed record. It
// is the check behind `atomicsim -checkmanifest`. A torn final manifest
// line — the normal residue of a killed run — is not an error: the cell
// being recorded at the kill simply was not recorded, and a resume will
// recompute it. Interior corruption still fails loudly, and quarantined
// cache lines are surfaced in the summary.
func Validate(dir string) (string, error) {
	var cells, exps, runs, failed int
	_, torn, err := ReadLog(filepath.Join(dir, manifestFile), func(n int, line []byte) error {
		var rec struct {
			Type  string `json:"type"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			return fmt.Errorf("runlog: %s line %d: %w", manifestFile, n, err)
		}
		switch rec.Type {
		case TypeCell:
			cells++
			if rec.Error != "" {
				failed++
			}
		case TypeExp:
			exps++
		case TypeRun:
			runs++
		default:
			return fmt.Errorf("runlog: %s line %d: unknown record type %q", manifestFile, n, rec.Type)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	if runs == 0 {
		return "", fmt.Errorf("runlog: %s has no run summary (run did not complete)", manifestFile)
	}
	// Read-only: validation must work on a directory whose writer lock
	// is held by a live daemon, and must not create files.
	c, err := OpenCacheReadOnly(dir)
	if err != nil {
		return "", err
	}
	defer c.Close()
	s := fmt.Sprintf("manifest ok: %d experiments, %d cells (%d failed), %d run summaries; cache: %d cells",
		exps, cells, failed, runs, c.Len())
	if torn > 0 {
		s += "; 1 torn final line (cell not recorded)"
	}
	if q := len(c.Quarantined()); q > 0 {
		s += fmt.Sprintf("; %d cache line(s) quarantined", q)
	}
	return s, nil
}
