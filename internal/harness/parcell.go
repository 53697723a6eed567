package harness

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"atomicsmodel/internal/runlog"
	"atomicsmodel/internal/sim"
)

// This file is the parallel cell scheduler. A "cell" is one independent
// simulation: one (machine, threads, primitive, ...) configuration run
// to completion on its own engine. Cells never share mutable state —
// every cell runs on an engine and memory reset to their just-built
// state (internal/workload's cell pool) with RNGs from its own derived
// seed — so the scheduler may run them in any order on any
// number of workers. Determinism is preserved by construction: results
// are written into an index-addressed slot per cell and consumed in
// index order, so the assembled tables are byte-identical to a serial
// run regardless of worker count or completion order. Parallelism lives
// strictly across cells, never inside an engine.
//
// Cells are also crash-isolated: a panicking cell is recovered and
// converted into an ordinary per-cell error, so sibling cells finish,
// their results reach the manifest and resume cache, and the process
// survives to render what it can.

// par returns the worker count: Options.Par when positive, otherwise
// the process's GOMAXPROCS.
func (o Options) par() int {
	if o.Par > 0 {
		return o.Par
	}
	return runtime.GOMAXPROCS(0)
}

// CellPanicError is a panic recovered from one cell, converted into a
// deterministic error. Error() deliberately excludes the stack — the
// message must be identical whether the cell panicked on a serial or a
// parallel scheduler — but the stack is preserved for the manifest and
// for human debugging.
type CellPanicError struct {
	// Cell is the panicking cell's index.
	Cell int
	// Value is the value passed to panic.
	Value interface{}
	// Stack is the panicking goroutine's stack trace.
	Stack string
}

func (e *CellPanicError) Error() string {
	return fmt.Sprintf("cell %d panicked: %v", e.Cell, e.Value)
}

// CellTimeoutError reports a cell whose compute closure exceeded
// Options.CellTimeout. The run degrades gracefully: sibling cells
// finish and reach the manifest and resume cache, the experiment fails
// with this error, and the CLI exits nonzero having rendered everything
// else. The message excludes wall-clock measurements so the manifest
// record is stable across runs.
type CellTimeoutError struct {
	// Cell is the timed-out cell's index.
	Cell int
	// Timeout is the configured deadline the cell exceeded.
	Timeout time.Duration
}

func (e *CellTimeoutError) Error() string {
	return fmt.Sprintf("cell %d exceeded its %v watchdog deadline", e.Cell, e.Timeout)
}

// CellCanceledError reports a cell that was not run because the option
// set's context was canceled or its deadline passed before the cell
// started. The run aborts promptly between cells: cells already
// computing finish (and still reach the manifest and cache), canceled
// cells are recorded in the manifest with canceled=true, and the
// experiment fails with this error. Cause is the context's error, so
// errors.Is(err, context.Canceled) and context.DeadlineExceeded both
// work through it.
type CellCanceledError struct {
	// Cell is the index of the cell that was about to run.
	Cell int
	// Cause is ctx.Err(): context.Canceled or context.DeadlineExceeded.
	Cause error
}

func (e *CellCanceledError) Error() string {
	return fmt.Sprintf("cell %d canceled before it ran: %v", e.Cell, e.Cause)
}

func (e *CellCanceledError) Unwrap() error { return e.Cause }

// canceled returns the *CellCanceledError for cell i when the option
// set's context is done, nil otherwise (including when no context is
// attached).
func (o Options) canceled(i int) *CellCanceledError {
	if o.Context == nil {
		return nil
	}
	if err := o.Context.Err(); err != nil {
		return &CellCanceledError{Cell: i, Cause: err}
	}
	return nil
}

// safeCell runs fn(i), converting a panic into a *CellPanicError.
func safeCell(i int, fn func(i int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &CellPanicError{Cell: i, Value: r, Stack: string(debug.Stack())}
		}
	}()
	return fn(i)
}

// runCells executes fn(0), fn(1), ..., fn(n-1) on up to o.par()
// workers. Each index is claimed exactly once. A cell that panics is
// recovered into a *CellPanicError instead of crashing the process. On
// error the workers stop claiming new cells, already-claimed cells
// finish, and the error with the lowest index is returned — the same
// one a serial in-order run would have hit first, so error behavior is
// deterministic too.
func runCells(o Options, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers := o.par()
	if workers > n {
		workers = n
	}
	// One code path for every worker count: Par 1 is the same pool with
	// one worker, so the par-invariance tests exercise what runs.
	errs := make([]error, n)
	var next, done atomic.Int64
	var failed atomic.Bool
	var mu sync.Mutex // serializes Progress callbacks
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				if err := safeCell(i, fn); err != nil {
					errs[i] = err
					failed.Store(true)
					continue
				}
				d := int(done.Add(1))
				if o.Progress != nil {
					mu.Lock()
					o.Progress(d, n)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// cellStats is implemented by result types that can report the
// simulated measurement window and completed-operation count for the
// manifest. *workload.Result and *apps.RunResult implement it.
type cellStats interface {
	CellStats() (simTime sim.Time, ops uint64)
}

// FanoutKeyed runs f over every spec on the cell scheduler and returns
// the results in spec order; f receives the spec's index so it can
// derive per-cell seeds or fault targets. It is the harness's one
// fan-out entry point: figure values reach it through specCells, and
// probe runners that are not spec-shaped call it directly.
//
// key(spec) names the cell's full configuration (machine, thread count,
// primitive, every swept knob — anything that changes its result). The
// key is combined with the experiment ID and base options into a config
// key that addresses the manifest and the resume cache:
//
//   - with Options.Manifest set, every cell appends a structured record
//     (key, result digest, wall time, ops, error/panic);
//   - with Options.Cache set, a cell whose key is already cached
//     replays the stored result instead of re-simulating, and fresh
//     results are stored for the next run;
//   - with Options.Context set, a cell whose turn comes after the
//     context is done fails with a *CellCanceledError instead of
//     running, and is recorded in the manifest as canceled.
//
// Cached results must be substitutable for fresh ones, so when a cache
// is attached the fresh result is round-tripped through its JSON
// encoding and the re-encoding is required to be byte-identical; a
// result type that loses information in JSON is reported as an error
// rather than silently producing tables that a resumed run could not
// reproduce.
func FanoutKeyed[S, R any](o Options, specs []S, key func(spec S) string, f func(i int, spec S) (R, error)) ([]R, error) {
	out := make([]R, len(specs))
	err := runCells(o, len(specs), func(i int) error {
		start := time.Now()
		k := o.cellKey(key(specs[i]))

		// Cancellation is checked between cells, never inside one: a
		// canceled cell is recorded in the manifest (it has a key and a
		// canceled mark but no result) and fails the run like any other
		// cell error, which stops the scheduler from claiming more.
		if cerr := o.canceled(i); cerr != nil {
			o.recordCell(i, k, "", false, start, nil, cerr)
			return cerr
		}

		// Resume path: replay the cached result for this config key.
		if o.Cache != nil {
			if raw, digest, ok := o.Cache.Get(k); ok {
				if r, err := decodeResult[R](raw); err == nil {
					out[i] = r
					o.recordCell(i, k, digest, true, start, r, nil)
					return nil
				}
				// Undecodable entry (e.g. the result type changed):
				// fall through and recompute; Put below overwrites it.
			}
		}

		r, err := guardedCell(o, i, specs[i], f)
		if err != nil {
			o.recordCell(i, k, "", false, start, r, err)
			return err
		}

		digest := ""
		if o.Cache != nil || o.Manifest != nil {
			raw, merr := encodeResult(r)
			if merr != nil {
				return fmt.Errorf("cell %q: encoding result: %w", k, merr)
			}
			if o.Cache != nil {
				// Byte-exact round-trip check: decode the encoding and
				// re-encode. If information was lost, a resumed run
				// would render different tables — fail loudly instead.
				rt, uerr := decodeResult[R](raw)
				if uerr != nil {
					return fmt.Errorf("cell %q: result type %T does not decode from its own encoding: %w", k, r, uerr)
				}
				raw2, merr2 := encodeResult(rt)
				if merr2 != nil || !bytes.Equal(raw, raw2) {
					return fmt.Errorf("cell %q: result type %T does not survive a JSON round trip; "+
						"cached replays would diverge from fresh runs", k, r)
				}
				// Hand the decoded value to assembly so fresh-with-cache
				// and resumed runs consume identical inputs.
				r = rt
				if digest, err = o.Cache.Put(k, raw); err != nil {
					return fmt.Errorf("cell %q: caching result: %w", k, err)
				}
			} else {
				digest = runlog.Digest(raw)
			}
		}
		out[i] = r
		o.recordCell(i, k, digest, false, start, r, nil)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// resultCodec is a cell result type with its own JSON codec, called
// directly instead of through encoding/json: *workload.Result and
// *apps.RunResult. The codec is used only when R is a pointer type.
// Such a type's MarshalJSON must write compact JSON with its strings
// escaped as json.Marshal escapes them, and its UnmarshalJSON must
// accept any valid JSON value, as both codecs do.
type resultCodec interface {
	json.Marshaler
	json.Unmarshaler
}

// encodeResult returns json.Marshal(r). A resultCodec's MarshalJSON is
// called directly, which skips the pass in which json.Marshal compacts
// and HTML-escapes what MarshalJSON returns: that pass copies the
// codecs' output unchanged, since they write compact JSON with every
// string HTML-escaped. Other types go through json.Marshal.
func encodeResult[R any](r R) ([]byte, error) {
	if c, ok := codecOf(r); ok {
		return c.MarshalJSON()
	}
	return json.Marshal(r)
}

// decodeResult returns the R that json.Unmarshal decodes from raw. For
// a resultCodec it allocates the value and calls UnmarshalJSON
// directly, which skips json.Unmarshal's checkValid pass over raw and
// the skip pass that finds the value's end: every raw handed here is
// one valid JSON value with nothing around it, because Cache.replay
// admits a cached value only after json.Valid, and a fresh one is the
// codec's own output. null, which json.Unmarshal stores as a nil
// pointer without calling UnmarshalJSON, and other types go through
// json.Unmarshal.
func decodeResult[R any](raw []byte) (R, error) {
	var r R
	if _, ok := codecOf(r); ok && string(raw) != "null" {
		r = reflect.New(reflect.TypeOf(r).Elem()).Interface().(R)
		return r, any(r).(resultCodec).UnmarshalJSON(raw)
	}
	err := json.Unmarshal(raw, &r)
	return r, err
}

// codecOf returns r as a resultCodec if R is a pointer type that is
// one; r may be nil.
func codecOf[R any](r R) (resultCodec, bool) {
	c, ok := any(r).(resultCodec)
	return c, ok && reflect.TypeOf(r).Kind() == reflect.Pointer
}

// guardedCell runs f(i, spec) once with panic recovery and, when
// Options.CellTimeout is set, a wall-clock watchdog. Only the compute is
// guarded: manifest recording and cache writes happen after it returns,
// so a timed-out cell never leaves a half-written record. The
// scheduler-layer sleep fault (faults.Plan.CellSleep) fires inside the
// guarded region, which is how a hung cell is simulated against the
// watchdog in tests. On timeout the cell goroutine is abandoned; it holds no shared state
// (cells are isolated by construction) and its only write lands in a
// channel nobody reads.
func guardedCell[S, R any](o Options, i int, spec S, f func(i int, spec S) (R, error)) (R, error) {
	run := func() (r R, err error) {
		// Recover here as well as in runCells so the panic is attributed
		// to this cell's key in the manifest; runCells' own recover
		// guards the scheduler's bookkeeping around the compute (the key
		// function, result encoding, cache and manifest writes).
		defer func() {
			if p := recover(); p != nil {
				err = &CellPanicError{Cell: i, Value: p, Stack: string(debug.Stack())}
			}
		}()
		if d := o.Faults.CellSleep(i); d > 0 {
			time.Sleep(d)
		}
		return f(i, spec)
	}
	if o.CellTimeout <= 0 {
		return run()
	}
	type outcome struct {
		r   R
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		r, err := run()
		done <- outcome{r, err}
	}()
	timer := time.NewTimer(o.CellTimeout)
	defer timer.Stop()
	select {
	case out := <-done:
		return out.r, out.err
	case <-timer.C:
		var zero R
		return zero, &CellTimeoutError{Cell: i, Timeout: o.CellTimeout}
	}
}

// recordCell delivers one completed cell to the observability sinks:
// its metrics snapshot to the collector (if metrics are enabled and the
// result carries one) and a structured record to the manifest (if
// attached). Cached replays pass through here too, so a resumed run
// collects exactly the snapshots a fresh run would.
func (o Options) recordCell(i int, key, digest string, cached bool, start time.Time, result interface{}, err error) {
	if o.Metrics != nil && err == nil {
		if mp, ok := result.(cellMetricsProvider); ok {
			if snap := mp.MetricsSnapshot(); snap != nil {
				o.Metrics.record(CellMetrics{
					Exp:   o.Exp,
					Cell:  i,
					Key:   key,
					Label: o.metricsLabel(key),
					Snap:  snap,
				})
			}
		}
	}
	if o.Manifest == nil {
		return
	}
	rec := runlog.CellRecord{
		Exp:    o.Exp,
		Cell:   i,
		Key:    key,
		Digest: digest,
		Cached: cached,
		WallMS: float64(time.Since(start)) / float64(time.Millisecond),
	}
	if cs, ok := result.(cellStats); ok && err == nil {
		simTime, ops := cs.CellStats()
		rec.SimNS = simTime.Nanoseconds()
		rec.Ops = ops
	}
	if err != nil {
		rec.Error = err.Error()
		var pe *CellPanicError
		if errors.As(err, &pe) {
			rec.Panic = true
			rec.Stack = pe.Stack
		}
		var te *CellTimeoutError
		if errors.As(err, &te) {
			rec.TimedOut = true
		}
		var ce *CellCanceledError
		if errors.As(err, &ce) {
			rec.Canceled = true
		}
	}
	// Manifest write failures must not corrupt results; they surface
	// when the run summary is written at Close.
	_ = o.Manifest.Cell(rec)
}
