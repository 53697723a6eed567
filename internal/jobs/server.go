package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"atomicsmodel/internal/faults"
	"atomicsmodel/internal/harness"
	"atomicsmodel/internal/runlog"
)

// State is a job's lifecycle state. The state machine is
//
//	queued → running → done
//	                 ↘ failed → (resubmit) → queued
//
// and nothing else: done is immutable (content-addressed results never
// change), failed jobs may be resubmitted, and a daemon crash rewinds
// running jobs to queued on the next start (the journal has their
// submit record and no terminal record).
type State string

const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateDone    State = "done"
	StateFailed  State = "failed"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s == StateDone || s == StateFailed }

// Config tunes a Server. The zero value of every field gets a sane
// default from New.
type Config struct {
	// Dir is the daemon's run directory: the job journal (jobs.jsonl)
	// and the shared cell cache (cells.jsonl) live here. Required.
	Dir string
	// Workers is the job worker pool size (default 2). Each worker runs
	// one job at a time; cells inside a job parallelize up to CellPar.
	Workers int
	// QueueDepth bounds the number of admitted-but-unstarted jobs
	// (default 16). A full queue sheds new submissions with HTTP 429
	// rather than growing without bound.
	QueueDepth int
	// PerClient bounds one client's queued+running jobs (default 4), so
	// a single chatty client cannot monopolize the queue.
	PerClient int
	// JobDeadline bounds each job's wall-clock execution (default 10m);
	// a job may lower (never raise) it per request via DeadlineMS.
	JobDeadline time.Duration
	// JobRetries is how many times a failed job execution is retried
	// with capped exponential backoff and jitter before the job fails
	// terminally (default 1; negative means no retry). Deadline-exceeded
	// jobs never retry.
	JobRetries int
	// CellPar caps concurrent cells inside one job (default GOMAXPROCS,
	// via the harness).
	CellPar int
	// CellTimeout forwards to the harness cell watchdog (default: off).
	// A failed cell is not retried on its own: cells are deterministic,
	// so the same cell fails the same way again. JobRetries is the one
	// retry; it replays the cells the failed attempt finished from the
	// shared cell cache and computes only the rest.
	CellTimeout time.Duration
	// Faults arms the daemon fault hooks (crash-after-N-cells) and, when
	// simulation-layer faults are present, forwards them into cells —
	// which re-namespaces their cache keys exactly like the CLIs.
	Faults *faults.Plan
	// Log receives operational messages (default: discard).
	Log *log.Logger
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.PerClient <= 0 {
		c.PerClient = 4
	}
	if c.JobDeadline <= 0 {
		c.JobDeadline = 10 * time.Minute
	}
	if c.JobRetries < 0 {
		c.JobRetries = 0
	} else if c.JobRetries == 0 {
		c.JobRetries = 1
	}
	if c.Log == nil {
		c.Log = log.New(io.Discard, "", 0)
	}
	return c
}

// Status is a point-in-time snapshot of a job, also the JSON shape the
// HTTP API serves.
type Status struct {
	ID           string `json:"id"`
	State        State  `json:"state"`
	CellsDone    int    `json:"cellsDone"`
	CellsTotal   int    `json:"cellsTotal"`
	Attempt      int    `json:"attempt,omitempty"`
	ResultDigest string `json:"resultDigest,omitempty"`
	Error        string `json:"error,omitempty"`
}

// Stats are cumulative daemon counters, served by GET /healthz. The
// Cache* fields snapshot the shared cell cache's Get traffic
// (runlog.CacheStats): hits and misses across all jobs, and how many
// hits replayed cells persisted by an earlier daemon incarnation —
// the live view of crash-recovery effectiveness.
type Stats struct {
	Jobs          int    `json:"jobs"`
	Executed      uint64 `json:"executed"`
	Deduped       uint64 `json:"deduped"`
	Shed          uint64 `json:"shed"`
	CellsDone     uint64 `json:"cellsDone"`
	Recovered     int    `json:"recovered"`
	CacheHits     uint64 `json:"cacheHits"`
	CacheMisses   uint64 `json:"cacheMisses"`
	CacheReplayed uint64 `json:"cacheReplayed"`
}

// AdmissionError is a load-shedding rejection: the queue is full, the
// client is over its in-flight cap, or the daemon is draining. The
// HTTP layer maps it to 429/503 with a Retry-After.
type AdmissionError struct {
	// Draining distinguishes "shutting down" (503) from "overloaded"
	// (429).
	Draining bool
	// RetryAfter is the suggested client backoff.
	RetryAfter time.Duration
	msg        string
}

func (e *AdmissionError) Error() string { return e.msg }

// Server is the simulation job server: a bounded worker pool over the
// experiment harness, fronted by admission control and backed by the
// write-ahead job journal and the shared cell cache.
type Server struct {
	cfg     Config
	cache   *runlog.Cache
	journal *Journal

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string       // submission order, for deterministic listings
	inflight map[string]int // per-client queued+running jobs
	queue    chan *job
	draining bool

	workerWG  sync.WaitGroup
	jobWG     sync.WaitGroup
	cellsDone atomic.Uint64
	executed  atomic.Uint64
	deduped   atomic.Uint64
	shed      atomic.Uint64
	recovered int

	// exit is the daemon crash hook's exit function; tests may stub it.
	exit func(int)
}

// job is the server's internal job record.
type job struct {
	id     string
	spec   *Spec
	raw    json.RawMessage
	client string

	mu           sync.Mutex
	state        State
	errMsg       string
	attempt      int
	cellsDone    int
	cellsTotal   int
	resultDigest string
	done         chan struct{}
	subs         map[chan Status]struct{}
}

func newJob(id string, spec *Spec, raw json.RawMessage, client string) *job {
	return &job{
		id: id, spec: spec, raw: raw, client: client,
		state: StateQueued,
		done:  make(chan struct{}),
		subs:  map[chan Status]struct{}{},
	}
}

// status snapshots the job under its lock.
func (j *job) status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked()
}

func (j *job) statusLocked() Status {
	return Status{
		ID: j.id, State: j.state,
		CellsDone: j.cellsDone, CellsTotal: j.cellsTotal,
		Attempt: j.attempt, ResultDigest: j.resultDigest, Error: j.errMsg,
	}
}

// notifyLocked fans the current snapshot out to stream subscribers.
// Channels are buffered and stale progress is droppable, so a slow
// subscriber never blocks the simulation.
func (j *job) notifyLocked() {
	st := j.statusLocked()
	for ch := range j.subs {
		select {
		case ch <- st:
		default:
		}
	}
}

func (j *job) setState(s State) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = s
	j.notifyLocked()
}

func (j *job) setAttempt(n int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.attempt = n
	j.notifyLocked()
}

func (j *job) progress(done, total int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.cellsDone, j.cellsTotal = done, total
	j.notifyLocked()
}

// finish moves the job to a terminal state and wakes every waiter.
func (j *job) finish(s State, digest, errMsg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state, j.resultDigest, j.errMsg = s, digest, errMsg
	j.notifyLocked()
	close(j.done)
}

// rearm resets a failed job for resubmission by client with spec (the
// same ID, so only execution policy can differ from the failed run's).
func (j *job) rearm(client string, spec *Spec, raw json.RawMessage) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.client, j.spec, j.raw = client, spec, raw
	j.state, j.errMsg, j.resultDigest = StateQueued, "", ""
	j.attempt, j.cellsDone, j.cellsTotal = 0, 0, 0
	j.done = make(chan struct{})
	j.notifyLocked()
}

// subscribe registers a stream listener and returns its channel plus
// the current snapshot; unsubscribe with the returned func.
func (j *job) subscribe() (chan Status, Status, func()) {
	ch := make(chan Status, 16)
	j.mu.Lock()
	j.subs[ch] = struct{}{}
	st := j.statusLocked()
	j.mu.Unlock()
	return ch, st, func() {
		j.mu.Lock()
		delete(j.subs, ch)
		j.mu.Unlock()
	}
}

// doneCh returns the channel closed at the job's current incarnation's
// terminal transition.
func (j *job) doneCh() chan struct{} {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.done
}

// New opens (or recovers) the run directory and starts the worker
// pool. Opening takes the directory's cell-cache writer lock, so two
// daemons can never share a run directory; the loser gets the "locked
// by pid N" error. Jobs journaled as pending — queued or in flight
// when the previous process died — are re-enqueued before the first
// request is served, and a done job whose cached result was lost or
// quarantined is re-enqueued too (quarantine-and-recompute at the job
// level).
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, fmt.Errorf("jobs: Config.Dir is required")
	}
	cache, err := runlog.OpenCache(cfg.Dir)
	if err != nil {
		return nil, err
	}
	journal, recoveredJobs, quarantined, err := OpenJournal(cfg.Dir)
	if err != nil {
		cache.Close()
		return nil, err
	}
	for _, q := range cache.Quarantined() {
		cfg.Log.Printf("quarantined cells.jsonl line %d: %s", q.Line, q.Reason)
	}
	for _, q := range quarantined {
		cfg.Log.Printf("quarantined jobs.jsonl line %d: %s", q.Line, q.Reason)
	}

	var pending []*job
	s := &Server{
		cfg: cfg, cache: cache, journal: journal,
		jobs:     map[string]*job{},
		inflight: map[string]int{},
		exit:     os.Exit,
	}
	for _, r := range recoveredJobs {
		j := newJob(r.ID, r.Spec, r.Raw, "")
		switch r.State {
		case StateDone:
			// Trust the journal only as far as the cache backs it up:
			// the result must still be present and uncorrupted (the
			// cache loader already quarantined bad lines). A missing
			// result means recompute, not a 500 at serve time.
			if _, _, ok := cache.Get(resultKey(r.ID)); ok {
				j.state, j.resultDigest = StateDone, r.ResultDigest
				close(j.done)
			} else {
				cfg.Log.Printf("job %s journaled done but its result is gone from the cache; recomputing", r.ID)
				pending = append(pending, j)
			}
		case StateFailed:
			j.state, j.errMsg = StateFailed, r.Error
			close(j.done)
		default:
			pending = append(pending, j)
		}
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
	}
	s.recovered = len(pending)

	// The queue must absorb every recovered job plus a full admission
	// window; recovery must never shed journaled work.
	depth := cfg.QueueDepth
	if depth < len(pending) {
		depth = len(pending)
	}
	s.queue = make(chan *job, depth)
	for _, j := range pending {
		s.jobWG.Add(1)
		s.queue <- j
		cfg.Log.Printf("recovered job %s (re-queued)", j.id)
	}

	for w := 0; w < cfg.Workers; w++ {
		s.workerWG.Add(1)
		go func() {
			defer s.workerWG.Done()
			for j := range s.queue {
				s.runJob(j)
			}
		}()
	}
	return s, nil
}

// Recovered returns how many journaled jobs were re-enqueued at open.
func (s *Server) Recovered() int { return s.recovered }

// Stats snapshots the daemon counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	n := len(s.jobs)
	s.mu.Unlock()
	cs := s.cache.Stats()
	return Stats{
		Jobs:          n,
		Executed:      s.executed.Load(),
		Deduped:       s.deduped.Load(),
		Shed:          s.shed.Load(),
		CellsDone:     s.cellsDone.Load(),
		Recovered:     s.recovered,
		CacheHits:     cs.Hits,
		CacheMisses:   cs.Misses,
		CacheReplayed: cs.Replayed,
	}
}

// resultKey is the shared-cache key holding a job's rendered result.
// Job results live in the same content-addressed store as cells, so
// they inherit its durability, digest verification, and quarantine.
func resultKey(id string) string { return "job/" + id }

// jobResult is the cached result payload.
type jobResult struct {
	// Text is the job's rendered tables, byte-identical across any
	// interleaving of crashes, restarts, and cache replays.
	Text string `json:"text"`
}

// Submit admits one job request for client. It returns the job (new,
// deduplicated, or resubmitted) and true when the caller should treat
// it as newly admitted (HTTP 202 vs 200). Admission can fail with
// *AdmissionError (shed load / draining) or a spec error.
func (s *Server) Submit(client string, body []byte) (*job, bool, error) {
	spec, err := ParseSpec(body)
	if err != nil {
		return nil, false, err
	}
	id, err := spec.ID()
	if err != nil {
		return nil, false, err
	}
	// Canonical journaled form: the parsed spec re-marshaled, so the
	// journal never stores request noise (whitespace, field order).
	raw, err := json.Marshal(spec)
	if err != nil {
		return nil, false, err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.shed.Add(1)
		return nil, false, &AdmissionError{Draining: true, RetryAfter: 5 * time.Second,
			msg: "daemon is draining; submit to the next instance"}
	}
	if j, ok := s.jobs[id]; ok {
		st := j.status()
		if st.State != StateFailed {
			// Deduplicated: same content-addressed job, whether done
			// (serve the cached result) or still in flight (share it).
			s.deduped.Add(1)
			return j, false, nil
		}
		// Resubmission of a failed job: re-run it, subject to the same
		// admission control as a fresh submit, under this request's
		// execution policy (its deadline), which the ID leaves out.
		if err := s.admitLocked(client); err != nil {
			return nil, false, err
		}
		if err := s.journal.Submit(id, raw); err != nil {
			s.unadmitLocked(client)
			return nil, false, fmt.Errorf("jobs: journaling resubmit: %w", err)
		}
		j.rearm(client, spec, raw)
		s.jobWG.Add(1)
		s.queue <- j
		return j, true, nil
	}

	if err := s.admitLocked(client); err != nil {
		return nil, false, err
	}
	j := newJob(id, spec, raw, client)
	// Write-ahead: the journal record lands before the job is visible
	// anywhere — if the daemon dies right here, the next start re-runs
	// the job; it can never be half-admitted.
	if err := s.journal.Submit(id, raw); err != nil {
		s.unadmitLocked(client)
		return nil, false, fmt.Errorf("jobs: journaling submit: %w", err)
	}
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.jobWG.Add(1)
	s.queue <- j
	return j, true, nil
}

// admitLocked enforces load shedding; callers hold s.mu. The queue
// reservation is sound because every sender holds s.mu: len(queue) can
// only shrink concurrently (workers receive), never grow.
func (s *Server) admitLocked(client string) error {
	if s.inflight[client] >= s.cfg.PerClient {
		s.shed.Add(1)
		return &AdmissionError{RetryAfter: 2 * time.Second,
			msg: fmt.Sprintf("client has %d jobs in flight (cap %d)", s.inflight[client], s.cfg.PerClient)}
	}
	if len(s.queue) >= s.cfg.QueueDepth {
		s.shed.Add(1)
		return &AdmissionError{RetryAfter: 2 * time.Second,
			msg: fmt.Sprintf("job queue is full (%d queued)", len(s.queue))}
	}
	s.inflight[client]++
	return nil
}

func (s *Server) unadmitLocked(client string) {
	if s.inflight[client] > 0 {
		s.inflight[client]--
	}
}

// Get returns the job with the given ID.
func (s *Server) Get(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// List snapshots every job in submission order.
func (s *Server) List() []Status {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	jobs := make([]*job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]Status, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.status())
	}
	return out
}

// Result returns a done job's rendered tables from the shared cache.
func (s *Server) Result(id string) ([]byte, error) {
	raw, _, ok := s.cache.Get(resultKey(id))
	if !ok {
		return nil, fmt.Errorf("jobs: result for %s is not in the cache (corrupted and quarantined?); resubmit to recompute", id)
	}
	var r jobResult
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("jobs: decoding cached result for %s: %w", id, err)
	}
	return []byte(r.Text), nil
}

// Draining reports whether the server has stopped admitting jobs.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// retryBackoff computes the sleep before retry attempt k (1-based):
// exponential backoff capped at 5 s, with equal jitter (a uniform draw
// from the upper half of the step), so a burst of failed jobs does not
// retry in lockstep and no sleep passes the cap. Wall-clock policy
// only — it can never affect results.
func retryBackoff(attempt int) time.Duration {
	const (
		base = 100 * time.Millisecond
		cap  = 5 * time.Second
	)
	d := base << uint(attempt-1)
	if d > cap || d <= 0 {
		d = cap
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// runJob executes one job under the full robustness stack: per-job
// deadline, capped backoff-with-jitter retries, and panic isolation.
// Terminal states are journaled before they are announced.
func (s *Server) runJob(j *job) {
	defer s.jobWG.Done()
	defer func() {
		s.mu.Lock()
		s.unadmitLocked(j.client)
		s.mu.Unlock()
	}()

	j.setState(StateRunning)
	deadline := s.cfg.JobDeadline
	if ms := j.spec.DeadlineMS; ms > 0 && time.Duration(ms)*time.Millisecond < deadline {
		deadline = time.Duration(ms) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()

	var lastErr error
	for attempt := 1; attempt <= 1+s.cfg.JobRetries; attempt++ {
		if attempt > 1 {
			time.Sleep(retryBackoff(attempt - 1))
			if ctx.Err() != nil {
				break
			}
			s.cfg.Log.Printf("job %s: retrying (attempt %d): %v", j.id, attempt, lastErr)
		}
		j.setAttempt(attempt)
		text, err := s.executeOnce(ctx, j)
		if err == nil {
			digest, perr := s.storeResult(j.id, text)
			if perr != nil {
				lastErr = perr
				continue
			}
			if jerr := s.journal.Done(j.id, digest); jerr != nil {
				s.cfg.Log.Printf("job %s: journaling done: %v", j.id, jerr)
			}
			j.finish(StateDone, digest, "")
			s.cfg.Log.Printf("job %s: done (result %s)", j.id, digest)
			return
		}
		lastErr = err
		if ctx.Err() != nil {
			// The deadline ate the attempt; retrying would just burn
			// the backoff against a dead clock.
			break
		}
	}

	msg := "job failed: " + lastErr.Error()
	switch {
	case errors.Is(lastErr, context.DeadlineExceeded):
		msg = fmt.Sprintf("job deadline exceeded (%v)", deadline)
	case errors.Is(lastErr, context.Canceled):
		msg = "job canceled"
	}
	if jerr := s.journal.Failed(j.id, msg); jerr != nil {
		s.cfg.Log.Printf("job %s: journaling failure: %v", j.id, jerr)
	}
	j.finish(StateFailed, "", msg)
	s.cfg.Log.Printf("job %s: failed: %s", j.id, msg)
}

// executeOnce runs the job's experiment once and renders its tables.
// Panics — whether from a cell (already converted by the harness) or
// from table assembly — are isolated to this job: the daemon survives
// a poisoned request.
func (s *Server) executeOnce(ctx context.Context, j *job) (text []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("job panicked: %v\n%s", r, debug.Stack())
		}
	}()
	res, err := j.spec.Resolve()
	if err != nil {
		return nil, err
	}
	s.executed.Add(1)

	o := harness.Options{
		Machines:    res.Machines,
		Quick:       j.spec.Quick,
		Seed:        res.Seed,
		Par:         s.cfg.CellPar,
		Cache:       s.cache,
		Check:       j.spec.Check,
		Context:     ctx,
		CellTimeout: s.cfg.CellTimeout,
		Faults:      s.cfg.Faults.CellLayer(),
		Progress: func(done, total int) {
			j.progress(done, total)
			n := s.cellsDone.Add(1)
			if s.cfg.Faults.ShouldCrash(n) {
				// The armed crash hook: SIGKILL semantics at a
				// deterministic point. No drain, no journal terminal
				// record, no cache write beyond the per-Put writes
				// that already happened — exactly what recovery must
				// survive.
				s.cfg.Log.Printf("faults: daemon crash hook firing after %d cells", n)
				s.exit(3)
			}
		},
	}
	if j.spec.Metrics {
		o.Metrics = &harness.MetricsCollector{}
	}

	// A job may carry workloads (the W suite or a fleet sweep), app
	// specs (the A suite), or both; both suites share the job's cell
	// cache and progress stream.
	var exps []*harness.Experiment
	if j.spec.Fleet {
		exps = append(exps, harness.FleetExperiment(res.Specs, res.Knee))
	} else if len(res.Specs) > 0 {
		exps = append(exps, harness.WorkloadExperiment(res.Specs))
	}
	if len(res.AppSpecs) > 0 {
		exps = append(exps, harness.AppExperiment(res.AppSpecs))
	}
	var tables []*harness.Table
	for _, exp := range exps {
		ts, err := harness.RunExperiment(exp, o)
		if err != nil {
			return nil, err
		}
		tables = append(tables, ts...)
	}

	var buf bytes.Buffer
	for _, t := range tables {
		if err := t.Render(&buf); err != nil {
			return nil, err
		}
		buf.WriteByte('\n')
	}
	if o.Metrics != nil {
		for _, t := range o.Metrics.Tables() {
			if err := t.Render(&buf); err != nil {
				return nil, err
			}
			buf.WriteByte('\n')
		}
	}
	return buf.Bytes(), nil
}

// storeResult writes the rendered result into the shared cache, where
// it is content-addressed, digest-verified on every load, and
// quarantined instead of trusted if it ever rots.
func (s *Server) storeResult(id string, text []byte) (string, error) {
	raw, err := json.Marshal(jobResult{Text: string(text)})
	if err != nil {
		return "", err
	}
	return s.cache.Put(resultKey(id), raw)
}

// Drain performs the graceful shutdown: stop admitting, let every
// accepted job finish (each is journaled, so even a drain cut short by
// ctx loses nothing — unfinished jobs recover on the next start), then
// stop the workers and close the journal and cache. Returns
// ctx.Err() when the deadline cut the drain short.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	alreadyDraining := s.draining
	s.draining = true
	s.mu.Unlock()
	if alreadyDraining {
		return fmt.Errorf("jobs: already draining")
	}

	finished := make(chan struct{})
	go func() {
		s.jobWG.Wait()
		close(finished)
	}()
	var drainErr error
	select {
	case <-finished:
		// All accepted jobs reached a terminal state: the journal has
		// no pending entries left.
		close(s.queue)
		s.workerWG.Wait()
	case <-ctx.Done():
		// Cut short: in-flight jobs stay journaled as pending and will
		// recover on the next start. Workers are abandoned (the
		// process is exiting).
		drainErr = ctx.Err()
	}
	// Journal first: the cache's Close drops the directory lock.
	if err := s.journal.Close(); err != nil && drainErr == nil {
		drainErr = err
	}
	if err := s.cache.Close(); err != nil && drainErr == nil {
		drainErr = err
	}
	return drainErr
}
