package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"atomicsmodel/internal/faults"
)

// quickSpec is the cheapest real job: one workload, one machine,
// trimmed sweeps. Tests that execute jobs use it to keep the package
// under a few seconds.
const quickSpec = `{"machines":["XeonE5"],"workloads":["high-faa"],"quick":true}`

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

func drain(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

func submit(t *testing.T, ts *httptest.Server, body string) (Status, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /jobs: %v", err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	var st Status
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(b, &st); err != nil {
			t.Fatalf("decoding submit response %q: %v", b, err)
		}
	}
	return st, resp.StatusCode
}

func waitDone(t *testing.T, ts *httptest.Server, id string) Status {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id + "?wait=60s")
	if err != nil {
		t.Fatalf("GET /jobs/%s: %v", id, err)
	}
	defer resp.Body.Close()
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding status: %v", err)
	}
	if !st.State.Terminal() {
		t.Fatalf("job %s still %s after wait", id, st.State)
	}
	return st
}

func getResult(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id + "/result")
	if err != nil {
		t.Fatalf("GET result: %v", err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET result = %d: %s", resp.StatusCode, b)
	}
	return b
}

func TestServerSubmitRunResult(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer drain(t, s)

	st, code := submit(t, ts, quickSpec)
	if code != http.StatusAccepted {
		t.Fatalf("first submit = %d, want 202", code)
	}
	done := waitDone(t, ts, st.ID)
	if done.State != StateDone {
		t.Fatalf("job = %+v, want done", done)
	}
	if done.CellsDone == 0 || done.CellsDone != done.CellsTotal {
		t.Errorf("cells %d/%d, want all done", done.CellsDone, done.CellsTotal)
	}
	text := getResult(t, ts, st.ID)
	if !bytes.Contains(text, []byte("high-faa")) || !bytes.Contains(text, []byte("threads")) {
		t.Errorf("result does not look like a rendered table:\n%s", text)
	}

	// Same content → same job: the resubmit deduplicates (200, same
	// ID) and serves the identical cached result without re-running.
	st2, code2 := submit(t, ts, quickSpec)
	if code2 != http.StatusOK || st2.ID != st.ID {
		t.Fatalf("dup submit = (%d, %s), want (200, %s)", code2, st2.ID, st.ID)
	}
	if got := s.Stats(); got.Deduped == 0 || got.Executed != 1 {
		t.Errorf("stats = %+v, want 1 execution and a dedup hit", got)
	}
	if text2 := getResult(t, ts, st.ID); !bytes.Equal(text, text2) {
		t.Errorf("deduplicated result differs from the original")
	}
}

func TestServerAdmissionControl(t *testing.T) {
	// Pure admission-logic test: no workers involved, so it is exactly
	// deterministic. admitLocked sees a full queue and a capped client.
	s := &Server{
		cfg:      Config{QueueDepth: 2, PerClient: 1}.withDefaults(),
		inflight: map[string]int{},
		queue:    make(chan *job, 2),
	}
	if err := s.admitLocked("alice"); err != nil {
		t.Fatalf("first admit: %v", err)
	}
	err := s.admitLocked("alice")
	var adm *AdmissionError
	if !asAdmission(err, &adm) || !strings.Contains(err.Error(), "in flight") {
		t.Fatalf("over-cap admit = %v, want per-client AdmissionError", err)
	}
	if adm.RetryAfter <= 0 {
		t.Errorf("AdmissionError.RetryAfter = %v, want > 0", adm.RetryAfter)
	}

	s.queue <- &job{}
	s.queue <- &job{}
	if err := s.admitLocked("bob"); !asAdmission(err, &adm) || !strings.Contains(err.Error(), "queue is full") {
		t.Fatalf("full-queue admit = %v, want queue-full AdmissionError", err)
	}
	if got := s.shed.Load(); got != 2 {
		t.Errorf("shed counter = %d, want 2", got)
	}

	s.unadmitLocked("alice")
	if s.inflight["alice"] != 0 {
		t.Errorf("inflight after unadmit = %d, want 0", s.inflight["alice"])
	}
}

func asAdmission(err error, target **AdmissionError) bool {
	a, ok := err.(*AdmissionError)
	if ok {
		*target = a
	}
	return ok
}

func TestServerShedsUnderLoad(t *testing.T) {
	// End-to-end overload: one worker pinned by a slow job (every cell
	// sleeps), a one-deep queue, and a burst of distinct submits. The
	// burst must be shed with 429 + Retry-After, not queued without
	// bound, and the daemon must stay responsive throughout.
	plan, err := faults.Parse("sleep=300ms@0")
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 1, PerClient: 100, Faults: plan, JobRetries: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer drain(t, s)

	if _, code := submit(t, ts, quickSpec); code != http.StatusAccepted {
		t.Fatalf("job A = %d, want 202", code)
	}
	// Distinct specs (different seeds) → distinct jobs. One fills the
	// queue; with the worker busy, at least one later submit must shed.
	var shed int
	for seed := 2; seed < 8; seed++ {
		body := fmt.Sprintf(`{"machines":["XeonE5"],"workloads":["high-faa"],"quick":true,"seed":%d}`, seed)
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			shed++
			if resp.Header.Get("Retry-After") == "" {
				t.Error("429 without Retry-After")
			}
		}
		resp.Body.Close()
	}
	if shed == 0 {
		t.Fatal("no submit shed despite a pinned worker and a full queue")
	}
	// Shed load is not an outage: health stays served.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz during overload: %v %v", resp, err)
	}
	resp.Body.Close()
}

func TestServerDeadlineThenResubmit(t *testing.T) {
	// A 1ms deadline kills the job (deadline errors never retry); the
	// job fails terminally. Resubmitting the same content without the
	// deadline re-arms the same job ID and succeeds — the failed →
	// queued edge of the state machine. Cell 0 sleeps past the deadline
	// and cells run one at a time, so the remaining cells always see
	// the expired context at claim time.
	plan, err := faults.Parse("sleep=50ms@0")
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{CellPar: 1, Faults: plan})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer drain(t, s)

	st, code := submit(t, ts, `{"machines":["XeonE5"],"workloads":["high-faa"],"quick":true,"deadlineMS":1}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	failed := waitDone(t, ts, st.ID)
	if failed.State != StateFailed || !strings.Contains(failed.Error, "deadline") {
		t.Fatalf("job = %+v, want a deadline failure", failed)
	}

	st2, code2 := submit(t, ts, quickSpec)
	if st2.ID != st.ID {
		t.Fatalf("resubmit got job %s, want the same content-addressed %s", st2.ID, st.ID)
	}
	if code2 != http.StatusAccepted {
		t.Fatalf("resubmit of a failed job = %d, want 202 (re-admitted)", code2)
	}
	if done := waitDone(t, ts, st.ID); done.State != StateDone {
		t.Fatalf("resubmitted job = %+v, want done", done)
	}
}

func TestServerPanicIsolation(t *testing.T) {
	// A poisoned request (cells panic deterministically) fails its own
	// job; the daemon survives and runs the next job normally.
	plan, err := faults.Parse("panic=1@0")
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Faults: plan, JobRetries: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer drain(t, s)

	st, _ := submit(t, ts, quickSpec)
	failed := waitDone(t, ts, st.ID)
	if failed.State != StateFailed {
		t.Fatalf("poisoned job = %+v, want failed", failed)
	}
	if !strings.Contains(failed.Error, "panic") {
		t.Errorf("failure %q does not name the panic", failed.Error)
	}
	// Daemon is still alive and serving.
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz after a poisoned job: %v %v", resp, err)
	}
	resp.Body.Close()
}

// TestServerJobRetries runs a job whose first cell always panics
// through the job retry loop: with retries off it fails on its first
// attempt, with one retry on its second.
func TestServerJobRetries(t *testing.T) {
	plan, err := faults.Parse("panic=1@0")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ retries, attempts int }{{-1, 1}, {1, 2}} {
		s := newTestServer(t, Config{Faults: plan, JobRetries: c.retries})
		ts := httptest.NewServer(s.Handler())
		st, _ := submit(t, ts, quickSpec)
		got := waitDone(t, ts, st.ID)
		if got.State != StateFailed || got.Attempt != c.attempts {
			t.Errorf("JobRetries %d: job ended %s on attempt %d, want failed on attempt %d",
				c.retries, got.State, got.Attempt, c.attempts)
		}
		ts.Close()
		drain(t, s)
	}
}

// TestServerJobRetryReplaysFinishedCells: a job retry recomputes only
// what its failed attempt did not finish. With one cell worker, the
// first attempt finishes cells 0..k-1 and panics at cell k; the retry
// replays those k cells from the shared cell cache (exactly k hits)
// and fails at cell k again, since a cell fails the same way each run.
func TestServerJobRetryReplaysFinishedCells(t *testing.T) {
	const k = 2
	plan, err := faults.Parse(fmt.Sprintf("panic=1@%d", k))
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Faults: plan, JobRetries: 1, CellPar: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	before := s.Stats().CacheHits
	st, _ := submit(t, ts, quickSpec)
	got := waitDone(t, ts, st.ID)
	if got.State != StateFailed || got.Attempt != 2 {
		t.Fatalf("job ended %s on attempt %d, want failed on attempt 2", got.State, got.Attempt)
	}
	if !strings.Contains(got.Error, fmt.Sprintf("cell %d panicked", k)) || got.CellsTotal <= k {
		t.Fatalf("job error %q over %d cells, want cell %d's injected panic", got.Error, got.CellsTotal, k)
	}
	if hits := s.Stats().CacheHits - before; hits != k {
		t.Errorf("retry replayed %d cached cells, want the %d its first attempt finished", hits, k)
	}
	drain(t, s)
}

func TestServerDrainRejectsAndReadyzFlips(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	drain(t, s)
	if !s.Draining() {
		t.Fatal("Draining() = false after Drain")
	}
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining = %d, want 503", resp.StatusCode)
	}
	_, code := submit(t, ts, quickSpec)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining = %d, want 503", code)
	}
}

func TestServerRecoversPendingJob(t *testing.T) {
	// A job journaled as submitted but never finished — the daemon died
	// with it queued or running — must re-run on the next start and
	// complete without a client resubmitting it.
	dir := t.TempDir()
	spec, err := ParseSpec([]byte(quickSpec))
	if err != nil {
		t.Fatal(err)
	}
	id, err := spec.ID()
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := json.Marshal(spec)
	jr, _, _ := openForTest(t, dir)
	if err := jr.Submit(id, raw); err != nil {
		t.Fatal(err)
	}
	jr.Close()

	s := newTestServer(t, Config{Dir: dir})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer drain(t, s)
	if s.Recovered() != 1 {
		t.Fatalf("Recovered() = %d, want 1", s.Recovered())
	}
	if done := waitDone(t, ts, id); done.State != StateDone {
		t.Fatalf("recovered job = %+v, want done", done)
	}
	if out, err := ValidateJournal(dir); err != nil || !strings.Contains(out, "1 done, 0 failed, 0 pending") {
		t.Fatalf("journal after recovery: %q, %v", out, err)
	}
}

func TestServerQuarantineAndRecompute(t *testing.T) {
	// Job-level quarantine-and-recompute: run a job to done, drain,
	// then rot its cached result on disk. The restarted daemon finds
	// the done record but no trustworthy result, re-queues the job, and
	// recomputes a byte-identical answer (the cells replay clean from
	// the same cache file).
	dir := t.TempDir()
	s := newTestServer(t, Config{Dir: dir})
	ts := httptest.NewServer(s.Handler())
	st, _ := submit(t, ts, quickSpec)
	waitDone(t, ts, st.ID)
	text1 := getResult(t, ts, st.ID)
	ts.Close()
	drain(t, s)

	cells := filepath.Join(dir, "cells.jsonl")
	line := findLine(t, cells, `"key":"job/`)
	if err := faults.FlipPayloadByte(cells, line); err != nil {
		t.Fatal(err)
	}

	s2 := newTestServer(t, Config{Dir: dir})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	defer drain(t, s2)
	if s2.Recovered() != 1 {
		t.Fatalf("Recovered() = %d, want 1 (corrupt result must recompute)", s2.Recovered())
	}
	if done := waitDone(t, ts2, st.ID); done.State != StateDone {
		t.Fatalf("recomputed job = %+v", done)
	}
	if text2 := getResult(t, ts2, st.ID); !bytes.Equal(text1, text2) {
		t.Errorf("recomputed result differs from the original:\n--- first\n%s\n--- second\n%s", text1, text2)
	}
	if got := s2.Stats(); got.Executed != 1 {
		t.Errorf("recompute executed %d jobs, want 1", got.Executed)
	}
}

// findLine returns the 1-based number of the first line in path
// containing substr.
func findLine(t *testing.T, path, substr string) int {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(string(b), "\n") {
		if strings.Contains(line, substr) {
			return i + 1
		}
	}
	t.Fatalf("%s has no line containing %q", path, substr)
	return 0
}

func TestServerStream(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer drain(t, s)

	st, _ := submit(t, ts, quickSpec)
	resp, err := http.Get(ts.URL + "/jobs/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream content type = %q", ct)
	}
	dec := json.NewDecoder(resp.Body)
	var events []Status
	for {
		var ev Status
		if err := dec.Decode(&ev); err != nil {
			t.Fatalf("stream ended without a terminal event (after %d events): %v", len(events), err)
		}
		events = append(events, ev)
		if ev.State.Terminal() {
			break
		}
	}
	last := events[len(events)-1]
	if last.State != StateDone {
		t.Fatalf("terminal stream event = %+v", last)
	}
	// io.EOF follows the terminal event: the server closed the stream.
	var extra Status
	if err := dec.Decode(&extra); err != io.EOF {
		t.Fatalf("after terminal event: (%+v, %v), want EOF", extra, err)
	}
}

func TestServerHTTPValidation(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer drain(t, s)

	cases := []struct {
		name, method, path, body string
		want                     int
	}{
		{"bad spec", "POST", "/jobs", `{"bogus":1}`, http.StatusBadRequest},
		{"no workloads", "POST", "/jobs", `{"quick":true}`, http.StatusBadRequest},
		{"unknown job", "GET", "/jobs/jdeadbeef", "", http.StatusNotFound},
		{"unknown result", "GET", "/jobs/jdeadbeef/result", "", http.StatusNotFound},
		{"unknown stream", "GET", "/jobs/jdeadbeef/stream", "", http.StatusNotFound},
		{"oversize spec", "POST", "/jobs", `{"workloads":["` + strings.Repeat("x", maxSpecBytes) + `"]}`, http.StatusRequestEntityTooLarge},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			req, _ := http.NewRequest(c.method, ts.URL+c.path, strings.NewReader(c.body))
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != c.want {
				t.Fatalf("%s %s = %d, want %d", c.method, c.path, resp.StatusCode, c.want)
			}
		})
	}
}

func TestRetryBackoffBounded(t *testing.T) {
	for attempt := 1; attempt < 20; attempt++ {
		d := retryBackoff(attempt)
		if d <= 0 || d > 5*time.Second {
			t.Fatalf("retryBackoff(%d) = %v, want a bounded positive delay", attempt, d)
		}
	}
}
