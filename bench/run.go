package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"atomicsmodel/internal/stats"
)

// run is one child process's workload run: the operation clock, the
// latencies and failures it collected, the host-speed calibrations
// taken between operations, the correctness problems it found, and
// (traced runs) its spans and layer metrics.
type run struct {
	seed   uint64
	smoke  bool
	dir    string        // scratch directory, removed when the child exits
	budget time.Duration // how long the measured window lasts
	tr     *tracer       // nil when untraced

	// maxOps, when positive, caps the operations of the measured
	// window instead of the budget (smoke runs).
	maxOps int

	windowStart time.Time

	// gate is held shared by every client between checkpoints and
	// exclusively by a calibration, which so runs on an idle process.
	gate    sync.RWMutex
	lastCal atomic.Int64 // unix nanoseconds of the latest calibration
	cals    []calibration

	mu       sync.Mutex
	ops      []opTime
	latMS    []float64 // operation latencies as measured, set by finish
	rssKB    []float64 // resident memory at each of the first rssOps completions
	failed   int
	problems []string
	digest   string
	layer    map[string]float64
}

// opTime is one finished operation: when it ran and how long it took.
type opTime struct {
	start, end time.Time
}

// rssOps is how many operations a run samples its resident memory
// after. atomicd keeps every finished job's cells in memory, so its
// memory grows with the jobs it completes; sampling a fixed number of
// operations, not a fixed time, keeps the metric comparable when
// throughput changes.
const rssOps = 100

// startWindow opens the measured window: the budget starts here,
// after any warm-up the workload needs, with a first calibration.
func (r *run) startWindow() {
	r.windowStart = time.Now()
	r.calibrate(0)
}

// enter and leave bracket a client's loop: between them the client
// holds the run open, and lets a calibration in only at checkpoints.
func (r *run) enter() { r.gate.RLock() }
func (r *run) leave() { r.gate.RUnlock() }

// checkpoint is a client's pause at a point where it runs nothing:
// once a calibration is due, the first client to get here waits for
// every other client to reach a checkpoint too, times the reference
// kernel on the idle process, and lets them all go on. parent is the
// span the calibration's span belongs to in a trace.
func (r *run) checkpoint(parent int) {
	if !r.calibrationDue() {
		return
	}
	r.gate.RUnlock()
	r.gate.Lock()
	if r.calibrationDue() {
		r.calibrate(parent)
	}
	r.gate.Unlock()
	r.gate.RLock()
}

func (r *run) calibrationDue() bool {
	return time.Since(time.Unix(0, r.lastCal.Load())) >= refEvery
}

// calibrate times the reference kernel; its time is left out of the
// window. Callers hold the gate exclusively, or call before any client
// entered or after all left.
func (r *run) calibrate(parent int) {
	start := time.Now()
	ref := refKernel()
	end := time.Now()
	r.tr.add("bench", "calibrate", "main", parent, start, end)
	r.cals = append(r.cals, calibration{start: start, end: end, refMS: ref})
	r.lastCal.Store(end.UnixNano())
}

// more reports whether a client that has finished k operations should
// start another, with clients sharing the operation cap of a smoke
// run. The first operation always runs.
func (r *run) more(k, clients int) bool {
	if r.maxOps > 0 {
		return k < max(1, r.maxOps/clients)
	}
	return k == 0 || time.Since(r.windowStart) < r.budget
}

// done records one finished operation: its latency, or a failure.
func (r *run) done(start time.Time, err error) {
	end := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil {
		r.failed++
		r.problems = append(r.problems, err.Error())
		return
	}
	r.ops = append(r.ops, opTime{start, end})
	if len(r.rssKB) < rssOps {
		r.rssKB = append(r.rssKB, float64(currentRSSKB()))
	}
}

// problem records a failed correctness check.
func (r *run) problem(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// setLayer records a per-layer metric (traced runs only).
func (r *run) setLayer(name string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.layer == nil {
		r.layer = map[string]float64{}
	}
	r.layer[name] = v
}

// report is what a child sends its parent as the last line of its
// standard output. Times come in two forms: as measured (Raw*) and
// scaled to the nominal host speed (see ref.go).
type report struct {
	OpsMS      []float64          `json:"ops_ms"`
	RawOpsMS   []float64          `json:"raw_ops_ms"`
	WindowS    float64            `json:"window_s"`
	RawWindowS float64            `json:"raw_window_s"`
	RefMS      []float64          `json:"ref_ms"`
	RSSMB      float64            `json:"rss_mb"`
	Failed     int                `json:"failed"`
	Problems   []string           `json:"problems,omitempty"`
	Digest     string             `json:"digest"`
	Layer      map[string]float64 `json:"layer,omitempty"`
	TraceFile  string             `json:"trace_file,omitempty"`
}

// finish closes the measured window with a last calibration and
// reports its operations; the checks that follow add problems, the
// digest and layer metrics.
func (r *run) finish() report {
	r.calibrate(0)
	r.mu.Lock()
	defer r.mu.Unlock()
	rep := report{Failed: r.failed, RSSMB: stats.Mean(r.rssKB) / 1024}
	for _, op := range r.ops {
		raw, nominal := activeSpan(r.cals, op.start, op.end)
		rep.RawOpsMS = append(rep.RawOpsMS, raw)
		rep.OpsMS = append(rep.OpsMS, nominal)
	}
	r.latMS = rep.RawOpsMS
	for _, c := range r.cals {
		rep.RefMS = append(rep.RefMS, c.refMS)
	}
	raw, nominal := activeSpan(r.cals, r.cals[0].start, r.cals[len(r.cals)-1].end)
	rep.RawWindowS, rep.WindowS = raw/1000, nominal/1000
	return rep
}

// currentRSSKB is the process's resident memory now, in kilobytes, from
// /proc/self/statm (0 where that file does not exist).
func currentRSSKB() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize()) / 1024
}

// digestOf is the sha256 of the concatenated parts, the form the golden
// files store.
func digestOf(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// digestPairs digests (id, payload) pairs in id order, so the digest
// does not depend on the order in which concurrent clients finished.
func digestPairs(pairs map[string][]byte) string {
	ids := make([]string, 0, len(pairs))
	for id := range pairs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var parts [][]byte
	for _, id := range ids {
		parts = append(parts, []byte(id+"\n"), pairs[id], []byte("\n"))
	}
	return digestOf(parts...)
}
