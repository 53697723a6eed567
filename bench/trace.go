package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval around a call into a layer. Spans are kept
// in memory and written once, when the traced run ends.
type span struct {
	id, parent int
	cat, name  string
	track      string
	start, end time.Time
}

// tracer records the spans of one traced workload run; every span it
// writes carries the run's trace id. A nil *tracer records nothing, so
// untraced runs call the same methods for free.
type tracer struct {
	traceID string

	mu    sync.Mutex
	spans []span
}

func newTracer(traceID string) *tracer { return &tracer{traceID: traceID} }

// add records a finished span and returns its id (0 on a nil tracer).
func (t *tracer) add(cat, name, track string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{id: id, parent: parent, cat: cat, name: name, track: track, start: start, end: end})
	return id
}

// begin opens a span that ends at the matching end call.
func (t *tracer) begin(cat, name, track string, parent int) int {
	now := time.Now()
	return t.add(cat, name, track, parent, now, now)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].end = time.Now()
	t.mu.Unlock()
}

// durationOf returns a span's duration in milliseconds.
func (t *tracer) durationOf(id int) float64 {
	start, end := t.bounds(id)
	return ms(end.Sub(start))
}

// bounds returns a span's start and end.
func (t *tracer) bounds(id int) (start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1].start, t.spans[id-1].end
}

// selfMS is a span's self time: its duration minus the part of its
// interval that its child spans cover.
func (t *tracer) selfMS(id int) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[id-1]
	var kids [][2]time.Time
	for _, s := range t.spans {
		if s.parent == id {
			kids = append(kids, [2]time.Time{maxTime(s.start, p.start), minTime(s.end, p.end)})
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i][0].Before(kids[j][0]) })
	var covered time.Duration
	var cur [2]time.Time
	for i, k := range kids {
		if !k[1].After(k[0]) {
			continue
		}
		if i == 0 || k[0].After(cur[1]) {
			covered += cur[1].Sub(cur[0])
			cur = k
		} else if k[1].After(cur[1]) {
			cur[1] = k[1]
		}
	}
	covered += cur[1].Sub(cur[0])
	return ms(p.end.Sub(p.start) - covered)
}

// chromeEvent is one record of the Chrome trace_event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// write saves the spans as a Chrome trace_event JSON file (open it in
// https://ui.perfetto.dev or chrome://tracing): one track per span
// track name, complete ("X") events in microseconds from the first
// span, and the trace, span and parent ids in each event's args.
func (t *tracer) write(path, process string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) == 0 {
		return fmt.Errorf("trace: no spans recorded")
	}
	t0 := t.spans[0].start
	for _, s := range t.spans {
		t0 = minTime(t0, s.start)
	}
	tids := map[string]int{}
	events := []chromeEvent{{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": process}}}
	for _, s := range t.spans {
		tid, ok := tids[s.track]
		if !ok {
			tid = len(tids) + 1
			tids[s.track] = tid
			events = append(events, chromeEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
				Args: map[string]any{"name": s.track}})
		}
		events = append(events, chromeEvent{
			Name: s.name, Cat: s.cat, Ph: "X", Pid: 1, Tid: tid,
			Ts:   us(s.start.Sub(t0)),
			Dur:  us(s.end.Sub(s.start)),
			Args: map[string]any{"trace_id": t.traceID, "span_id": s.id, "parent_id": s.parent},
		})
	}
	b, err := json.Marshal(struct {
		DisplayTimeUnit string        `json:"displayTimeUnit"`
		TraceEvents     []chromeEvent `json:"traceEvents"`
	}{"ms", events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func minTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}
