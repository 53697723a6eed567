package trace

import (
	"bytes"
	"encoding/json"
	"testing"

	"atomicsmodel/internal/atomics"
	"atomicsmodel/internal/coherence"
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/sim"
)

// recordContended runs a small contended FAA workload with a recorder
// on the hot line and returns the recorder.
func recordContended(t *testing.T, threads, ops int) *Recorder {
	t.Helper()
	m, err := machine.ByName("XeonE5")
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	mem, err := atomics.NewMemory(eng, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	const hot coherence.LineID = 1
	rec := NewRecorder(hot, 0)
	mem.System().SetTracer(rec.Observe)
	for i := 0; i < threads; i++ {
		core := i
		var issue func(remaining int)
		issue = func(remaining int) {
			if remaining == 0 {
				return
			}
			mem.Do(atomics.FAA, core, mem.Handle(hot), 1, 0, func(atomics.Result) { issue(remaining - 1) })
		}
		left := ops
		eng.Schedule(sim.Time(i)*sim.Nanosecond, func() { issue(left) })
	}
	eng.Drain()
	return rec
}

func TestWriteChromeTrace(t *testing.T) {
	rec := recordContended(t, 4, 10)
	if len(rec.Events()) == 0 {
		t.Fatal("no events recorded")
	}

	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}

	// The output must be a valid trace_event JSON object envelope.
	var tr struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string                 `json:"name"`
			Ph   string                 `json:"ph"`
			Ts   float64                `json:"ts"`
			Dur  float64                `json:"dur"`
			Pid  int                    `json:"pid"`
			Tid  int                    `json:"tid"`
			Args map[string]interface{} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if tr.DisplayTimeUnit != "ns" {
		t.Fatalf("displayTimeUnit = %q", tr.DisplayTimeUnit)
	}

	var slices, counters, meta int
	lastTs := -1.0
	for _, ev := range tr.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
		case "X":
			slices++
			if ev.Ts < 0 || ev.Dur < 0 {
				t.Fatalf("slice %q has negative ts/dur: ts=%v dur=%v", ev.Name, ev.Ts, ev.Dur)
			}
			if ev.Tid < 1 {
				t.Fatalf("slice %q has tid %d; cores are shifted to 1-based rows", ev.Name, ev.Tid)
			}
			if _, ok := ev.Args["source"]; !ok {
				t.Fatalf("slice %q lacks a source arg", ev.Name)
			}
			lastTs = ev.Ts
		case "C":
			counters++
			if ev.Name != "owner" {
				t.Fatalf("unexpected counter %q", ev.Name)
			}
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	if meta < 2 {
		t.Fatalf("expected process+thread metadata, got %d records", meta)
	}
	if slices != len(rec.Events()) {
		t.Fatalf("slices = %d, recorded events = %d", slices, len(rec.Events()))
	}
	if counters == 0 {
		t.Fatal("no owner counter events for an RMW workload")
	}
	if lastTs < 0 {
		t.Fatal("no slices seen")
	}

	// Determinism: re-encoding the same recording yields the same bytes.
	var buf2 bytes.Buffer
	if err := rec.WriteChromeTrace(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("WriteChromeTrace output is not deterministic")
	}
}
