package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []Metric `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) (benchmarkJSON, []byte) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b, raw
}

// checkKeySets checks that every object in the file has exactly the keys the
// benchmark format allows, no more and no fewer.
func checkKeySets(t *testing.T, raw []byte) {
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{
		"":           {"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"},
		"workloads":  {"name", "why"},
		"end_to_end": {"better", "bound", "name", "unit"},
		"per_layer":  {"better", "name", "unit"},
	}
	if got := keys(top); !reflect.DeepEqual(got, want[""]) {
		t.Errorf("BENCHMARK.json keys %v, want %v", got, want[""])
	}
	for list, wantKeys := range want {
		if list == "" {
			continue
		}
		var entries []map[string]json.RawMessage
		if err := json.Unmarshal(top[list], &entries); err != nil {
			t.Fatalf("%s: %v", list, err)
		}
		for i, e := range entries {
			if got := keys(e); !reflect.DeepEqual(got, wantKeys) {
				t.Errorf("%s[%d] keys %v, want %v", list, i, got, wantKeys)
			}
		}
	}
}

func keys(m map[string]json.RawMessage) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestBenchmarkJSONMatchesDriver keeps BENCHMARK.json and the driver's
// declarations in step and inside the benchmark format's limits.
func TestBenchmarkJSONMatchesDriver(t *testing.T) {
	b, raw := readBenchmarkJSON(t)
	checkKeySets(t, raw)
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, the limit is 64 KiB", len(raw))
	}
	if want := []string{"bash", "bench/run.sh"}; !reflect.DeepEqual(b.Command, want) {
		t.Errorf("command %v, want %v", b.Command, want)
	}
	if want := []string{"bench"}; !reflect.DeepEqual(b.Paths, want) {
		t.Errorf("paths %v, want %v", b.Paths, want)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", b.RunSeconds)
	}
	// A full measurement of the benchmark, 4 + 22 runs per workload and
	// two cold builds, must fit in 3420 s. A sweep run can overshoot its
	// window by up to one pass (5 to 9 s on a 2-vCPU Xeon VM), and
	// set-up probes, the build check and a trace run's layer
	// measurements add a few seconds more.
	const perRunOverhead, builds = 8, 2 * 60
	if total := (4+22*len(b.Workloads))*(b.RunSeconds+perRunOverhead) + builds; total > 3420 {
		t.Errorf("estimated measurement time %d s exceeds 3420 s", total)
	}

	if n := len(b.Workloads); n < 2 || n > 8 || n != len(Workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the driver (want 2..8, equal)", n, len(Workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != Workloads[i].Name || w.Why != Workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the driver %q (%q)", i, w.Name, w.Why, Workloads[i].Name, Workloads[i].Why)
		}
	}

	if n := len(b.EndToEnd); n < 1 || n > 16 || n != len(EndToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the driver (want 1..16, equal)", n, len(EndToEnd))
	}
	var setupBound, maxOther float64
	for i, m := range b.EndToEnd {
		if d := EndToEnd[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end_to_end %d: BENCHMARK.json has %s %s %s, the driver %s %s %s", i, m.Name, m.Unit, m.Better, d.Name, d.Unit, d.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %g, want (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s must be in s, lower is better")
			}
		} else {
			maxOther = max(maxOther, m.Bound)
		}
	}
	if setupBound == 0 || setupBound < maxOther {
		t.Errorf("setup_s must be declared with the largest bound (%g < %g)", setupBound, maxOther)
	}

	if n := len(b.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if !reflect.DeepEqual(b.PerLayer, PerLayer) {
		t.Errorf("per_layer in BENCHMARK.json differs from the driver's PerLayer")
	}
}

// TestSmokeEveryWorkload runs every workload at the smoke size, untraced
// and traced, with every check on (golden digests included: the smoke
// runs use the golden seed). Each run must be correct and emit exactly
// the metrics BENCHMARK.json declares for its mode.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs simulate; skipped in -short mode")
	}
	b, _ := readBenchmarkJSON(t)
	declared := [2][]string{}
	for _, m := range b.EndToEnd {
		declared[0] = append(declared[0], m.Name)
	}
	for _, m := range b.PerLayer {
		declared[1] = append(declared[1], m.Name)
	}
	for _, w := range b.Workloads {
		for trace := 0; trace <= 1; trace++ {
			t.Run(w.Name+"/trace"+strconv.Itoa(trace), func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := Main([]string{"-workload", w.Name, "-smoke", "-seed", strconv.Itoa(GoldenSeed),
					"-trace", strconv.Itoa(trace), "-workdir", t.TempDir(), "-root", ".."}, &stdout, &stderr)
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\nstdout:\n%s\nstderr:\n%s", err, &stdout, &stderr)
				}
				if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("exit %d, result %+v\nstderr:\n%s", code, res, &stderr)
				}
				got := make([]string, 0, len(res.Metrics))
				for name := range res.Metrics {
					got = append(got, name)
					if !strings.Contains(stdout.String(), "metric "+w.Name+" "+name+" ") {
						t.Errorf("no metric line for %s", name)
					}
				}
				want := append([]string(nil), declared[trace]...)
				sort.Strings(got)
				sort.Strings(want)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("emitted metrics %v, declared %v", got, want)
				}
			})
		}
	}
}

func TestMainRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-workload", "no-such-workload"},
		{"-workload", "f3-xeon", "-trace", "2"},
		{"-workload", "f3-xeon", "-seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := Main(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("Main(%q) = %d with output %q, want a failure and no result", args, code, &stdout)
		}
	}
}

func TestMain(m *testing.M) {
	// Main re-executes this test binary for its child processes.
	if os.Getenv(childEnv) == "1" {
		os.Exit(Main(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}
