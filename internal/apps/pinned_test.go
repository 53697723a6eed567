package apps

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"atomicsmodel/internal/atomics"
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/sim"
	"atomicsmodel/internal/workload"
)

// pinnedDigestsFile holds the sha256 of every pinned app cell's
// RunResult JSON, one "key digest" line per cell. It was generated
// with unpooled cells, each on a freshly built engine and memory, so
// a pooled run that matches it is byte-identical to a fresh one.
const pinnedDigestsFile = "testdata/app_digests.txt"

// pinnedCell is one cell of the pinned set: a pinned spec and the
// harness-style knobs layered on top of it.
type pinnedCell struct {
	key  string
	spec *Spec
	mode string // "plain", "metrics" or "check"
}

// pinnedModes are the observability settings every spec is pinned
// under.
var pinnedModes = []string{"plain", "metrics", "check"}

// pinnedSpecs lists every spec the pinned set covers: a default
// 8-thread spec per registered structure, every registered preset and
// every examples/apps spec, ladders expanded.
func pinnedSpecs(t *testing.T) []*Spec {
	t.Helper()
	var out []*Spec
	for _, name := range StructureNames() {
		out = append(out, &Spec{Name: "structure:" + name, Structure: name, Threads: 8})
	}
	for _, name := range SpecNames() {
		s, err := SpecByName(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, s)
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "apps", "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no examples/apps specs (%v)", err)
	}
	for _, f := range files {
		s, err := LoadSpecFile(f)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, s)
	}
	return out
}

// pinnedCells expands the pinned specs for one machine into cells with
// a short fixed window: thread points beyond the machine's hardware
// threads and machine-incompatible structures are skipped, exactly as
// the harness A suite skips them.
func pinnedCells(t *testing.T, m *machine.Machine) []pinnedCell {
	t.Helper()
	var cells []pinnedCell
	for _, s := range pinnedSpecs(t) {
		if s.CheckMachine(m) != nil {
			continue
		}
		for _, pt := range s.Expand() {
			if pt.Threads > m.NumHWThreads() {
				continue
			}
			pt.WarmupPS, pt.DurationPS = 3*sim.Microsecond, 20*sim.Microsecond
			if pt.Seed == 0 {
				pt.Seed = 42 + uint64(pt.Threads)
			}
			for _, mode := range pinnedModes {
				key := fmt.Sprintf("%s/%s/%d/%s", m.Name, pt.Label(), pt.Threads, mode)
				cells = append(cells, pinnedCell{key: key, spec: pt, mode: mode})
			}
		}
	}
	return cells
}

// runPinned runs one pinned cell on m and returns its RunResult JSON
// digest.
func runPinned(t *testing.T, m *machine.Machine, c pinnedCell) string {
	t.Helper()
	cfg, err := c.spec.RunConfig(m)
	if err != nil {
		t.Fatalf("%s: %v", c.key, err)
	}
	cfg.Metrics = c.mode == "metrics"
	cfg.Check = c.mode == "check"
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", c.key, err)
	}
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("%s: %v", c.key, err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

func loadPinnedDigests(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(pinnedDigestsFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, digest, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("malformed line %q in %s", sc.Text(), pinnedDigestsFile)
		}
		want[key] = digest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestPinnedAppDigests runs every pinned cell on all registered
// machines twice on one pooled runtime — first as it comes, then again
// after an unrelated workload cell has run on the same machine — and
// requires both RunResult digests to equal the pinned fresh-cell
// digest. Each machine is built anew, so its first cell runs on a fresh
// runtime and every later one on a pooled runtime another cell used.
func TestPinnedAppDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every app spec on every machine")
	}
	want := loadPinnedDigests(t)
	seen := 0
	for _, name := range machine.Names() {
		m, err := machine.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		unrelated := workload.Config{
			Machine: m, Threads: min(4, m.NumHWThreads()), Primitive: atomics.SWAP,
			Mode: workload.LowContention, Warmup: sim.Microsecond, Duration: 3 * sim.Microsecond, Seed: 9,
		}
		for _, c := range pinnedCells(t, m) {
			w, ok := want[c.key]
			if !ok {
				t.Errorf("%s: no pinned digest", c.key)
				continue
			}
			seen++
			if got := runPinned(t, m, c); got != w {
				t.Errorf("%s: digest %s, pinned %s", c.key, got, w)
			}
			if _, err := workload.Run(unrelated); err != nil {
				t.Fatal(err)
			}
			if got := runPinned(t, m, c); got != w {
				t.Errorf("%s: pooled rerun digest %s, pinned %s", c.key, got, w)
			}
		}
	}
	if seen != len(want) {
		t.Errorf("ran %d pinned cells, %s pins %d", seen, pinnedDigestsFile, len(want))
	}
}
