package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"atomicsmodel/internal/machine"
)

// TestQuickSweepGolden renders the full -quick experiment suite per
// registered machine exactly the way `atomicsim -quick -quiet -machines <M>`
// prints it and compares byte-for-byte against a golden file. This is
// the regression gate for every refactor of the runners: the paper
// machines pin the headline tables, and the small Ideal8 pins the skip
// paths (rows dropped for lack of hardware threads, lock variants a
// single socket does not get, experiments a machine sits out).
// TestGoldensCoverRegistry keeps the list in step with the registry.
//
// To regenerate after an intentional change, for each machine M:
//
//	go run ./cmd/atomicsim -quick -quiet -machines M > internal/harness/testdata/quick_sweep_<m>.golden
func TestQuickSweepGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full quick suite twice")
	}
	for _, tc := range sweepGoldens {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			m, err := machine.ByName(tc.name)
			if err != nil {
				t.Fatal(err)
			}
			var sb strings.Builder
			for _, e := range All() {
				fmt.Fprintf(&sb, "== %s: %s\n   claim: %s\n\n", e.ID, e.Title, e.Claim)
				tables, err := RunExperiment(e, Options{
					Machines: []*machine.Machine{m}, Quick: true, Seed: 42, Par: 8,
				})
				if err != nil {
					t.Fatalf("%s: %v", e.ID, err)
				}
				for _, tb := range tables {
					if err := tb.Render(&sb); err != nil {
						t.Fatal(err)
					}
					sb.WriteString("\n")
				}
			}
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			got := sb.String()
			if got != string(want) {
				t.Fatalf("quick sweep for %s differs from golden %s (len %d vs %d); "+
					"first divergence at byte %d:\n...%s...",
					tc.name, tc.golden, len(got), len(want), diverge(got, string(want)),
					around(got, diverge(got, string(want))))
			}
		})
	}
}

// sweepGoldens names one quick-sweep golden per registered machine.
var sweepGoldens = []struct {
	name   string
	golden string
}{
	{"XeonE5", "quick_sweep_xeone5.golden"},
	{"KNL", "quick_sweep_knl.golden"},
	{"EPYC", "quick_sweep_epyc.golden"},
	{"Grace", "quick_sweep_grace.golden"},
	{"XeonSP", "quick_sweep_xeonsp.golden"},
	{"Ideal8", "quick_sweep_ideal8.golden"},
}

// TestGoldensCoverRegistry fails when a machine is registered without a
// quick-sweep golden, so a new preset cannot skip the byte-exact gate.
func TestGoldensCoverRegistry(t *testing.T) {
	have := map[string]bool{}
	for _, tc := range sweepGoldens {
		have[tc.name] = true
	}
	for _, name := range machine.Names() {
		if !have[name] {
			t.Errorf("machine %s has no quick-sweep golden in sweepGoldens", name)
		}
	}
}

func diverge(a, b string) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

func around(s string, at int) string {
	lo, hi := at-80, at+80
	if lo < 0 {
		lo = 0
	}
	if hi > len(s) {
		hi = len(s)
	}
	return s[lo:hi]
}
