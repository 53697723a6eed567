package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFullSuiteGolden renders the default experiment list at full
// length on the paper pair, seed 42, exactly the way `atomicsim -quiet`
// prints it, and compares it byte for byte with the repository's
// fullrun.txt. Each table's CSV is compared with its file under
// results/, as `atomicsim -csv results/` names it. The quick goldens
// and the cell digests pin short windows only; long windows are where
// the memoizer and the parked-chain jump cover the most ground.
//
// To regenerate after an intentional change:
//
//	go run ./cmd/atomicsim -quiet -csv results/ > fullrun.txt
func TestFullSuiteGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full paper suite on two machines")
	}
	root := filepath.Join("..", "..")
	var sb strings.Builder
	csvs := 0
	for _, e := range All() {
		fmt.Fprintf(&sb, "== %s: %s\n   claim: %s\n\n", e.ID, e.Title, e.Claim)
		// Machines nil is the paper pair, as atomicsim runs it by default.
		tables, err := RunExperiment(e, Options{Seed: 42, Par: 2})
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		for i, tb := range tables {
			if err := tb.Render(&sb); err != nil {
				t.Fatal(err)
			}
			sb.WriteString("\n")
			var csv strings.Builder
			if err := tb.CSV(&csv); err != nil {
				t.Fatal(err)
			}
			csvs++
			name := fmt.Sprintf("%s_%d.csv", e.ID, i)
			want, err := os.ReadFile(filepath.Join(root, "results", name))
			if err != nil {
				t.Fatal(err)
			}
			if got := csv.String(); got != string(want) {
				at := diverge(got, string(want))
				t.Errorf("results/%s differs at byte %d:\n...%s...", name, at, around(got, at))
			}
		}
	}
	if files, err := os.ReadDir(filepath.Join(root, "results")); err != nil || len(files) != csvs {
		t.Errorf("results/ holds %d files (%v), the suite renders %d tables", len(files), err, csvs)
	}
	want, err := os.ReadFile(filepath.Join(root, "fullrun.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != string(want) {
		at := diverge(got, string(want))
		t.Fatalf("full suite differs from fullrun.txt (len %d vs %d) at byte %d:\n...%s...",
			len(got), len(want), at, around(got, at))
	}
}
