package harness

import (
	"bufio"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/runlog"
)

// cellDigestsFile pins every quick paper-suite cell on the paper pair,
// with metrics off and on: one "key digest" line per cell, where key is
// the cell's cache key and digest the run manifest's digest of its
// result JSON. The digest covers everything a cell reports, including
// its energy floats and, with metrics on, its whole metrics snapshot,
// which the rendered tables show only in part.
const cellDigestsFile = "testdata/cell_digests.txt"

// quickCellDigests runs the quick paper suite on XeonE5 and KNL (seed
// 42, as atomicsim runs it) with metrics off and then on, and returns
// every cell's result digest by cache key.
func quickCellDigests(t *testing.T) map[string]string {
	t.Helper()
	got := map[string]string{}
	for _, metricsOn := range []bool{false, true} {
		dir := t.TempDir()
		w, err := runlog.Create(dir)
		if err != nil {
			t.Fatal(err)
		}
		o := Options{
			Machines: []*machine.Machine{machine.XeonE5(), machine.KNL()},
			Quick:    true, Seed: 42, Par: 2, Manifest: w,
		}
		if metricsOn {
			o.Metrics = &MetricsCollector{}
		}
		for _, e := range All() {
			if _, err := RunExperiment(e, o); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		for _, r := range readCellRecords(t, dir) {
			if r.Digest == "" {
				t.Fatalf("%s: no result digest", r.Key)
			}
			if d, ok := got[r.Key]; ok && d != r.Digest {
				t.Fatalf("%s: two cells with one key report digests %s and %s", r.Key, d, r.Digest)
			}
			got[r.Key] = r.Digest
		}
	}
	return got
}

// TestPinnedCellDigests requires every quick paper-suite cell on the
// paper pair to report exactly its pinned result, metrics snapshot and
// energy included, and the pinned set to be exactly the cells the suite
// runs. A refactor that claims the same bytes must pass it with the pin
// file unedited.
func TestPinnedCellDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick paper suite twice on two machines")
	}
	got := quickCellDigests(t)
	f, err := os.Open(filepath.FromSlash(cellDigestsFile))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pinned := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, want, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("malformed line %q in %s", sc.Text(), cellDigestsFile)
		}
		pinned++
		switch d, ok := got[key]; {
		case !ok:
			t.Errorf("%s: pinned but not run", key)
		case d != want:
			t.Errorf("%s: digest %s, pinned %s", key, d, want)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if pinned != len(got) {
		t.Errorf("the suite ran %d cells, %s pins %d", len(got), cellDigestsFile, pinned)
	}
}
