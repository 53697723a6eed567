package predict

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"atomicsmodel/internal/apps"
	"atomicsmodel/internal/machine"
)

// updateForSpec rewrites testdata/forspec.golden. The file pins the
// conflict model's predictions bit for bit; regenerate it only for a
// change that is meant to move them, and say which lines moved.
var updateForSpec = flag.Bool("update-forspec", false, "rewrite testdata/forspec.golden")

const forSpecGolden = "testdata/forspec.golden"

// goldenQuantities are the quantity sets every point is predicted
// under: the blind worst case for its thread count, and two fixed
// measured sets, one of them with eliminations.
func goldenQuantities(n int) []struct {
	name string
	q    Quantities
} {
	return []struct {
		name string
		q    Quantities
	}{
		{"blind", Blind(n)},
		{"rf2.5", Quantities{RetryFactor: 2.5}},
		{"rf3.75-elim0.3", Quantities{RetryFactor: 3.75, ElimFraction: 0.3}},
	}
}

// goldenSpecs lists a default 8-thread spec per registered structure,
// every registered app preset and every examples/apps spec.
func goldenSpecs(t *testing.T) []*apps.Spec {
	t.Helper()
	var out []*apps.Spec
	for _, name := range apps.StructureNames() {
		out = append(out, &apps.Spec{Name: "structure:" + name, Structure: name, Threads: 8})
	}
	for _, name := range apps.SpecNames() {
		s, err := apps.SpecByName(name)
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
		s, err := apps.LoadSpecFile(f)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, s)
	}
	return out
}

// TestForSpecGolden pins predict.ForSpec at full float64 precision for
// every golden spec at every ladder point, on XeonE5 and KNL, under
// every golden quantity set. A point the machine cannot place pins its
// error text instead.
func TestForSpecGolden(t *testing.T) {
	var b strings.Builder
	for _, m := range []*machine.Machine{machine.XeonE5(), machine.KNL()} {
		for _, s := range goldenSpecs(t) {
			for _, pt := range s.Expand() {
				for _, g := range goldenQuantities(pt.Threads) {
					key := fmt.Sprintf("%s/%s/%d/%s", m.Name, pt.Label(), pt.Threads, g.name)
					mops, err := ForSpec(m, pt, g.q)
					if err != nil {
						fmt.Fprintf(&b, "%s err %v\n", key, err)
						continue
					}
					fmt.Fprintf(&b, "%s %v\n", key, mops)
				}
			}
		}
	}
	got := b.String()
	if *updateForSpec {
		if err := os.WriteFile(forSpecGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(forSpecGolden)
	if err != nil {
		t.Fatalf("%v (run with -update-forspec to create it)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s line %d:\n got  %q\n want %q", forSpecGolden, i+1, g, w)
		}
	}
}
