package harness

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"atomicsmodel/internal/machine"
)

// fanout runs f on n cells through FanoutKeyed, the one fan-out entry
// point, keying each cell by its index the way runners key by content.
func fanout[R any](o Options, n int, f func(i int) (R, error)) ([]R, error) {
	specs := make([]int, n)
	for i := range specs {
		specs[i] = i
	}
	return FanoutKeyed(o, specs, func(s int) string { return fmt.Sprintf("cell=%d", s) },
		func(i, _ int) (R, error) { return f(i) })
}

func TestRunCellsCoversEveryIndexOnce(t *testing.T) {
	for _, par := range []int{1, 3, 8, 100} {
		hits := make([]atomic.Int32, 50)
		_, err := fanout(Options{Par: par}, len(hits), func(i int) (int, error) {
			hits[i].Add(1)
			return i, nil
		})
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		for i := range hits {
			if n := hits[i].Load(); n != 1 {
				t.Fatalf("par=%d: cell %d ran %d times", par, i, n)
			}
		}
	}
}

func TestRunCellsReturnsLowestIndexError(t *testing.T) {
	wantErr := errors.New("cell 3 failed")
	for _, par := range []int{1, 4} {
		_, err := fanout(Options{Par: par}, 20, func(i int) (int, error) {
			switch i {
			case 3:
				return 0, wantErr
			case 7:
				return 0, errors.New("cell 7 failed")
			}
			return i, nil
		})
		if err == nil {
			t.Fatalf("par=%d: error swallowed", par)
		}
		// Parallel runs may or may not reach cell 7 after cell 3 fails,
		// but the reported error must be the lowest-index one.
		if err.Error() != wantErr.Error() {
			t.Fatalf("par=%d: got %v, want %v", par, err, wantErr)
		}
	}
}

func TestRunCellsProgress(t *testing.T) {
	var calls int
	last := -1
	_, err := fanout(Options{Par: 1, Progress: func(done, total int) {
		calls++
		if total != 10 || done <= last {
			t.Fatalf("progress(%d, %d) after done=%d", done, total, last)
		}
		last = done
	}}, 10, func(i int) (int, error) { return i, nil })
	if err != nil || calls != 10 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
}

func TestFanoutOrdersResults(t *testing.T) {
	specs := make([]int, 64)
	for i := range specs {
		specs[i] = i * i
	}
	out, err := FanoutKeyed(Options{Par: 8}, specs, func(spec int) string { return itoa(spec) },
		func(i, spec int) (string, error) {
			return fmt.Sprintf("%d:%d", i, spec), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range out {
		if want := fmt.Sprintf("%d:%d", i, i*i); got != want {
			t.Fatalf("out[%d] = %q, want %q", i, got, want)
		}
	}
}

// renderAll runs every experiment with the given options and returns
// the concatenated rendered tables.
func renderAll(t *testing.T, o Options, ids []string) string {
	t.Helper()
	var sb strings.Builder
	for _, id := range ids {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		tables, err := e.Run(o)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		for _, tb := range tables {
			if err := tb.Render(&sb); err != nil {
				t.Fatal(err)
			}
		}
	}
	return sb.String()
}

// TestParallelMatchesSerial is the determinism regression test for the
// cell scheduler: every experiment must render byte-identical tables at
// Par 1 and Par 8. Cells are independent simulations assembled by
// index, so worker count must never leak into results.
func TestParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment twice")
	}
	ids := IDs()
	serial := quickOpts()
	serial.Par = 1
	parallel := quickOpts()
	parallel.Par = 8
	a := renderAll(t, serial, ids)
	b := renderAll(t, parallel, ids)
	if a != b {
		t.Fatalf("par=1 and par=8 output differ:\n--- par=1 ---\n%s\n--- par=8 ---\n%s", a, b)
	}
	o2 := Options{Machines: []*machine.Machine{machine.KNL()}, Quick: true, Seed: 7, Par: 8}
	o1 := o2
	o1.Par = 1
	if renderAll(t, o1, []string{"F3"}) != renderAll(t, o2, []string{"F3"}) {
		t.Fatal("KNL F3 differs between par=1 and par=8")
	}
}

func TestOrderKey(t *testing.T) {
	got := orderKey("F3")
	if got != 3 {
		t.Fatalf("orderKey(F3) = %d", got)
	}
	if orderKey("T1") != 0 {
		t.Fatal("T1 must sort first")
	}
	if orderKey("T2") <= orderKey("F22") {
		t.Fatal("T2 must trail figures")
	}
	// Non-numeric suffixes used to parse as 0 (the Sscanf error was
	// ignored), sorting them in front of every figure. They must trail
	// everything well-formed instead.
	for _, id := range []string{"Fx", "F", "Fig3b", "T"} {
		if orderKey(id) <= orderKey("T99") {
			t.Errorf("orderKey(%q) = %d: malformed ID sorts before well-formed IDs", id, orderKey(id))
		}
	}
}
