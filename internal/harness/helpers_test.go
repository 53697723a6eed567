package harness

import (
	"fmt"
	"math"
	"testing"

	"atomicsmodel/internal/sim"
)

// TestFormattersMatchFmt holds the table-cell formatters to the fmt
// verbs they replace, on ordinary values, rounding ties and the
// special values NaN, ±Inf and -0.
func TestFormattersMatchFmt(t *testing.T) {
	for _, v := range []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		1, -1, 0.05, -0.004, 0.125, 2.675, 1234.5678, -98765.4321, 1e21, 5e-324, math.MaxFloat64} {
		for _, c := range []struct{ got, want string }{
			{f1(v), fmt.Sprintf("%.1f", v)},
			{f2(v), fmt.Sprintf("%.2f", v)},
			{f3(v), fmt.Sprintf("%.3f", v)},
			{pct(v), fmt.Sprintf("%.1f%%", v)},
		} {
			if c.got != c.want {
				t.Errorf("%v: got %q, fmt writes %q", v, c.got, c.want)
			}
		}
	}
	for _, ps := range []sim.Time{0, 1, 49, 50, 1500, 123456789, -2500} {
		if got, want := ns(ps), fmt.Sprintf("%.1f", ps.Nanoseconds()); got != want {
			t.Errorf("ns(%d): got %q, fmt writes %q", ps, got, want)
		}
	}
	for _, n := range []int{0, 7, -12, math.MaxInt, math.MinInt} {
		if got, want := itoa(n), fmt.Sprintf("%d", n); got != want {
			t.Errorf("itoa(%d): got %q, fmt writes %q", n, got, want)
		}
	}
}
