package harness

import (
	"strconv"

	"atomicsmodel/internal/sim"
)

// The table-cell formatters write what fmt's %.Nf, %d and %.1f%% write,
// NaN, ±Inf and -0 included, without fmt's verb parsing.

func f2(v float64) string  { return strconv.FormatFloat(v, 'f', 2, 64) }
func f3(v float64) string  { return strconv.FormatFloat(v, 'f', 3, 64) }
func f1(v float64) string  { return strconv.FormatFloat(v, 'f', 1, 64) }
func ns(t sim.Time) string { return f1(t.Nanoseconds()) }
func itoa(n int) string    { return strconv.Itoa(n) }
func pct(v float64) string { return f1(v) + "%" }
