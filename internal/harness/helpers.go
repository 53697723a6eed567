package harness

import (
	"fmt"

	"atomicsmodel/internal/sim"
)

func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func ns(t sim.Time) string { return fmt.Sprintf("%.1f", t.Nanoseconds()) }
func itoa(n int) string    { return fmt.Sprintf("%d", n) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", v) }
