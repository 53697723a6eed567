package bench

import (
	"regexp"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestNamesAreWellFormedAndUnique(t *testing.T) {
	seen := map[string]bool{}
	use := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q does not match %s", kind, name, nameRE)
		}
		if seen[name] {
			t.Errorf("%s name %q is used twice", kind, name)
		}
		seen[name] = true
	}
	for _, w := range Workloads {
		use("workload", w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			t.Errorf("workload %s: why must be one line of 1 to 200 characters, is %d", w.Name, len(w.Why))
		}
		if w.smokeOps < 1 {
			t.Errorf("workload %s: smoke size runs no operations", w.Name)
		}
	}
	for _, list := range [][]Metric{EndToEnd, PerLayer} {
		for _, m := range list {
			use("metric", m.Name)
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("metric %s: unit %q does not match %s", m.Name, m.Unit, unitRE)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("metric %s: better is %q, want lower or higher", m.Name, m.Better)
			}
		}
	}
}
