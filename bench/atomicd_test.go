package bench

import (
	"math"
	"reflect"
	"testing"
)

// TestJobMixShares: 85 % of fresh jobs are workload jobs, the four
// closed-loop presets equally, and 15 % app jobs.
func TestJobMixShares(t *testing.T) {
	byWorkload, byApp := map[string]int{}, map[string]int{}
	total, apps := 0, 0
	for _, d := range jobMix() {
		total += d.weight
		if d.kind.app != "" {
			apps += d.weight
			byApp[d.kind.app] += d.weight
		} else {
			byWorkload[d.kind.workload] += d.weight
		}
	}
	if got := float64(apps) / float64(total); got != 0.15 {
		t.Errorf("app jobs are %g of the mix, want 0.15", got)
	}
	for name, shares := range map[string]map[string]int{"workload": byWorkload, "app": byApp} {
		first := -1
		for k, w := range shares {
			if first >= 0 && w != first {
				t.Errorf("%s %s has weight %d, another %d: want equal shares", name, k, w, first)
			}
			first = w
		}
	}
	if len(byWorkload) != 4 || len(byApp) != 3 {
		t.Errorf("%d workload presets and %d apps, want 4 and 3", len(byWorkload), len(byApp))
	}
}

// TestJobStreamDealsTheMix: every whole round deals each kind exactly
// its weight, every prefix stays within two jobs of each kind's share,
// and the seed changes the order but not the mix.
func TestJobStreamDealsTheMix(t *testing.T) {
	g := newJobStream(42, 0)
	weights := map[jobKind]int{}
	for _, d := range g.mix {
		weights[d.kind] = d.weight
	}
	counts := map[jobKind]int{}
	var first []jobKind
	for k := 1; k <= 2*g.total; k++ {
		kind := g.deal()
		counts[kind]++
		if k <= 50 {
			first = append(first, kind)
		}
		for kd, w := range weights {
			if dev := math.Abs(float64(counts[kd]) - float64(k*w)/float64(g.total)); dev >= 2 {
				t.Fatalf("after %d jobs, %v dealt %d times, share %.2f", k, kd, counts[kd], float64(k*w)/float64(g.total))
			}
		}
		if k%g.total == 0 {
			for kd, w := range weights {
				if counts[kd] != w*k/g.total {
					t.Errorf("after %d jobs, %v dealt %d times, want %d", k, kd, counts[kd], w*k/g.total)
				}
			}
		}
	}

	other := newJobStream(43, 0)
	var otherFirst []jobKind
	for k := 0; k < 50; k++ {
		otherFirst = append(otherFirst, other.deal())
	}
	if reflect.DeepEqual(first, otherFirst) {
		t.Errorf("seeds 42 and 43 deal the same first 50 jobs")
	}
}
