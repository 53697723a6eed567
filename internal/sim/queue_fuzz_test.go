package sim

import (
	"testing"
)

// FuzzExpressLaneOrder feeds arbitrary event sets — timestamps
// compressed into a narrow range to force ties, children spawned
// mid-run — to engines that schedule every child through Schedule,
// which routes each eligible one through the express lane (one of them
// under an identity perturbation hook), and to a heap-only reference
// that schedules it with At(now+d). All must execute in exactly the
// same order: the lane must merge with the heap under the heap's own
// (timestamp, sequence) rule no matter how adversarial the schedule.
func FuzzExpressLaneOrder(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1, 2, 2})
	f.Add([]byte{255, 0, 255, 1, 255, 2, 0, 3})
	f.Add([]byte{10, 200, 10, 200, 10, 200, 10, 200})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2048 {
			data = data[:2048]
		}
		replay := func(express, perturbed bool) []int {
			e := NewEngine()
			if perturbed {
				e.SetPerturb(func(d Time) Time { return d })
			}
			var order []int
			for i, b := range data {
				i, b := i, b
				e.At(Time(b%32)*Nanosecond, func() {
					order = append(order, i)
					// Every fourth event spawns a child, exercising
					// mid-run scheduling.
					if i%4 == 0 {
						child := -i - 1
						fn := func() { order = append(order, child) }
						if express {
							e.Schedule(Time(b%3)*Nanosecond, fn)
						} else {
							e.At(e.Now()+Time(b%3)*Nanosecond, fn)
						}
					}
				})
			}
			e.Run(Second)
			return order
		}
		ref := replay(false, false)
		if got := replay(true, false); !equalInts(got, ref) {
			t.Fatalf("express-lane replay diverges from heap-only replay\nref: %v\ngot: %v", ref, got)
		}
		if got := replay(true, true); !equalInts(got, ref) {
			t.Fatalf("perturbed express-lane replay diverges from heap-only replay\nref: %v\ngot: %v", ref, got)
		}
	})
}
