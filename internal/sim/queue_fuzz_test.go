package sim

import (
	"testing"
)

// FuzzExpressLaneOrder feeds arbitrary event sets — timestamps
// compressed into a narrow range to force ties, children spawned
// mid-run — to two engines, one routing every eligible child through
// the express lane, and requires both to execute in exactly the same
// order: the lane must merge with the heap under the heap's own
// (timestamp, sequence) rule no matter how adversarial the schedule.
func FuzzExpressLaneOrder(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1, 2, 2})
	f.Add([]byte{255, 0, 255, 1, 255, 2, 0, 3})
	f.Add([]byte{10, 200, 10, 200, 10, 200, 10, 200})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2048 {
			data = data[:2048]
		}
		replay := func(express bool) []int {
			e := NewEngine()
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
						if !express || !e.TryExpress(Time(b%3)*Nanosecond, fn) {
							e.Schedule(Time(b%3)*Nanosecond, fn)
						}
					}
				})
			}
			e.Run(Second)
			return order
		}
		if ref, got := replay(false), replay(true); !equalInts(got, ref) {
			t.Fatalf("express-lane replay diverges from heap-only replay\nref: %v\ngot: %v", ref, got)
		}
	})
}
