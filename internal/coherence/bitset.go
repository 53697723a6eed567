package coherence

import "math/bits"

// coreSet is a bitset over core IDs, sized at construction. It tracks the
// sharer set of a cache line. Machines here have at most a few hundred
// cores, so a small slice of words is cheaper than a map and makes
// invariant checks (popcount, iteration) trivial.
type coreSet struct {
	words []uint64
}

func newCoreSet(n int) coreSet {
	return coreSet{words: make([]uint64, (n+63)/64)}
}

func (s coreSet) has(i int) bool {
	return s.words[i/64]&(1<<(uint(i)%64)) != 0
}

func (s coreSet) add(i int) { s.words[i/64] |= 1 << (uint(i) % 64) }

func (s coreSet) clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

func (s coreSet) count() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

func (s coreSet) empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// forEach calls fn for every set core ID in ascending order.
func (s coreSet) forEach(fn func(core int)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi*64 + b)
			w &= w - 1
		}
	}
}
