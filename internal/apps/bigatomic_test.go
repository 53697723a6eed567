package apps

import (
	"testing"

	"atomicsmodel/internal/atomics"
	"atomicsmodel/internal/coherence"
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/sim"
)

// bigMemory is an 8-core ideal machine's memory for the big-atomic
// tests, which drive Read and Update directly.
func bigMemory(t *testing.T) (*sim.Engine, *atomics.Memory) {
	t.Helper()
	eng := sim.NewEngine()
	mem, err := atomics.NewMemory(eng, machine.Ideal(8), nil)
	if err != nil {
		t.Fatal(err)
	}
	return eng, mem
}

func TestBigAtomicValidation(t *testing.T) {
	_, mem := bigMemory(t)
	if _, err := NewBigAtomic(mem, 0, 0); err == nil {
		t.Fatal("words=0 accepted")
	}
	if _, err := NewBigAtomic(mem, 4, 0); err != nil {
		t.Fatal(err)
	}
}

// TestBigAtomicSequential drives reads and updates from one core and
// checks the version/word bookkeeping.
func TestBigAtomicSequential(t *testing.T) {
	eng, mem := bigMemory(t)
	b, err := NewBigAtomic(mem, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	for i := 0; i < 5; i++ {
		b.Update(0, func() { steps++ })
		eng.Drain()
		b.Read(1, func() { steps++ })
		eng.Drain()
	}
	if steps != 10 {
		t.Fatalf("completed %d ops, want 10", steps)
	}
	reads, updates, _, _, torn := b.Stats()
	if reads != 5 || updates != 5 {
		t.Fatalf("reads=%d updates=%d, want 5/5", reads, updates)
	}
	if torn != 0 {
		t.Fatalf("torn reads: %d", torn)
	}
	// After 5 updates the version is 10 and every word carries
	// generation 5.
	if v := mem.System().Value(bigAtomicBase); v != 10 {
		t.Fatalf("version = %d, want 10", v)
	}
	for i := 0; i < 4; i++ {
		if g := mem.System().Value(bigAtomicBase + 1 + coherence.LineID(i)); g != 5 {
			t.Fatalf("word %d generation = %d, want 5", i, g)
		}
	}
	if b.Attempts() < reads+updates {
		t.Fatalf("attempts %d below completed ops", b.Attempts())
	}
}

// TestBigAtomicConcurrent interleaves readers and writers on separate
// cores: the seqlock must deliver zero torn reads, and every word must
// agree with the final version.
func TestBigAtomicConcurrent(t *testing.T) {
	for _, words := range []int{1, 2, 4, 8} {
		eng := sim.NewEngine()
		mem, err := atomics.NewMemory(eng, machine.XeonE5(), nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewBigAtomic(mem, words, 0)
		if err != nil {
			t.Fatal(err)
		}
		const perCore = 40
		for core := 0; core < 8; core++ {
			core := core
			n := 0
			var loop func()
			loop = func() {
				if n >= perCore {
					return
				}
				n++
				if core%2 == 0 {
					b.Update(core, loop)
				} else {
					b.Read(core, loop)
				}
			}
			eng.Schedule(sim.Time(core+1), loop)
		}
		eng.Drain()
		reads, updates, _, _, torn := b.Stats()
		if reads != 4*perCore || updates != 4*perCore {
			t.Fatalf("words=%d: reads=%d updates=%d, want %d each", words, reads, updates, 4*perCore)
		}
		if torn != 0 {
			t.Fatalf("words=%d: %d torn reads", words, torn)
		}
		if words > 1 {
			if v := mem.System().Value(bigAtomicBase); v != 2*uint64(updates) {
				t.Fatalf("words=%d: version %d, want %d", words, v, 2*updates)
			}
			for i := 0; i < words; i++ {
				if g := mem.System().Value(bigAtomicBase + 1 + coherence.LineID(i)); g != uint64(updates) {
					t.Fatalf("words=%d: word %d generation %d, want %d", words, i, g, updates)
				}
			}
		} else if v := mem.System().Value(bigAtomicBase + 1); v != uint64(updates) {
			t.Fatalf("words=1: value %d, want %d", v, updates)
		}
	}
}

// TestBigAtomicDoesNotAllocate extends the access path's zero-alloc
// contract (see coherence.TestAccessDoesNotAllocate) to the big-atomic
// object: once the context pools are warm, reads and updates allocate
// nothing per operation.
func TestBigAtomicDoesNotAllocate(t *testing.T) {
	for _, words := range []int{1, 4} {
		eng, mem := bigMemory(t)
		b, err := NewBigAtomic(mem, words, 0)
		if err != nil {
			t.Fatal(err)
		}
		noop := func() {}
		// Warm the op pools (and the coherence/atomics pools below).
		b.Update(0, noop)
		eng.Drain()
		b.Read(1, noop)
		eng.Drain()
		i := 0
		avg := testing.AllocsPerRun(200, func() {
			if i%2 == 0 {
				b.Update(i%8, noop)
			} else {
				b.Read(i%8, noop)
			}
			eng.Drain()
			i++
		})
		if avg != 0 {
			t.Fatalf("words=%d: big atomic op allocates %.1f allocs/op, want 0", words, avg)
		}
	}
}
