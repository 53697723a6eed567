package atomics

import (
	"testing"

	"atomicsmodel/internal/coherence"
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/sim"
)

func bufMemory(t *testing.T, depth int) (*sim.Engine, *Memory) {
	t.Helper()
	eng := sim.NewEngine()
	m := machine.XeonE5()
	m.StoreBufferDepth = depth
	mem, err := NewMemory(eng, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	return eng, mem
}

func TestBufferedStoreRetiresFast(t *testing.T) {
	eng, mem := bufMemory(t, 42)
	r := run(t, eng, func(done func(Result)) { mem.StoreOp(0, mem.Handle(1), 7, done) })
	if r.Latency != mem.Machine().Lat.L1Hit {
		t.Fatalf("buffered store retire latency %v, want L1 %v", r.Latency, mem.Machine().Lat.L1Hit)
	}
	// The drain already happened (we drained the engine): value visible.
	if mem.System().Value(1) != 7 {
		t.Fatalf("drained value %d, want 7", mem.System().Value(1))
	}
	if mem.PendingStores(0) != 0 {
		t.Fatal("buffer not empty after drain")
	}
}

func TestBufferedStoresDrainInOrder(t *testing.T) {
	eng, mem := bufMemory(t, 42)
	// Two stores to the same line: the later value must win (FIFO drain).
	mem.StoreOp(0, mem.Handle(1), 1, nil)
	mem.StoreOp(0, mem.Handle(1), 2, nil)
	eng.Drain()
	if got := mem.System().Value(1); got != 2 {
		t.Fatalf("final value %d, want 2 (program order)", got)
	}
}

func TestBufferFullStalls(t *testing.T) {
	eng, mem := bufMemory(t, 2)
	// Issue 5 stores back to back; with depth 2 the issuing "thread"
	// must stall, but all must eventually drain.
	retired := 0
	for i := 0; i < 5; i++ {
		mem.StoreOp(0, mem.Handle(coherence.LineID(100+i)), uint64(i), func(Result) { retired++ })
	}
	if mem.PendingStores(0) > 2 {
		t.Fatalf("buffer overfilled: %d", mem.PendingStores(0))
	}
	eng.Drain()
	if retired != 5 {
		t.Fatalf("retired %d/5", retired)
	}
	for i := 0; i < 5; i++ {
		if mem.System().Value(coherence.LineID(100+i)) != uint64(i) {
			t.Fatalf("store %d lost", i)
		}
	}
}

func TestAtomicImpliesFence(t *testing.T) {
	eng, mem := bufMemory(t, 42)
	// Park a store in the buffer whose drain is slow (remote line), then
	// issue an FAA: the FAA must serialize after the drain.
	mem.System().SetValue(1, 0)
	var faaDone sim.Time
	var storeVisibleAtFAA bool
	mem.StoreOp(0, mem.Handle(1), 99, nil) // will drain via RFO
	mem.FetchAndAdd(0, mem.Handle(2), 1, func(Result) {
		faaDone = eng.Now()
		storeVisibleAtFAA = mem.System().Value(1) == 99
	})
	eng.Drain()
	if !storeVisibleAtFAA {
		t.Fatal("locked RMW overtook a buffered store (missing implicit fence)")
	}
	if faaDone == 0 {
		t.Fatal("FAA never completed")
	}
}

func TestFenceWaitsForDrain(t *testing.T) {
	eng, mem := bufMemory(t, 42)
	mem.StoreOp(0, mem.Handle(1), 5, nil)
	r := run(t, eng, func(done func(Result)) { mem.FenceOp(0, done) })
	// The fence's reported latency includes the drain wait: it must
	// exceed the bare ExecFence.
	if r.Latency <= mem.Machine().Lat.ExecFence {
		t.Fatalf("fence latency %v did not include the drain", r.Latency)
	}
	if mem.System().Value(1) != 5 {
		t.Fatal("fence completed before the store drained")
	}
}

func TestUnbufferedSemanticsUnchanged(t *testing.T) {
	eng, mem := bufMemory(t, 0)
	r := run(t, eng, func(done func(Result)) { mem.StoreOp(0, mem.Handle(1), 7, done) })
	// Synchronous store: full miss latency, value observed.
	if r.Latency <= mem.Machine().Lat.L1Hit {
		t.Fatalf("unbuffered store too fast: %v", r.Latency)
	}
	if mem.PendingStores(0) != 0 {
		t.Fatal("phantom pending stores")
	}
}
