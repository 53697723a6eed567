package apps

import (
	"testing"

	"atomicsmodel/internal/atomics"
	"atomicsmodel/internal/coherence"
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/sim"
)

func runElim(t *testing.T, m *machine.Machine, threads, slots int) (*EliminationStack, *RunResult) {
	t.Helper()
	var st *EliminationStack
	res, err := Run(RunConfig{
		Machine: m, Threads: threads,
		Build: func(e *sim.Engine, mem *atomics.Memory) App {
			st = NewEliminationStack(e, mem, 128, slots, 200*sim.Nanosecond)
			return st
		},
		Warmup: 20 * sim.Microsecond, Duration: 250 * sim.Microsecond, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return st, res
}

func TestEliminationHappens(t *testing.T) {
	st, res := runElim(t, machine.XeonE5(), 16, 8)
	if st.Eliminations() == 0 {
		t.Fatal("no eliminations under heavy contention")
	}
	if res.Ops == 0 {
		t.Fatal("no completed ops")
	}
	pushes, pops, empties := st.Stats()
	if pushes+pops+empties != res.TotalOps {
		t.Fatalf("accounting: %d+%d+%d != %d", pushes, pops, empties, res.TotalOps)
	}
}

func TestEliminationStackStructureConsistent(t *testing.T) {
	var st *EliminationStack
	var mem *atomics.Memory
	_, err := Run(RunConfig{
		Machine: machine.Ideal(8), Threads: 8,
		Build: func(e *sim.Engine, m *atomics.Memory) App {
			mem = m
			st = NewEliminationStack(e, m, 16, 4, 100*sim.Nanosecond)
			return st
		},
		Warmup: 10 * sim.Microsecond, Duration: 100 * sim.Microsecond, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Eliminated pairs cancel: the stack's physical depth is
	// seed + pushes - pops, within the in-flight tolerance (one
	// unfinished op per thread, and an exchange whose two completions
	// straddle the horizon).
	pushes, pops, _ := st.Stats()
	want := 16 + int64(pushes) - int64(pops)
	depth := int64(0)
	cur := mem.System().Value(topLine)
	for cur != 0 && depth <= want+32 {
		depth++
		cur = mem.System().Value(st.nodeLine(cur).ID())
	}
	if depth < want-8 || depth > want+8 {
		t.Fatalf("stack depth %d, want %d +-8 (elims=%d)", depth, want, st.Eliminations())
	}
}

func TestEliminationBeatsPlainStackUnderContention(t *testing.T) {
	m := machine.XeonE5()
	plain, err := Run(RunConfig{
		Machine: m, Threads: 32,
		Build: func(e *sim.Engine, mem *atomics.Memory) App {
			return NewTreiberStack(mem, 128)
		},
		Warmup: 20 * sim.Microsecond, Duration: 250 * sim.Microsecond, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, elim := runElimAt(t, m, 32, 16)
	if elim.ThroughputMops <= plain.ThroughputMops {
		t.Fatalf("elimination (%.2f Mops) should beat plain Treiber (%.2f Mops) at 32 threads",
			elim.ThroughputMops, plain.ThroughputMops)
	}
}

func runElimAt(t *testing.T, m *machine.Machine, threads, slots int) (*EliminationStack, *RunResult) {
	t.Helper()
	var st *EliminationStack
	res, err := Run(RunConfig{
		Machine: m, Threads: threads,
		Build: func(e *sim.Engine, mem *atomics.Memory) App {
			st = NewEliminationStack(e, mem, 128, slots, 200*sim.Nanosecond)
			return st
		},
		Warmup: 20 * sim.Microsecond, Duration: 250 * sim.Microsecond, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return st, res
}

func TestEliminationSlotStatesSettle(t *testing.T) {
	// After the run drains, every slot must be empty or hold a parked
	// pusher whose window event was cut off — never a stale "matched".
	var st *EliminationStack
	var mem *atomics.Memory
	_, err := Run(RunConfig{
		Machine: machine.Ideal(8), Threads: 8,
		Build: func(e *sim.Engine, m *atomics.Memory) App {
			mem = m
			st = NewEliminationStack(e, m, 16, 4, 100*sim.Nanosecond)
			return st
		},
		Warmup: 10 * sim.Microsecond, Duration: 100 * sim.Microsecond, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		v := mem.System().Value(elimBase + coherence.LineID(i)*256)
		if v != slotEmpty && v != slotPusher && v != slotMatched {
			t.Fatalf("slot %d in impossible state %d", i, v)
		}
	}
	_ = st
}

func TestEliminationDegenerateOneSlot(t *testing.T) {
	st, res := runElim(t, machine.Ideal(8), 4, 0) // clamps to 1 slot
	if res.Ops == 0 {
		t.Fatal("no ops with one slot")
	}
	_ = st
}
