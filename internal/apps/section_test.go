package apps

import (
	"strings"
	"testing"

	"atomicsmodel/internal/atomics"
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/sim"
)

// earlyReleaseLock is a test-and-set lock broken on purpose: it frees
// the lock word as soon as it wins it, then runs its section
// unprotected, so its release happens before its section exits. The
// section's increment is one atomic FAA, so the data line still counts
// every cycle and Run's lost-update check alone would pass the cell;
// only the section's enter/exit audit sees the overlap.
type earlyReleaseLock struct {
	section
	ops []*earlyReleaseOp
}

type earlyReleaseOp struct {
	sectionOp
	l             *earlyReleaseLock
	tasFn, freeFn func(atomics.Result)
}

func (l *earlyReleaseLock) Name() string { return "lock-early-release" }

func (l *earlyReleaseLock) mutex() {}

func (l *earlyReleaseLock) Step(th *Thread, done func()) {
	o := threadOp(&l.ops, th, func() *earlyReleaseOp {
		o := &earlyReleaseOp{l: l}
		o.bind(&l.section, o)
		o.tasFn, o.freeFn = o.tasDone, o.freed
		return o
	})
	o.th, o.done = th, done
	o.spin()
}

func (o *earlyReleaseOp) spin() { o.l.mem.TestAndSet(o.th.Core, o.l.mem.Handle(lockLine), o.tasFn) }

func (o *earlyReleaseOp) tasDone(r atomics.Result) {
	if r.Old != 0 {
		o.spin()
		return
	}
	o.l.mem.StoreOp(o.th.Core, o.l.mem.Handle(lockLine), 0, o.freeFn)
}

func (o *earlyReleaseOp) freed(atomics.Result) { o.enter(true) }

// release has nothing left to free.
func (o *earlyReleaseOp) release() { o.released(atomics.Result{}) }

// TestSectionAuditCatchesOverlap shows the shared section's audit is
// not vacuous: a mutex that releases before its section exits must
// report overlapping sections, and Run must fail its cell for them.
func TestSectionAuditCatchesOverlap(t *testing.T) {
	var lk *earlyReleaseLock
	// The section outlasts a lock handoff, so the next winner enters
	// while the early releaser is still inside.
	_, err := Run(appCfg(machine.Ideal(8), 8, func(e *sim.Engine, m *atomics.Memory) App {
		lk = &earlyReleaseLock{section: section{mem: m, eng: e, data: m.Handle(dataLine), crit: 500 * sim.Nanosecond}}
		return lk
	}))
	if lk.Violations() == 0 {
		t.Fatal("the section audit saw no overlap in a lock that releases before its section exits")
	}
	if err == nil || !strings.Contains(err.Error(), "critical sections overlapped") {
		t.Fatalf("Run error = %v, want the section audit's overlap", err)
	}
}

// TestEveryLockRunsTheAuditedSection runs all seven locks with a
// critical section long enough for waiters to pile up and checks each
// reached the data line through the shared section: its completed
// sections are counted there, and the audit saw no overlap.
func TestEveryLockRunsTheAuditedSection(t *testing.T) {
	m := machine.XeonE5()
	crit := 50 * sim.Nanosecond
	for _, mk := range []func(*sim.Engine, *atomics.Memory) App{
		func(e *sim.Engine, mem *atomics.Memory) App { return NewTASLock(e, mem, crit) },
		func(e *sim.Engine, mem *atomics.Memory) App { return NewTTASLock(e, mem, crit) },
		func(e *sim.Engine, mem *atomics.Memory) App {
			return NewTTASBackoffLock(e, mem, crit, 20*sim.Nanosecond, 2*sim.Microsecond)
		},
		func(e *sim.Engine, mem *atomics.Memory) App { return NewTicketLock(e, mem, crit) },
		func(e *sim.Engine, mem *atomics.Memory) App { return NewCohortLock(e, mem, m.SocketOf, crit, 4) },
		func(e *sim.Engine, mem *atomics.Memory) App { return NewCentralRWLock(e, mem, 0.5, crit) },
		func(e *sim.Engine, mem *atomics.Memory) App { return NewDistributedRWLock(e, mem, 12, 0.5, crit) },
	} {
		var app App
		res, err := Run(appCfg(m, 12, func(e *sim.Engine, mem *atomics.Memory) App {
			app = mk(e, mem)
			return app
		}))
		if err != nil {
			t.Fatal(err)
		}
		sec := app.(interface{ Ops() (uint64, uint64) })
		if reads, writes := sec.Ops(); reads+writes != res.TotalOps || writes == 0 {
			t.Errorf("%s: section counted %d reads + %d writes, want %d completed cycles with writes among them",
				res.App, reads, writes, res.TotalOps)
		}
	}
}
