package apps

import (
	"atomicsmodel/internal/atomics"
	"atomicsmodel/internal/coherence"
	"atomicsmodel/internal/sim"
)

// section is the critical section every lock in this package runs once
// its acquisition succeeds: one access to the protected data line (a
// load for a read section, an increment for a write), the hold time,
// then the lock's own release. It also audits exclusion between enter
// and exit: because the simulation is one event loop, the
// activeReaders/activeWriters counters observe true simulated-time
// overlap, so violations counts real mutual-exclusion breaches, not
// sampling artifacts, and Run fails a cell that has any.
type section struct {
	mem  *atomics.Memory
	eng  *sim.Engine
	data coherence.Line
	crit sim.Time
	// readFrac is the share of a reader-writer lock's Steps that are
	// read sections; the mutexes run write sections only.
	readFrac float64

	activeReaders int
	activeWriters int
	violations    int
	reads, writes uint64
	// attempts counts acquisition attempts — the gating CAS/TAS issues,
	// ticket lock refetches and reader announce rounds — which each lock
	// increments as it issues them.
	attempts uint64
}

// Attempts counts acquisition attempts, successful or not (RetryStats).
func (s *section) Attempts() uint64 { return s.attempts }

// Violations reports observed mutual-exclusion breaches (must be 0).
func (s *section) Violations() int { return s.violations }

// Ops reports completed read and write sections.
func (s *section) Ops() (reads, writes uint64) { return s.reads, s.writes }

// releaser is a lock's release, run when its holder's section exits;
// it reads sectionOp.write to tell a read release from a write release,
// and its last access must complete with sectionOp.releasedFn.
type releaser interface{ release() }

// sectionOp is one thread's in-flight section. Each lock embeds it in
// its operation context and binds its own release when it builds the
// context.
type sectionOp struct {
	s     *section
	th    *Thread
	done  func()
	write bool
	lock  releaser

	heldFn     func(atomics.Result)
	exitFn     func()
	releasedFn func(atomics.Result)
}

func (o *sectionOp) bind(s *section, lock releaser) {
	o.s, o.lock = s, lock
	o.heldFn, o.exitFn, o.releasedFn = o.held, o.exit, o.released
}

// enter starts a read or write section once the lock is held.
func (o *sectionOp) enter(write bool) {
	s := o.s
	o.write = write
	if write {
		if s.activeWriters > 0 || s.activeReaders > 0 {
			s.violations++
		}
		s.activeWriters++
		s.mem.FetchAndAdd(o.th.Core, s.data, 1, o.heldFn)
		return
	}
	if s.activeWriters > 0 {
		s.violations++
	}
	s.activeReaders++
	s.mem.LoadOp(o.th.Core, s.data, o.heldFn)
}

func (o *sectionOp) held(atomics.Result) {
	if o.s.crit > 0 {
		o.s.eng.Schedule(o.s.crit, o.exitFn)
		return
	}
	o.exit()
}

// exit leaves the section and releases the lock.
func (o *sectionOp) exit() {
	if o.write {
		o.s.activeWriters--
	} else {
		o.s.activeReaders--
	}
	o.lock.release()
}

func (o *sectionOp) released(atomics.Result) {
	if o.write {
		o.s.writes++
	} else {
		o.s.reads++
	}
	o.done()
}
