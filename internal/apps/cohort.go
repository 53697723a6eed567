package apps

import (
	"atomicsmodel/internal/atomics"
	"atomicsmodel/internal/coherence"
	"atomicsmodel/internal/sim"
)

const (
	cohortGlobalLine coherence.LineID = 230
	cohortLocalBase  coherence.LineID = 1 << 25
)

// CohortLock is the NUMA-aware lock the model's cross-socket numbers
// motivate: a per-socket local TAS lock plus a global TAS lock. A
// thread first wins its socket's lock, then the global one; on release
// it prefers handing the global lock to a same-socket successor (by
// releasing only the local lock while keeping the global one, up to a
// handoff budget), so the lock's data lines cross QPI once per cohort
// instead of once per critical section.
type CohortLock struct {
	section
	// MaxHandoffs bounds same-socket handoffs before the global lock
	// must be surrendered (fairness across sockets).
	MaxHandoffs int
	socketOf    func(core int) int
	// global is the global lock word; locals holds each socket's.
	global coherence.Line
	locals lineSet

	// handoffs counts same-socket passes of the global lock.
	handoffs uint64
	// passCount counts the local handoffs the socket holding the global
	// lock has consumed (bookkeeping mirrors the simulated lock words;
	// it never substitutes for them).
	passCount int
	ops       []*cohortOp
}

// cohortOp is one thread's in-flight acquire-release cycle on its
// socket's cohort.
type cohortOp struct {
	sectionOp
	l      *CohortLock
	socket int

	localFn     func(atomics.Result)
	globalFn    func(atomics.Result)
	casFn       func(atomics.Result)
	surrenderFn func(atomics.Result)
}

// NewCohortLock builds the lock for machine-described socket mapping.
func NewCohortLock(eng *sim.Engine, mem *atomics.Memory, socketOf func(core int) int, crit sim.Time, maxHandoffs int) *CohortLock {
	if maxHandoffs < 1 {
		maxHandoffs = 16
	}
	return &CohortLock{
		section:     section{mem: mem, eng: eng, data: mem.Handle(dataLine), crit: crit},
		MaxHandoffs: maxHandoffs,
		socketOf:    socketOf,
		global:      mem.Handle(cohortGlobalLine),
		locals:      newLineSet(mem, mem.Machine().Sockets, strided(cohortLocalBase, 512)),
	}
}

func (l *CohortLock) Name() string { return "lock-cohort" }

func (l *CohortLock) mutex() {}

// Handoffs reports same-socket global-lock passes (the cross-socket
// traffic avoided).
func (l *CohortLock) Handoffs() uint64 { return l.handoffs }

func (l *CohortLock) localLine(socket int) coherence.Line { return l.locals.at(socket) }

func (l *CohortLock) newOp() *cohortOp {
	o := &cohortOp{l: l}
	o.bind(&l.section, o)
	o.localFn = o.localTAS
	o.globalFn = o.globalLoaded
	o.casFn = o.globalCAS
	o.surrenderFn = o.surrendered
	return o
}

func (l *CohortLock) Step(th *Thread, done func()) {
	o := threadOp(&l.ops, th, l.newOp)
	o.th, o.done = th, done
	o.socket = l.socketOf(th.Core)
	o.spinLocal()
}

// spinLocal spins on the socket's local lock line; the winner checks
// whether its cohort already owns the global lock (value == socket+1)
// and otherwise acquires it.
func (o *cohortOp) spinLocal() {
	o.l.attempts++
	o.l.mem.TestAndSet(o.th.Core, o.l.localLine(o.socket), o.localFn)
}

func (o *cohortOp) localTAS(r atomics.Result) {
	if r.Old != 0 {
		o.spinLocal()
		return
	}
	// Local lock held. Does the cohort hold the global lock?
	o.l.mem.LoadOp(o.th.Core, o.l.global, o.globalFn)
}

func (o *cohortOp) globalLoaded(rg atomics.Result) {
	if rg.Old == uint64(o.socket+1) {
		o.enter(true) // inherited via local handoff
		return
	}
	o.acquireGlobal()
}

func (o *cohortOp) acquireGlobal() {
	o.l.attempts++
	o.l.mem.CompareAndSwap(o.th.Core, o.l.global, 0, uint64(o.socket+1), o.casFn)
}

func (o *cohortOp) globalCAS(r atomics.Result) {
	if !r.OK {
		o.acquireGlobal()
		return
	}
	o.l.passCount = 0
	o.enter(true)
}

// release hands off within the socket when the budget allows (keep the
// global lock, free the local one), else surrenders both.
func (o *cohortOp) release() {
	l := o.l
	l.passCount++
	if l.passCount < l.MaxHandoffs {
		l.handoffs++
		l.mem.StoreOp(o.th.Core, l.localLine(o.socket), 0, o.releasedFn)
		return
	}
	// Surrender the global lock first, then the local one.
	l.mem.StoreOp(o.th.Core, l.global, 0, o.surrenderFn)
}

func (o *cohortOp) surrendered(atomics.Result) {
	o.l.mem.StoreOp(o.th.Core, o.l.localLine(o.socket), 0, o.releasedFn)
}
