package apps

import (
	"atomicsmodel/internal/atomics"
	"atomicsmodel/internal/coherence"
	"atomicsmodel/internal/sim"
)

const (
	rwLockLine coherence.LineID = 170
	rwDataLine coherence.LineID = 190
	rwFlagLine coherence.LineID = 210
	rwSlotBase coherence.LineID = 1 << 24
)

// rwCommon carries the pieces both reader-writer locks share: the mix,
// the protected data, and exact overlap instrumentation. Because the
// simulation is one event loop, the activeReaders/activeWriters
// counters observe true simulated-time overlap — Violations counts
// real mutual-exclusion breaches, not sampling artifacts.
type rwCommon struct {
	mem      *atomics.Memory
	eng      *sim.Engine
	readFrac float64
	crit     sim.Time

	activeReaders int
	activeWriters int
	violations    int
	reads, writes uint64
	attempts      uint64
}

// Attempts counts acquisition attempts — the gating CAS/TAS issues and
// reader announce rounds, successful or not (RetryStats).
func (c *rwCommon) Attempts() uint64 { return c.attempts }

func (c *rwCommon) enterRead() {
	if c.activeWriters > 0 {
		c.violations++
	}
	c.activeReaders++
}

func (c *rwCommon) exitRead() { c.activeReaders-- }

func (c *rwCommon) enterWrite() {
	if c.activeWriters > 0 || c.activeReaders > 0 {
		c.violations++
	}
	c.activeWriters++
}

func (c *rwCommon) exitWrite() { c.activeWriters-- }

// Violations reports observed mutual-exclusion breaches (must be 0).
func (c *rwCommon) Violations() int { return c.violations }

// Ops reports completed read and write sections.
func (c *rwCommon) Ops() (reads, writes uint64) { return c.reads, c.writes }

// rwOp is one thread's in-flight section on a reader-writer lock: the
// critical-section and release tail both locks share. Each lock binds
// its own release for read and write sections when it builds the
// context.
type rwOp struct {
	c    *rwCommon
	th   *Thread
	done func()

	releaseRead, releaseWrite       func()
	readDataFn, writeDataFn         func(atomics.Result)
	exitReadFn, exitWriteFn         func()
	readReleasedFn, writeReleasedFn func(atomics.Result)
}

func (o *rwOp) bind(c *rwCommon, releaseRead, releaseWrite func()) {
	o.c = c
	o.releaseRead, o.releaseWrite = releaseRead, releaseWrite
	o.readDataFn, o.writeDataFn = o.readData, o.writeData
	o.exitReadFn, o.exitWriteFn = o.exitRead, o.exitWrite
	o.readReleasedFn, o.writeReleasedFn = o.readReleased, o.writeReleased
}

// criticalRead performs the protected read section then releases.
func (o *rwOp) criticalRead() {
	o.c.enterRead()
	o.c.mem.LoadOp(o.th.Core, rwDataLine, o.readDataFn)
}

func (o *rwOp) readData(atomics.Result) {
	if o.c.crit > 0 {
		o.c.eng.Schedule(o.c.crit, o.exitReadFn)
	} else {
		o.exitRead()
	}
}

func (o *rwOp) exitRead() {
	o.c.exitRead()
	o.releaseRead()
}

func (o *rwOp) readReleased(atomics.Result) {
	o.c.reads++
	o.done()
}

// criticalWrite performs the protected update then releases.
func (o *rwOp) criticalWrite() {
	o.c.enterWrite()
	o.c.mem.FetchAndAdd(o.th.Core, rwDataLine, 1, o.writeDataFn)
}

func (o *rwOp) writeData(atomics.Result) {
	if o.c.crit > 0 {
		o.c.eng.Schedule(o.c.crit, o.exitWriteFn)
	} else {
		o.exitWrite()
	}
}

func (o *rwOp) exitWrite() {
	o.c.exitWrite()
	o.releaseWrite()
}

func (o *rwOp) writeReleased(atomics.Result) {
	o.c.writes++
	o.done()
}

// CentralRWLock is the textbook single-word reader-writer spinlock:
// bit 0 is the writer flag, the upper bits count readers. Every reader
// acquisition and release is an RMW on the one lock line, so a
// read-mostly workload still bounces it — the design the model warns
// about.
type CentralRWLock struct {
	rwCommon
	ops []*centralOp
}

// centralOp is one thread's in-flight section on the central lock: the
// lock word a read acquisition observed.
type centralOp struct {
	rwOp
	l *CentralRWLock
	v uint64

	rLoadFn, rCASFn, wLoadFn, wCASFn func(atomics.Result)
}

// NewCentralRWLock returns the one-line reader-writer lock; readFrac of
// the Steps are read sections, crit is the section length.
func NewCentralRWLock(eng *sim.Engine, mem *atomics.Memory, readFrac float64, crit sim.Time) *CentralRWLock {
	return &CentralRWLock{rwCommon: rwCommon{mem: mem, eng: eng, readFrac: readFrac, crit: crit}}
}

func (l *CentralRWLock) Name() string { return "rwlock-central" }

func (l *CentralRWLock) newOp() *centralOp {
	o := &centralOp{l: l}
	o.bind(&l.rwCommon, o.readRelease, o.writeRelease)
	o.rLoadFn, o.rCASFn = o.readLoaded, o.readCAS
	o.wLoadFn, o.wCASFn = o.writeLoaded, o.writeCAS
	return o
}

func (l *CentralRWLock) Step(th *Thread, done func()) {
	o := threadOp(&l.ops, th, l.newOp)
	o.th, o.done = th, done
	if th.RNG.Float64() < l.readFrac {
		o.readAcquire()
	} else {
		o.writeAcquire()
	}
}

func (o *centralOp) readAcquire() {
	o.l.mem.LoadOp(o.th.Core, rwLockLine, o.rLoadFn)
}

func (o *centralOp) readLoaded(r atomics.Result) {
	if r.Old&1 == 1 {
		// Writer active: spin on the shared copy.
		o.l.mem.AwaitChange(o.th.Core, rwLockLine, r.Old, nil, o.rLoadFn)
		return
	}
	o.v = r.Old
	o.l.attempts++
	o.l.mem.CompareAndSwap(o.th.Core, rwLockLine, o.v, o.v+2, o.rCASFn)
}

func (o *centralOp) readCAS(rc atomics.Result) {
	if !rc.OK {
		o.readAcquire()
		return
	}
	o.criticalRead()
}

// readRelease subtracts 2 (adds the two's complement).
func (o *centralOp) readRelease() {
	o.l.mem.FetchAndAdd(o.th.Core, rwLockLine, ^uint64(1), o.readReleasedFn)
}

func (o *centralOp) writeAcquire() {
	o.l.mem.LoadOp(o.th.Core, rwLockLine, o.wLoadFn)
}

func (o *centralOp) writeLoaded(r atomics.Result) {
	if r.Old != 0 {
		// Busy: spin on the shared copy.
		o.l.mem.AwaitChange(o.th.Core, rwLockLine, r.Old, nil, o.wLoadFn)
		return
	}
	o.l.attempts++
	o.l.mem.CompareAndSwap(o.th.Core, rwLockLine, 0, 1, o.wCASFn)
}

func (o *centralOp) writeCAS(rc atomics.Result) {
	if !rc.OK {
		o.writeAcquire()
		return
	}
	o.criticalWrite()
}

func (o *centralOp) writeRelease() {
	o.l.mem.StoreOp(o.th.Core, rwLockLine, 0, o.writeReleasedFn)
}

// DistributedRWLock is the big-reader design: each thread announces
// itself on its own cache line (readers never touch a shared line on
// the fast path), and a writer raises a central flag then scans every
// reader slot. Reads scale; writes pay O(threads) — the trade the
// model prices via its private-vs-shared line distinction.
type DistributedRWLock struct {
	rwCommon
	slots int
	ops   []*distOp
}

// distOp is one thread's in-flight section on the distributed lock:
// the reader slot a writer's scan has reached.
type distOp struct {
	rwOp
	l *DistributedRWLock
	i int

	flagFn, announcedFn, recheckFn, withdrawnFn func(atomics.Result)
	flagTASFn, scanFn                           func(atomics.Result)
}

// NewDistributedRWLock returns the per-reader-slot lock for up to slots
// reader threads (thread IDs index the slots).
func NewDistributedRWLock(eng *sim.Engine, mem *atomics.Memory, slots int, readFrac float64, crit sim.Time) *DistributedRWLock {
	return &DistributedRWLock{rwCommon: rwCommon{mem: mem, eng: eng, readFrac: readFrac, crit: crit}, slots: slots}
}

func (l *DistributedRWLock) Name() string { return "rwlock-distributed" }

func (l *DistributedRWLock) slot(id int) coherence.LineID {
	return rwSlotBase + coherence.LineID(id)*512
}

func (l *DistributedRWLock) newOp() *distOp {
	o := &distOp{l: l}
	o.bind(&l.rwCommon, o.readRelease, o.writeRelease)
	o.flagFn, o.announcedFn = o.flagLoaded, o.announced
	o.recheckFn, o.withdrawnFn = o.rechecked, o.withdrawn
	o.flagTASFn, o.scanFn = o.flagTAS, o.scanned
	return o
}

func (l *DistributedRWLock) Step(th *Thread, done func()) {
	o := threadOp(&l.ops, th, l.newOp)
	o.th, o.done = th, done
	if th.RNG.Float64() < l.readFrac {
		o.readAcquire()
	} else {
		o.writeAcquire()
	}
}

func (o *distOp) readAcquire() {
	o.l.mem.LoadOp(o.th.Core, rwFlagLine, o.flagFn)
}

func (o *distOp) flagLoaded(r atomics.Result) {
	if r.Old != 0 {
		// Writer present: spin on the flag.
		o.l.mem.AwaitChange(o.th.Core, rwFlagLine, r.Old, nil, o.flagFn)
		return
	}
	// Announce, then re-check the flag (Dekker-style handshake).
	o.l.attempts++
	o.l.mem.StoreOp(o.th.Core, o.l.slot(o.th.ID), 1, o.announcedFn)
}

func (o *distOp) announced(atomics.Result) {
	o.l.mem.LoadOp(o.th.Core, rwFlagLine, o.recheckFn)
}

func (o *distOp) rechecked(r2 atomics.Result) {
	if r2.Old != 0 {
		// A writer raced in: withdraw and retry.
		o.l.mem.StoreOp(o.th.Core, o.l.slot(o.th.ID), 0, o.withdrawnFn)
		return
	}
	o.criticalRead()
}

func (o *distOp) withdrawn(atomics.Result) { o.readAcquire() }

func (o *distOp) readRelease() {
	o.l.mem.StoreOp(o.th.Core, o.l.slot(o.th.ID), 0, o.readReleasedFn)
}

func (o *distOp) writeAcquire() {
	o.l.attempts++
	o.l.mem.TestAndSet(o.th.Core, rwFlagLine, o.flagTASFn)
}

func (o *distOp) flagTAS(r atomics.Result) {
	if r.Old != 0 {
		o.writeAcquire() // another writer holds the flag
		return
	}
	o.i = 0
	o.scan()
}

// scan waits for every announced reader to drain, then runs the write
// section.
func (o *distOp) scan() {
	if o.i == o.l.slots {
		o.criticalWrite()
		return
	}
	o.l.mem.LoadOp(o.th.Core, o.l.slot(o.i), o.scanFn)
}

func (o *distOp) scanned(r atomics.Result) {
	if r.Old != 0 {
		// A reader is still inside: spin on its slot.
		o.l.mem.AwaitChange(o.th.Core, o.l.slot(o.i), r.Old, nil, o.scanFn)
		return
	}
	o.i++
	o.scan()
}

func (o *distOp) writeRelease() {
	o.l.mem.StoreOp(o.th.Core, rwFlagLine, 0, o.writeReleasedFn)
}
