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

// CentralRWLock is the textbook single-word reader-writer spinlock:
// bit 0 is the writer flag, the upper bits count readers. Every reader
// acquisition and release is an RMW on the one lock line, so a
// read-mostly workload still bounces it — the design the model warns
// about.
type CentralRWLock struct {
	section
	word coherence.Line
	ops  []*centralOp
}

// centralOp is one thread's in-flight section on the central lock: the
// lock word a read acquisition observed.
type centralOp struct {
	sectionOp
	l *CentralRWLock
	v uint64

	rLoadFn, rCASFn, wLoadFn, wCASFn func(atomics.Result)
}

// NewCentralRWLock returns the one-line reader-writer lock; readFrac of
// the Steps are read sections, crit is the section length.
func NewCentralRWLock(eng *sim.Engine, mem *atomics.Memory, readFrac float64, crit sim.Time) *CentralRWLock {
	return &CentralRWLock{
		section: section{mem: mem, eng: eng, data: mem.Handle(rwDataLine), readFrac: readFrac, crit: crit},
		word:    mem.Handle(rwLockLine),
	}
}

func (l *CentralRWLock) Name() string { return "rwlock-central" }

func (l *CentralRWLock) newOp() *centralOp {
	o := &centralOp{l: l}
	o.bind(&l.section, o)
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
	o.l.mem.LoadOp(o.th.Core, o.l.word, o.rLoadFn)
}

func (o *centralOp) readLoaded(r atomics.Result) {
	if r.Old&1 == 1 {
		// Writer active: spin on the shared copy.
		o.l.mem.AwaitChange(o.th.Core, o.l.word, r.Old, nil, o.rLoadFn)
		return
	}
	o.v = r.Old
	o.l.attempts++
	o.l.mem.CompareAndSwap(o.th.Core, o.l.word, o.v, o.v+2, o.rCASFn)
}

func (o *centralOp) readCAS(rc atomics.Result) {
	if !rc.OK {
		o.readAcquire()
		return
	}
	o.enter(false)
}

func (o *centralOp) writeAcquire() {
	o.l.mem.LoadOp(o.th.Core, o.l.word, o.wLoadFn)
}

func (o *centralOp) writeLoaded(r atomics.Result) {
	if r.Old != 0 {
		// Busy: spin on the shared copy.
		o.l.mem.AwaitChange(o.th.Core, o.l.word, r.Old, nil, o.wLoadFn)
		return
	}
	o.l.attempts++
	o.l.mem.CompareAndSwap(o.th.Core, o.l.word, 0, 1, o.wCASFn)
}

func (o *centralOp) writeCAS(rc atomics.Result) {
	if !rc.OK {
		o.writeAcquire()
		return
	}
	o.enter(true)
}

// release clears the writer bit, or subtracts a reader's 2 (adds the
// two's complement).
func (o *centralOp) release() {
	if o.write {
		o.l.mem.StoreOp(o.th.Core, o.l.word, 0, o.releasedFn)
		return
	}
	o.l.mem.FetchAndAdd(o.th.Core, o.l.word, ^uint64(1), o.releasedFn)
}

// DistributedRWLock is the big-reader design: each thread announces
// itself on its own cache line (readers never touch a shared line on
// the fast path), and a writer raises a central flag then scans every
// reader slot. Reads scale; writes pay O(threads) — the trade the
// model prices via its private-vs-shared line distinction.
type DistributedRWLock struct {
	section
	slots     int
	flag      coherence.Line
	slotLines lineSet
	ops       []*distOp
}

// distOp is one thread's in-flight section on the distributed lock:
// the reader slot a writer's scan has reached.
type distOp struct {
	sectionOp
	l *DistributedRWLock
	i int

	flagFn, announcedFn, recheckFn, withdrawnFn func(atomics.Result)
	flagTASFn, scanFn                           func(atomics.Result)
}

// NewDistributedRWLock returns the per-reader-slot lock for up to slots
// reader threads (thread IDs index the slots).
func NewDistributedRWLock(eng *sim.Engine, mem *atomics.Memory, slots int, readFrac float64, crit sim.Time) *DistributedRWLock {
	return &DistributedRWLock{
		section:   section{mem: mem, eng: eng, data: mem.Handle(rwDataLine), readFrac: readFrac, crit: crit},
		slots:     slots,
		flag:      mem.Handle(rwFlagLine),
		slotLines: newLineSet(mem, slots, strided(rwSlotBase, 512)),
	}
}

func (l *DistributedRWLock) Name() string { return "rwlock-distributed" }

func (l *DistributedRWLock) slot(id int) coherence.Line { return l.slotLines.at(id) }

func (l *DistributedRWLock) newOp() *distOp {
	o := &distOp{l: l}
	o.bind(&l.section, o)
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
	o.l.mem.LoadOp(o.th.Core, o.l.flag, o.flagFn)
}

func (o *distOp) flagLoaded(r atomics.Result) {
	if r.Old != 0 {
		// Writer present: spin on the flag.
		o.l.mem.AwaitChange(o.th.Core, o.l.flag, r.Old, nil, o.flagFn)
		return
	}
	// Announce, then re-check the flag (Dekker-style handshake).
	o.l.attempts++
	o.l.mem.StoreOp(o.th.Core, o.l.slot(o.th.ID), 1, o.announcedFn)
}

func (o *distOp) announced(atomics.Result) {
	o.l.mem.LoadOp(o.th.Core, o.l.flag, o.recheckFn)
}

func (o *distOp) rechecked(r2 atomics.Result) {
	if r2.Old != 0 {
		// A writer raced in: withdraw and retry.
		o.l.mem.StoreOp(o.th.Core, o.l.slot(o.th.ID), 0, o.withdrawnFn)
		return
	}
	o.enter(false)
}

func (o *distOp) withdrawn(atomics.Result) { o.readAcquire() }

func (o *distOp) writeAcquire() {
	o.l.attempts++
	o.l.mem.TestAndSet(o.th.Core, o.l.flag, o.flagTASFn)
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
		o.enter(true)
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

// release lowers the writer flag, or clears the reader's slot.
func (o *distOp) release() {
	if o.write {
		o.l.mem.StoreOp(o.th.Core, o.l.flag, 0, o.releasedFn)
		return
	}
	o.l.mem.StoreOp(o.th.Core, o.l.slot(o.th.ID), 0, o.releasedFn)
}
