package apps

import (
	"fmt"

	"atomicsmodel/internal/atomics"
	"atomicsmodel/internal/coherence"
)

// bigAtomicBase spaces the big-atomic object's version and word lines
// away from every other app's layout: the version line is at the base,
// word i's line at base+1+i.
const bigAtomicBase coherence.LineID = 1 << 29

// BigAtomic is one multi-word atomic object — the "Big Atomics"
// construction — on the simulated memory: a version line plus W data
// word lines. ReadFraction of the Steps are reads, which take the
// seqlock path (load the version, load the words, re-check the
// version; retry if a writer intervened); the rest are updates, which
// commit through a CAS2-backed acquire on the version line (cmpxchg16b
// v -> v+1, odd = locked), write the words, then publish with a release
// store of v+2. With Words == 1 the object degenerates to a single line
// updated by a plain CAS loop, so a words ladder prices the multi-word
// emulation against the primitive it replaces.
//
// Every word carries the object's generation (version/2) after an
// update, so a torn read — mixed generations surviving the version
// re-check — is detectable; Stats reports the count, which the seqlock
// protocol must keep at zero.
//
// Like the primitive layer underneath, in-flight operation state lives
// in pooled contexts whose callbacks are built once per context, so
// Read and Update are allocation-free in steady state.
type BigAtomic struct {
	mem      *atomics.Memory
	version  coherence.Line   // the version line
	word     []coherence.Line // the data word lines
	words    int
	readFrac float64

	reads   uint64
	updates uint64
	// readRetries counts every version load of a read that observed the
	// version held (odd) — each re-read of a spinning reader's local
	// copy included — plus each round a writer invalidated.
	readRetries uint64
	// commitRetries counts every version load of an update that
	// observed the version held — again each local re-read — plus each
	// acquire CAS that lost (the one-word baseline's value CAS too).
	commitRetries uint64
	torn          uint64 // mixed-generation reads (must stay 0)

	readFree []*bigReadOp
	updFree  []*bigUpdateOp
}

// NewBigAtomic builds a words-wide object; readFrac of the Steps are
// reads. It resolves the object's lines, so it lives until mem's next
// Reset. The one-word baseline never touches its version line and does
// not resolve it.
func NewBigAtomic(mem *atomics.Memory, words int, readFrac float64) (*BigAtomic, error) {
	if words < 1 {
		return nil, fmt.Errorf("apps: big-atomic needs words >= 1, got %d", words)
	}
	b := &BigAtomic{mem: mem, word: make([]coherence.Line, words), words: words, readFrac: readFrac}
	if words > 1 {
		b.version = mem.Handle(bigAtomicBase)
	}
	for i := range b.word {
		b.word[i] = mem.Handle(bigAtomicBase + 1 + coherence.LineID(i))
	}
	return b, nil
}

func (b *BigAtomic) Name() string { return "big-atomic" }

func (b *BigAtomic) Step(th *Thread, done func()) {
	if th.RNG.Float64() < b.readFrac {
		b.Read(th.Core, done)
	} else {
		b.Update(th.Core, done)
	}
}

// Stats reports completed reads and updates, read and commit retries
// (see Attempts for what they count), and torn reads (must be 0).
func (b *BigAtomic) Stats() (reads, updates, readRetries, commitRetries, torn uint64) {
	return b.reads, b.updates, b.readRetries, b.commitRetries, b.torn
}

// Attempts counts completed reads and updates plus their retries
// (RetryStats): every version load that observed the version held,
// every seqlock round a writer invalidated, and every version-acquire
// CAS that lost. A waiter spinning on its local copy of a held version
// adds one per re-read, so the count grows with the wait, not with line
// transfers; it is not the ticket lock's refetch count (lock-ticket
// Attempts).
func (b *BigAtomic) Attempts() uint64 {
	return b.reads + b.updates + b.readRetries + b.commitRetries
}

// bigReadOp is one in-flight seqlock read; its callbacks are built once
// so pooled contexts keep the read path allocation-free.
type bigReadOp struct {
	b        *BigAtomic
	core     int
	v        uint64 // version observed at round start
	gen      uint64 // first word's generation
	i        int
	mismatch bool
	done     func()
	startFn  func(atomics.Result) // version load
	wordFn   func(atomics.Result) // word load chain
	checkFn  func(atomics.Result) // version re-check
	singleFn func(atomics.Result) // one-word baseline completion
}

func (o *bigReadOp) start(r atomics.Result) {
	if r.Old&1 == 1 {
		// A writer holds the version: spin on the shared copy. Each
		// load follows a read of the held version, so each is a retry.
		o.b.mem.AwaitChange(o.core, o.b.version, r.Old, &o.b.readRetries, o.startFn)
		return
	}
	o.v = r.Old
	o.i = 0
	o.mismatch = false
	o.b.mem.LoadOp(o.core, o.b.word[0], o.wordFn)
}

func (o *bigReadOp) onWord(r atomics.Result) {
	if o.i == 0 {
		o.gen = r.Old
	} else if r.Old != o.gen {
		o.mismatch = true
	}
	o.i++
	if o.i < o.b.words {
		o.b.mem.LoadOp(o.core, o.b.word[o.i], o.wordFn)
		return
	}
	o.b.mem.LoadOp(o.core, o.b.version, o.checkFn)
}

func (o *bigReadOp) check(r atomics.Result) {
	if r.Old != o.v {
		// A writer intervened: the snapshot is invalid, start over.
		o.b.readRetries++
		o.b.mem.LoadOp(o.core, o.b.version, o.startFn)
		return
	}
	if o.mismatch || o.gen != o.v/2 {
		o.b.torn++
	}
	o.finish()
}

func (o *bigReadOp) finish() {
	b, done := o.b, o.done
	o.done = nil
	b.reads++
	b.readFree = append(b.readFree, o)
	done()
}

// Read performs one atomic multi-word read from the given core and
// calls done when the snapshot is consistent. With words == 1 it is a
// plain load.
func (b *BigAtomic) Read(core int, done func()) {
	var o *bigReadOp
	if n := len(b.readFree); n > 0 {
		o = b.readFree[n-1]
		b.readFree = b.readFree[:n-1]
	} else {
		o = &bigReadOp{b: b}
		o.startFn = o.start
		o.wordFn = o.onWord
		o.checkFn = o.check
		o.singleFn = o.singleDone
	}
	o.core, o.done = core, done
	if b.words == 1 {
		// One-word baseline: a single load of the data line.
		b.mem.LoadOp(core, b.word[0], o.singleFn)
		return
	}
	b.mem.LoadOp(core, b.version, o.startFn)
}

func (o *bigReadOp) singleDone(atomics.Result) { o.finish() }

// bigUpdateOp is one in-flight multi-word update.
type bigUpdateOp struct {
	b       *BigAtomic
	core    int
	v       uint64
	i       int
	done    func()
	loadFn  func(atomics.Result) // version load
	casFn   func(atomics.Result) // CAS2 acquire outcome
	storeFn func(atomics.Result) // word store chain
	relFn   func(atomics.Result) // release store
	sLoadFn func(atomics.Result) // one-word baseline: value load
	sCASFn  func(atomics.Result) // one-word baseline: CAS outcome
}

func (o *bigUpdateOp) onLoad(r atomics.Result) {
	if r.Old&1 == 1 {
		// Locked: spin on the shared copy until the writer publishes;
		// each load follows a read of the held version, a retry.
		o.b.mem.AwaitChange(o.core, o.b.version, r.Old, &o.b.commitRetries, o.loadFn)
		return
	}
	o.v = r.Old
	o.b.mem.CompareAndSwap2(o.core, o.b.version, o.v, o.v+1, o.casFn)
}

func (o *bigUpdateOp) onCAS(r atomics.Result) {
	if !r.OK {
		o.b.commitRetries++
		o.b.mem.LoadOp(o.core, o.b.version, o.loadFn)
		return
	}
	o.i = 0
	o.b.mem.StoreOp(o.core, o.b.word[0], o.v/2+1, o.storeFn)
}

func (o *bigUpdateOp) onStore(atomics.Result) {
	o.i++
	if o.i < o.b.words {
		o.b.mem.StoreOp(o.core, o.b.word[o.i], o.v/2+1, o.storeFn)
		return
	}
	// Publish: the release store makes the version even again.
	o.b.mem.StoreOp(o.core, o.b.version, o.v+2, o.relFn)
}

func (o *bigUpdateOp) onRelease(atomics.Result) { o.finish() }

func (o *bigUpdateOp) finish() {
	b, done := o.b, o.done
	o.done = nil
	b.updates++
	b.updFree = append(b.updFree, o)
	done()
}

// Update performs one atomic multi-word update (bumping every word's
// generation) from the given core. With words == 1 it is the classic
// single-word CAS loop.
func (b *BigAtomic) Update(core int, done func()) {
	var o *bigUpdateOp
	if n := len(b.updFree); n > 0 {
		o = b.updFree[n-1]
		b.updFree = b.updFree[:n-1]
	} else {
		o = &bigUpdateOp{b: b}
		o.loadFn = o.onLoad
		o.casFn = o.onCAS
		o.storeFn = o.onStore
		o.relFn = o.onRelease
		o.sLoadFn = o.onSingleLoad
		o.sCASFn = o.onSingleCAS
	}
	o.core, o.done = core, done
	if b.words == 1 {
		// One-word baseline: load the value, CAS value -> value+1,
		// retry with the observed value on failure.
		b.mem.LoadOp(core, b.word[0], o.sLoadFn)
		return
	}
	b.mem.LoadOp(core, b.version, o.loadFn)
}

func (o *bigUpdateOp) onSingleLoad(r atomics.Result) {
	o.v = r.Old
	o.b.mem.CompareAndSwap(o.core, o.b.word[0], o.v, o.v+1, o.sCASFn)
}

func (o *bigUpdateOp) onSingleCAS(r atomics.Result) {
	if !r.OK {
		o.b.commitRetries++
		o.v = r.Old
		o.b.mem.CompareAndSwap(o.core, o.b.word[0], o.v, o.v+1, o.sCASFn)
		return
	}
	o.finish()
}
