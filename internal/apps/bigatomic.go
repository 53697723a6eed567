package apps

import (
	"atomicsmodel/internal/atomics"
	"atomicsmodel/internal/coherence"
)

// bigAtomicBase spaces the big-atomic object's version and word lines
// away from every other app's layout.
const bigAtomicBase coherence.LineID = 1 << 29

// BigAtomicApp drives one multi-word atomic object
// (atomics.BigAtomic): ReadFraction of the Steps take the seqlock read
// path, the rest commit an update through the CAS2-backed version
// lock. With Words == 1 it degenerates to the single-word CAS
// baseline, so a words ladder prices the multi-word emulation against
// the primitive it replaces.
type BigAtomicApp struct {
	obj      *atomics.BigAtomic
	readFrac float64
}

// NewBigAtomicApp builds a words-wide object; readFrac of the Steps
// are reads.
func NewBigAtomicApp(mem *atomics.Memory, words int, readFrac float64) (*BigAtomicApp, error) {
	obj, err := atomics.NewBigAtomic(mem, bigAtomicBase, words)
	if err != nil {
		return nil, err
	}
	return &BigAtomicApp{obj: obj, readFrac: readFrac}, nil
}

func (a *BigAtomicApp) Name() string { return "big-atomic" }

// Attempts counts completed operations plus read and commit retries
// (RetryStats); see atomics.BigAtomic.Attempts for what a retry is.
func (a *BigAtomicApp) Attempts() uint64 { return a.obj.Attempts() }

func (a *BigAtomicApp) Step(th *Thread, done func()) {
	if th.RNG.Float64() < a.readFrac {
		a.obj.Read(th.Core, done)
	} else {
		a.obj.Update(th.Core, done)
	}
}
