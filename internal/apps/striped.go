package apps

import (
	"atomicsmodel/internal/atomics"
	"atomicsmodel/internal/coherence"
)

// stripeBase spaces stripe lines far apart so each lands on its own
// cache line with a distinct home.
const stripeBase coherence.LineID = 1 << 22

// StripedCounter shards a counter over per-stripe cache lines: writers
// FAA their own stripe (usually uncontended), and an occasional reader
// sums all stripes. It is the model-guided fix for a hot FAA counter —
// trading read cost for write scalability — and the contention-
// spreading experiment (F15) quantifies the trade.
type StripedCounter struct {
	mem         *atomics.Memory
	stripes     int
	stripeLines lineSet
	// ReadFraction is the probability a Step is a full read instead of
	// an increment.
	ReadFraction float64
	reads        uint64
	incs         uint64
	ops          []*stripedOp
}

// stripedOp is one thread's in-flight increment or read sweep: the
// next stripe to load and the running sum.
type stripedOp struct {
	c      *StripedCounter
	th     *Thread
	done   func()
	i      int
	sum    uint64
	incFn  func(atomics.Result)
	loadFn func(atomics.Result)
}

// NewStripedCounter returns a counter sharded over the given number of
// stripes. readFraction sets how often a Step sums the stripes instead
// of incrementing.
func NewStripedCounter(mem *atomics.Memory, stripes int, readFraction float64) *StripedCounter {
	if stripes < 1 {
		stripes = 1
	}
	return &StripedCounter{
		mem:          mem,
		stripes:      stripes,
		stripeLines:  newLineSet(mem, stripes, strided(stripeBase, 512)),
		ReadFraction: readFraction,
	}
}

func (c *StripedCounter) Name() string { return "counter-striped" }

// Stats reports (increments, reads) performed.
func (c *StripedCounter) Stats() (incs, reads uint64) { return c.incs, c.reads }

func (c *StripedCounter) stripe(i int) coherence.Line { return c.stripeLines.at(i) }

// Value sums the stripes without simulating accesses (assertions).
func (c *StripedCounter) Value() uint64 {
	var sum uint64
	for i := 0; i < c.stripes; i++ {
		sum += c.mem.System().Value(c.stripeLines.id(i))
	}
	return sum
}

func (c *StripedCounter) newOp() *stripedOp {
	o := &stripedOp{c: c}
	o.incFn = o.incremented
	o.loadFn = o.loaded
	return o
}

func (c *StripedCounter) Step(th *Thread, done func()) {
	o := threadOp(&c.ops, th, c.newOp)
	o.th, o.done = th, done
	if th.RNG.Float64() < c.ReadFraction {
		o.i, o.sum = 0, 0
		o.readNext()
		return
	}
	c.mem.FetchAndAdd(th.Core, c.stripe(th.ID%c.stripes), 1, o.incFn)
}

func (o *stripedOp) incremented(atomics.Result) {
	o.c.incs++
	o.done()
}

// readNext loads the next stripe of a sweep over all of them (a
// consistent snapshot is not promised, matching real striped counters).
func (o *stripedOp) readNext() {
	if o.i == o.c.stripes {
		o.c.reads++
		o.done()
		return
	}
	o.c.mem.LoadOp(o.th.Core, o.c.stripe(o.i), o.loadFn)
}

func (o *stripedOp) loaded(r atomics.Result) {
	o.i++
	o.sum += r.Old
	o.readNext()
}
