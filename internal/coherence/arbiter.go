package coherence

import (
	"fmt"

	"atomicsmodel/internal/sim"
)

// Arbiter decides which queued request a line controller grants next.
// This is where hardware fairness (or the lack of it) lives: the paper's
// fairness results come from the fact that real coherence arbitration is
// not FIFO — requesters topologically close to the line's current owner
// win races more often, which starves distant cores on NUMA machines.
type Arbiter interface {
	// Pick returns the index into l.waiting() — the line's live queue
	// window, oldest request first — of the request to grant. The
	// window is non-empty when Pick is called.
	Pick(s *System, l *lineState) int
	// Name identifies the policy in experiment tables.
	Name() string
}

// StatelessArbiter is an optional marker for arbiters whose Pick
// neither mutates state nor draws randomness, so a pick from a
// single-element queue can be elided entirely. Under such an arbiter an
// access to an idle line is granted directly, without queueing or
// calling Pick (System.Access); a stateful arbiter keeps the queued
// path, since eliding its pick would desynchronize its stream
// (RandomArbiter consumes one RNG draw even for a singleton queue).
type StatelessArbiter interface {
	// StatelessPick is a marker; it is never called.
	StatelessPick()
}

// FIFOArbiter grants requests strictly in arrival order: an idealized,
// perfectly fair interconnect (Jain's index ≈ 1).
type FIFOArbiter struct{}

func (FIFOArbiter) Pick(s *System, l *lineState) int { return 0 }
func (FIFOArbiter) Name() string                     { return "fifo" }
func (FIFOArbiter) StatelessPick()                   {}

// RandomArbiter grants a uniformly random queued request. Memoryless
// arbitration is statistically fair in the long run but produces higher
// per-thread variance than FIFO.
type RandomArbiter struct {
	RNG *sim.RNG
}

// NewRandomArbiter returns a random arbiter with its own RNG stream.
func NewRandomArbiter(seed uint64) *RandomArbiter {
	return &RandomArbiter{RNG: sim.NewRNG(seed)}
}

func (a *RandomArbiter) Pick(s *System, l *lineState) int {
	return a.RNG.Intn(l.qlen())
}
func (a *RandomArbiter) Name() string { return "random" }

// LocalityArbiter grants the queued request whose core is topologically
// nearest to the line's current location (owner if any, else home).
// This models real snoop-race behaviour: the core closest to the data
// observes the line first and wins, which maximizes throughput (shorter
// transfers) but starves far-away cores — the unfairness the paper
// measures on multi-socket machines. Ties break in arrival order, and a
// starvation bound (MaxSkips) eventually forces the oldest request
// through, mirroring hardware anti-starvation timers.
type LocalityArbiter struct {
	// MaxSkips is how many times a request may be bypassed before it is
	// force-granted; <= 0 means unbounded (pure locality).
	MaxSkips int
}

func (a *LocalityArbiter) Pick(s *System, l *lineState) int {
	if a.MaxSkips > 0 {
		for i, r := range l.waiting() {
			// A waiter's live bypass count is the grants since it joined.
			if int(l.grants-r.skipBase) >= a.MaxSkips {
				return i
			}
		}
	}
	cur := l.home
	if l.owner >= 0 {
		cur = s.nodeOf[l.owner]
	}
	best, bestD := 0, int(^uint(0)>>1)
	for i, r := range l.waiting() {
		d := int(s.thops[s.nodeOf[r.core]*s.tn+cur])
		if d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

func (a *LocalityArbiter) StatelessPick() {}

func (a *LocalityArbiter) Name() string {
	if a.MaxSkips > 0 {
		return "locality-bounded"
	}
	return "locality"
}

// NewByName builds an arbiter from its policy name, the resolution used
// by declarative workload specs. "fifo" returns the value FIFOArbiter{}
// — deliberately not a pointer, and equivalent to leaving the arbiter
// nil, so both System.SetArbiter and the fast-forward memoizer treat a
// spec-built FIFO cell exactly like a hand-written one. skips bounds a
// locality arbiter's starvation window (0 = unbounded) and is rejected
// for the other policies; seed feeds the random arbiter's RNG stream
// and is ignored by the stateless policies.
func NewByName(name string, skips int, seed uint64) (Arbiter, error) {
	if skips < 0 {
		return nil, fmt.Errorf("coherence: negative arbiter skip bound %d", skips)
	}
	switch name {
	case "fifo":
		if skips != 0 {
			return nil, fmt.Errorf("coherence: arbiter %q takes no skip bound", name)
		}
		return FIFOArbiter{}, nil
	case "random":
		if skips != 0 {
			return nil, fmt.Errorf("coherence: arbiter %q takes no skip bound", name)
		}
		return NewRandomArbiter(seed), nil
	case "locality":
		return &LocalityArbiter{MaxSkips: skips}, nil
	}
	return nil, fmt.Errorf("coherence: unknown arbiter %q (want one of %v)", name, ArbiterNames())
}

// ArbiterNames lists the policy names NewByName accepts.
func ArbiterNames() []string {
	return []string{"fifo", "random", "locality"}
}
