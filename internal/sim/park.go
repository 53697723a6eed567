package sim

import "fmt"

// The park lane (see the package doc). A tick re-appends its chain at
// now+period with the newest sequence number; since every parked chain
// shares the lane's one period, no entry on the ring is later, so the
// ring stays sorted by (time, sequence) and merges with the heap and
// the express lane under their rule. Every entry lies within one
// period of the clock: it was appended at most a period after an
// instant that has passed.

// ParkID names a parked chain (see Park).
type ParkID int32

// parkTick is one entry of the park lane: a chain's next tick. chain
// is -1 once the chain was unparked (a dead entry, dropped when it
// reaches the head).
type parkTick struct {
	at    Time
	seq   uint64
	chain int32
}

func (p *parkTick) before(at Time, seq uint64) bool {
	return p.at < at || (p.at == at && p.seq < seq)
}

// parkChain is one chain's state: ticks dispatched since it parked,
// and the absolute lane position of its pending tick.
type parkChain struct {
	ticks uint64
	pos   uint64
}

// parkMinCap is the ring's initial capacity (a power of two).
const parkMinCap = 16

// Park starts a parked chain for owner: its first tick is due after
// period, with exactly the (time, sequence) place ScheduleAs(owner,
// period, fn) would give an event, and every tick re-arms the next one
// a period later. It declines — parking nothing — when a perturbation
// hook is installed (a perturbed repeat would not keep the period), or
// when period is not positive or differs from the period of the chains
// already parked.
func (e *Engine) Park(owner int32, period Time) (ParkID, bool) {
	if e.perturb != nil || period <= 0 {
		return 0, false
	}
	if e.parkHead != e.parkTail && period != e.parkPeriod {
		return 0, false
	}
	e.parkPeriod = period
	if e.parkTail-e.parkHead == uint64(len(e.park)) {
		e.growPark()
	}
	var id int32
	if n := len(e.chainFree); n > 0 {
		id = e.chainFree[n-1]
		e.chainFree = e.chainFree[:n-1]
	} else {
		id = int32(len(e.chains))
		e.chains = append(e.chains, parkChain{})
	}
	e.chains[id] = parkChain{pos: e.parkTail}
	e.park[e.parkTail&e.parkMask] = parkTick{at: e.now + period, seq: e.nextSeq(ownerTag(owner)), chain: id}
	e.parkTail++
	e.addPending()
	return ParkID(id), true
}

// growPark doubles the ring, keeping every entry at its absolute
// position.
func (e *Engine) growPark() {
	n := 2 * len(e.park)
	if n < parkMinCap {
		n = parkMinCap
	}
	ring := make([]parkTick, n)
	for pos := e.parkHead; pos != e.parkTail; pos++ {
		ring[pos&uint64(n-1)] = e.park[pos&e.parkMask]
	}
	e.park, e.parkMask = ring, uint64(n-1)
}

// ParkTicks reports how many ticks chain id has dispatched since it
// parked.
func (e *Engine) ParkTicks(id ParkID) uint64 { return e.chains[id].ticks }

// ParkDue reports when chain id's pending tick is due.
func (e *Engine) ParkDue(id ParkID) Time { return e.park[e.chains[id].pos&e.parkMask].at }

// Unpark ends chain id: its pending tick becomes a real event running
// fn at the tick's own (time, sequence), so fn runs exactly where the
// chain's next repeat would have. It reports the ticks the chain
// dispatched while parked. The pending count is unchanged: one tick
// became one event.
func (e *Engine) Unpark(id ParkID, fn func()) uint64 {
	ch := &e.chains[id]
	p := &e.park[ch.pos&e.parkMask]
	e.heap.push(event{at: p.at, seq: p.seq, fn: fn})
	p.chain = -1
	e.chainFree = append(e.chainFree, int32(id))
	e.trimPark()
	return ch.ticks
}

// ParkEntries counts the live lane entries naming chain id — exactly
// one while the chain is parked. Invariant checking uses it; it scans
// the whole lane.
func (e *Engine) ParkEntries(id ParkID) int {
	n := 0
	for pos := e.parkHead; pos != e.parkTail; pos++ {
		if e.park[pos&e.parkMask].chain == int32(id) {
			n++
		}
	}
	return n
}

// Parked reports the number of parked chains.
func (e *Engine) Parked() int { return len(e.chains) - len(e.chainFree) }

// trimPark drops dead entries from the head, so a non-empty lane always
// starts with a live tick.
func (e *Engine) trimPark() {
	for e.parkHead != e.parkTail && e.park[e.parkHead&e.parkMask].chain < 0 {
		e.parkHead++
	}
}

// tick dispatches the lane's head: the bookkeeping of one processed
// event with no callback, then the chain's re-arm one period later.
func (e *Engine) tick() {
	p := e.park[e.parkHead&e.parkMask]
	if e.monotone != nil && p.at < e.now {
		e.monotone(fmt.Errorf("sim: event time moved backwards: dequeued parked tick t=%v seq=%d with clock at %v", p.at, p.seq>>ownerBits, e.now))
	}
	// The tick is still counted in pending (it is re-armed, not popped).
	e.pendIntegral += Time(e.pending) * (p.at - e.now)
	e.now = p.at
	e.processed++
	if e.eventHook != nil {
		e.eventHook(e.processed)
	}
	tag := seqTag(p.seq)
	e.cur = tag
	e.parkHead++
	ch := &e.chains[p.chain]
	ch.ticks++
	ch.pos = e.parkTail
	e.park[e.parkTail&e.parkMask] = parkTick{at: p.at + e.parkPeriod, seq: e.nextSeq(tag), chain: p.chain}
	e.parkTail++
	e.trimPark()
	if e.idleHook != nil {
		e.idleHook()
	}
}

// jumpEnd returns the instant a closed-form jump of the park lane may
// run to — the last before the next real event (on the heap or the
// express lane), capped at limit — and whether a jump pays there: the
// lane's head must be due at least two periods' worth of ticks before
// it. The jump stands down under an event hook, which counts every
// dispatch, and an idle hook, which runs after every dispatch; then
// each tick is dispatched on its own.
func (e *Engine) jumpEnd(head, limit Time) (Time, bool) {
	if e.eventHook != nil || e.idleHook != nil {
		return 0, false
	}
	end := limit
	if e.exHead < len(e.express) && e.express[e.exHead].at-1 < end {
		end = e.express[e.exHead].at - 1
	}
	if len(e.heap) > 0 && e.heap[0].at-1 < end {
		end = e.heap[0].at - 1
	}
	return end, head+e.parkPeriod <= end
}

// parkJump is one chain of a closed-form jump: its last tick at or
// before the jump's end, the number of ticks it dispatches, and the
// chain and owner tag to re-arm.
type parkJump struct {
	last  Time
	ticks uint64
	chain int32
	tag   int32
}

// jumpTicks dispatches, in closed form, every parked tick due at or
// before end, where nothing but ticks is due (jumpEnd): each chain's
// tick count grows by its k ticks in the stretch, Processed by their
// sum, the queue-time integral by pending × the time the stretch
// covers, and the clock moves to the last tick. Each jumped chain is
// re-armed a period after its last tick with a fresh sequence number.
//
// This is exact. A tick schedules nothing, so no event is created in
// the stretch and every tick in it runs after every pending event was
// scheduled: the sequence numbers the ticks take one by one are all
// greater than every pending event's and less than every future one's.
// Fresh numbers taken in the order the chains' last ticks dispatch
// therefore place the re-armed chains exactly where tick-by-tick
// dispatch does. That order is by last-tick time and, at equal times,
// fewer ticks first: a chain with fewer ticks in the stretch started
// it a whole number of periods later, still holding the sequence
// number it had before the stretch, which precedes every number taken
// in it, and from then on it re-arms first at every shared instant.
// Chains with equal counts started at the same instant and keep their
// ring order.
//
// Since the ring spans at most one period, the jumped prefix splits
// into the chains with the most ticks (a ring-order prefix, kmax) and
// those with one fewer (the rest); each part is ordered by last tick
// already, so the order is one merge with ties to the second part.
func (e *Engine) jumpTicks(end Time) {
	head := &e.park[e.parkHead&e.parkMask]
	if e.monotone != nil && head.at < e.now {
		e.monotone(fmt.Errorf("sim: event time moved backwards: dequeued parked tick t=%v seq=%d with clock at %v", head.at, head.seq>>ownerBits, e.now))
	}
	period := e.parkPeriod
	js := e.jumpScratch[:0]
	pos := e.parkHead
	for ; pos != e.parkTail; pos++ {
		p := &e.park[pos&e.parkMask]
		if p.at > end {
			break
		}
		if p.chain < 0 {
			continue
		}
		k := uint64((end-p.at)/period) + 1
		js = append(js, parkJump{last: p.at + Time(k-1)*period, ticks: k, chain: p.chain, tag: seqTag(p.seq)})
	}
	e.parkHead = pos
	split := len(js)
	for i := range js {
		if js[i].ticks != js[0].ticks {
			split = i
			break
		}
	}
	more, fewer := js[:split], js[split:]
	var total uint64
	var last Time
	for len(more) > 0 || len(fewer) > 0 {
		var j *parkJump
		if len(fewer) == 0 || (len(more) > 0 && more[0].last < fewer[0].last) {
			j, more = &more[0], more[1:]
		} else {
			j, fewer = &fewer[0], fewer[1:]
		}
		ch := &e.chains[j.chain]
		ch.ticks += j.ticks
		ch.pos = e.parkTail
		e.park[e.parkTail&e.parkMask] = parkTick{at: j.last + period, seq: e.nextSeq(j.tag), chain: j.chain}
		e.parkTail++
		total += j.ticks
		last = j.last
	}
	e.jumpScratch = js
	// Ticks are never popped, so pending holds across the stretch.
	e.pendIntegral += Time(e.pending) * (last - e.now)
	e.now = last
	e.processed += total
	e.trimPark()
}

// resetPark empties the lane and forgets every chain, keeping the
// ring's capacity.
func (e *Engine) resetPark() {
	e.parkHead, e.parkTail = 0, 0
	e.parkPeriod = 0
	e.chains = e.chains[:0]
	e.chainFree = e.chainFree[:0]
}
