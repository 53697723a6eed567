package sim

// PushRaw injects an event directly into the heap, bypassing the At
// clamp. It exists only so tests can construct the corrupted-heap state
// (an event timestamped in the past) the monotonicity checker guards
// against; no production path can create it.
func (e *Engine) PushRaw(at Time, fn func()) {
	e.heap.push(event{at: at, seq: e.nextSeq(0), fn: fn})
	e.addPending()
}
