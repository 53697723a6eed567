package workload

import (
	"fmt"

	"atomicsmodel/internal/atomics"
	"atomicsmodel/internal/coherence"
	"atomicsmodel/internal/faults"
	"atomicsmodel/internal/invariant"
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/sim"
)

// LineState enumerates the initial cache-line states of the paper's
// low-contention latency experiment: where the line is when a single
// thread executes one primitive on it.
type LineState uint8

const (
	// StateModifiedLocal: dirty in the measuring core's own cache.
	StateModifiedLocal LineState = iota
	// StateExclusiveLocal: clean-exclusive in the measuring core's cache.
	StateExclusiveLocal
	// StateShared: in S state, with the measuring core among the sharers.
	StateShared
	// StateRemoteSameSocket: dirty in another core's cache on the same
	// socket.
	StateRemoteSameSocket
	// StateRemoteOtherSocket: dirty in a core's cache on the other
	// socket (multi-socket machines only).
	StateRemoteOtherSocket
	// StateLLC: resident only at the home LLC slice.
	StateLLC
	// StateMemory: cold, in DRAM.
	StateMemory
)

func (s LineState) String() string {
	switch s {
	case StateModifiedLocal:
		return "M-local"
	case StateExclusiveLocal:
		return "E-local"
	case StateShared:
		return "Shared"
	case StateRemoteSameSocket:
		return "M-remote-socket0"
	case StateRemoteOtherSocket:
		return "M-remote-socket1"
	case StateLLC:
		return "LLC"
	case StateMemory:
		return "DRAM"
	}
	return "unknown"
}

// AllLineStates returns the states in display order.
func AllLineStates() []LineState {
	return []LineState{
		StateModifiedLocal, StateExclusiveLocal, StateShared,
		StateRemoteSameSocket, StateRemoteOtherSocket, StateLLC, StateMemory,
	}
}

// MeasureStateLatency prepares a line in the given initial state and
// measures the latency of one primitive issued by core 0. It returns an
// error for states the machine cannot express (e.g. a cross-socket
// state on single-socket KNL).
func MeasureStateLatency(m *machine.Machine, p atomics.Primitive, st LineState) (sim.Time, error) {
	return MeasureStateLatencyChecked(m, p, st, false, nil)
}

// NewProbe builds the private engine and memory of a hand-driven probe
// cell: F1's state probes and the harness's single-shot probes. audit
// is the probe's closing audit, run whether or not checking is on:
// with check set (-check) it installs an invariant checker and audit
// runs the checker's final audit; otherwise audit runs the directory's
// own invariant check, as every pooled cell does. fp, the cell's fault
// plan (-faults; nil for none), is armed on the probe's engine and
// memory as on a pooled cell.
func NewProbe(m *machine.Machine, check bool, fp *faults.CellPlan) (eng *sim.Engine, mem *atomics.Memory, audit func() error, err error) {
	if err := m.Validate(); err != nil {
		return nil, nil, nil, fmt.Errorf("workload: %w", err)
	}
	eng = sim.NewEngine()
	if mem, err = atomics.NewMemory(eng, m, nil); err != nil {
		return nil, nil, nil, err
	}
	audit = mem.System().CheckInvariants
	if check {
		audit = invariant.Install(eng, mem.System()).Finalize
	}
	fp.Install(eng, mem)
	return eng, mem, audit, nil
}

// MeasureStateLatencyChecked is MeasureStateLatency on a probe with an
// optional invariant checker and fault plan (see NewProbe), so `-check`
// and `-faults` reach the single-op probes too.
func MeasureStateLatencyChecked(m *machine.Machine, p atomics.Primitive, st LineState, check bool, fp *faults.CellPlan) (sim.Time, error) {
	eng, mem, audit, err := NewProbe(m, check, fp)
	if err != nil {
		return 0, err
	}
	return measureState(m, eng, mem, audit, p, st)
}

// measureState stages the probe's line in state st, issues p on it
// from core 0 and returns the latency, once the probe passes audit.
func measureState(m *machine.Machine, eng *sim.Engine, mem *atomics.Memory, audit func() error, p atomics.Primitive, st LineState) (sim.Time, error) {
	const line coherence.LineID = 77
	h := mem.Handle(line)
	measured, sameSocket, otherSocket := 0, m.CoresPerSocket/2, -1
	if m.Sockets > 1 {
		otherSocket = m.CoresPerSocket + m.CoresPerSocket/2
	}

	doOp := func(core int, prim atomics.Primitive) atomics.Result {
		var out atomics.Result
		mem.Do(prim, core, h, 1, 2, func(r atomics.Result) { out = r })
		eng.Drain()
		return out
	}

	switch st {
	case StateModifiedLocal:
		doOp(measured, atomics.Store)
	case StateExclusiveLocal:
		doOp(measured, atomics.Load)
	case StateShared:
		doOp(measured, atomics.Load)
		doOp(sameSocket, atomics.Load)
	case StateRemoteSameSocket:
		doOp(sameSocket, atomics.Store)
	case StateRemoteOtherSocket:
		if otherSocket < 0 {
			return 0, fmt.Errorf("workload: %s has a single socket", m.Name)
		}
		doOp(otherSocket, atomics.Store)
	case StateLLC:
		doOp(sameSocket, atomics.Store)
		mem.System().EvictPrivate(line)
	case StateMemory:
		// Leave the line untouched.
	default:
		return 0, fmt.Errorf("workload: unknown line state %d", st)
	}

	res := doOp(measured, p)
	if err := audit(); err != nil {
		return 0, fmt.Errorf("workload: %w", err)
	}
	return res.Latency, nil
}
