package workload

import (
	"testing"

	"atomicsmodel/internal/atomics"
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/sim"
)

func TestStateLatencyOrdering(t *testing.T) {
	// The paper's central low-contention result: latency is ordered by
	// where the line is — own cache < LLC < remote cache (same socket)
	// < remote cache (other socket) < DRAM-ish. We assert the orderings
	// that hold by construction of the protocol.
	m := machine.XeonE5()
	lat := map[LineState]sim.Time{}
	for _, st := range AllLineStates() {
		v, err := MeasureStateLatency(m, atomics.FAA, st)
		if err != nil {
			t.Fatalf("%v: %v", st, err)
		}
		lat[st] = v
	}
	if !(lat[StateModifiedLocal] < lat[StateLLC]) {
		t.Errorf("M-local (%v) should beat LLC (%v)", lat[StateModifiedLocal], lat[StateLLC])
	}
	if !(lat[StateModifiedLocal] < lat[StateRemoteSameSocket]) {
		t.Errorf("M-local (%v) should beat remote (%v)", lat[StateModifiedLocal], lat[StateRemoteSameSocket])
	}
	if !(lat[StateRemoteSameSocket] < lat[StateRemoteOtherSocket]) {
		t.Errorf("same-socket (%v) should beat cross-socket (%v)",
			lat[StateRemoteSameSocket], lat[StateRemoteOtherSocket])
	}
	if !(lat[StateLLC] < lat[StateMemory]) {
		t.Errorf("LLC (%v) should beat DRAM (%v)", lat[StateLLC], lat[StateMemory])
	}
	if lat[StateModifiedLocal] != lat[StateExclusiveLocal] {
		t.Errorf("RMW on own M (%v) vs own E (%v) should match (silent upgrade)",
			lat[StateModifiedLocal], lat[StateExclusiveLocal])
	}
}

func TestStateLatencyLoadVsRMWOnOwnedLine(t *testing.T) {
	m := machine.XeonE5()
	load, err := MeasureStateLatency(m, atomics.Load, StateModifiedLocal)
	if err != nil {
		t.Fatal(err)
	}
	faa, err := MeasureStateLatency(m, atomics.FAA, StateModifiedLocal)
	if err != nil {
		t.Fatal(err)
	}
	if load >= faa {
		t.Fatalf("owned-line load (%v) should be cheaper than FAA (%v)", load, faa)
	}
	// The gap is the locked-instruction execution cost.
	if faa-load != m.Lat.ExecFAA {
		t.Fatalf("FAA - load = %v, want ExecFAA %v", faa-load, m.Lat.ExecFAA)
	}
}

func TestStateLatencySharedRequiresInvalidation(t *testing.T) {
	m := machine.XeonE5()
	shared, err := MeasureStateLatency(m, atomics.FAA, StateShared)
	if err != nil {
		t.Fatal(err)
	}
	llc, err := MeasureStateLatency(m, atomics.FAA, StateLLC)
	if err != nil {
		t.Fatal(err)
	}
	if shared <= llc {
		t.Fatalf("RMW on shared line (%v) should exceed LLC fill (%v): invalidation", shared, llc)
	}
}

func TestStateLatencyCrossSocketUnavailableOnKNL(t *testing.T) {
	if _, err := MeasureStateLatency(machine.KNL(), atomics.FAA, StateRemoteOtherSocket); err == nil {
		t.Fatal("single-socket KNL should reject cross-socket state")
	}
}

func TestKNLRemoteSlowerThanXeonSameSocket(t *testing.T) {
	x, err := MeasureStateLatency(machine.XeonE5(), atomics.FAA, StateRemoteSameSocket)
	if err != nil {
		t.Fatal(err)
	}
	k, err := MeasureStateLatency(machine.KNL(), atomics.FAA, StateRemoteSameSocket)
	if err != nil {
		t.Fatal(err)
	}
	if k <= x {
		t.Fatalf("KNL tile-to-tile (%v) should be slower than Xeon same-socket (%v)", k, x)
	}
}

func TestLineStateStrings(t *testing.T) {
	for _, st := range AllLineStates() {
		if st.String() == "unknown" {
			t.Errorf("state %d has no name", st)
		}
	}
	if LineState(99).String() != "unknown" {
		t.Error("unknown state")
	}
}

// TestStateProbeAudits: F1's state probe runs the closing audit every
// simulation runs, with checking off too, so a corrupted directory
// fails the probe instead of yielding a latency.
func TestStateProbeAudits(t *testing.T) {
	m := machine.XeonE5()
	for _, check := range []bool{false, true} {
		eng, mem, audit, err := NewProbe(m, check)
		if err != nil {
			t.Fatal(err)
		}
		mem.System().BreakLine(5, 3) // a line the probe never touches
		if lat, err := measureState(m, eng, mem, audit, atomics.FAA, StateRemoteSameSocket); err == nil {
			t.Errorf("check=%v: broken directory measured %v, want the audit error", check, lat)
		}
	}
}
