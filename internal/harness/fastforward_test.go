package harness

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"atomicsmodel/internal/apps"
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/workload"
)

// TestFastForwardDifferential is the soundness regression test for the
// steady-state cycle memoizer (internal/workload's analytic
// fast-forward): every experiment must render byte-identical tables
// with the memoizer disabled and enabled. The memoizer elides verified
// periodic cycles analytically, so the only acceptable difference is
// how many events the engine dispatches — never a reported number.
// Every cell of F4 is a CAS cell, and at least one of them must have
// jumped, so the CAS half of the differential cannot pass vacuously.
func TestFastForwardDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment twice")
	}
	if !workload.FastForwardEnabled() {
		t.Fatal("fast-forward must default to on")
	}
	ids := IDs()
	workload.SetFastForward(false)
	slow := renderAll(t, quickOpts(), ids)
	workload.SetFastForward(true)
	var fast string
	for _, id := range ids {
		before := workload.FastForwardJumps()
		fast += renderAll(t, quickOpts(), []string{id})
		if id == "F4" && workload.FastForwardJumps() == before {
			t.Error("no F4 CAS cell fast-forwarded")
		}
	}
	if slow != fast {
		t.Fatalf("fast-forward changed experiment output:\n--- ff off ---\n%s\n--- ff on ---\n%s", slow, fast)
	}
}

// TestFastForwardMetricsDifferential extends the differential to the
// cell shapes the memoizer accepts beyond the paper suite, with metrics
// on: the quick fleet sweep over every workload preset plus
// examples/workloads/*.json on every registered machine, and the W
// suite over the same specs with a metrics collector attached. Both the
// rendered tables and every collected snapshot's JSON must be
// byte-identical with the memoizer off and on.
func TestFastForwardMetricsDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the fleet sweep twice")
	}
	var specs []*workload.Spec
	for _, name := range workload.SpecNames() {
		s, err := workload.SpecByName(name)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, s)
	}
	files, err := filepath.Glob("../../examples/workloads/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no example workload specs found (err %v)", err)
	}
	for _, f := range files {
		s, err := workload.LoadSpecFile(f)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, s)
	}
	run := func() (tables, snaps string) {
		fleet, fleetSnaps := collectMetrics(t, FleetExperiment(specs, 0), Options{Quick: true, Seed: 42, Par: 1})
		w, wSnaps := collectMetrics(t, WorkloadExperiment(specs), quickOpts())
		return fleet + w, fleetSnaps + "\n" + wSnaps
	}
	defer workload.SetFastForward(true)
	workload.SetFastForward(false)
	slowT, slowM := run()
	workload.SetFastForward(true)
	fastT, fastM := run()
	if slowT != fastT {
		t.Fatalf("fast-forward changed the fleet/W tables:\n--- ff off ---\n%s\n--- ff on ---\n%s", slowT, fastT)
	}
	if slowM != fastM {
		t.Fatalf("fast-forward changed the metrics snapshots:\n--- ff off ---\n%s\n--- ff on ---\n%s", slowM, fastM)
	}
}

// TestFastForwardAppDifferential extends the differential to the A
// suite, whose spin loops park under the fast-forward gate
// (coherence.System.Await): every registered app preset plus
// examples/apps/*.json on XeonE5 and KNL, plain and with a metrics
// collector attached. The tables and every collected snapshot's JSON
// must be byte-identical with fast-forward (and so parking) off and on.
func TestFastForwardAppDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the A suite four times")
	}
	files, err := filepath.Glob("../../examples/apps/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no example app specs found (err %v)", err)
	}
	specs, err := apps.SelectSpecs(strings.Join(apps.SpecNames(), ","), strings.Join(files, ","))
	if err != nil {
		t.Fatal(err)
	}
	ms, err := machine.Select("XeonE5,KNL", "")
	if err != nil {
		t.Fatal(err)
	}
	o := Options{Machines: ms, Quick: true, Seed: 42, Par: 1}
	run := func() (tables, snaps string) {
		plain, err := RunExperiment(AppExperiment(specs), o)
		if err != nil {
			t.Fatal(err)
		}
		metricsTables, snaps := collectMetrics(t, AppExperiment(specs), o)
		return renderTables(t, plain) + metricsTables, snaps
	}
	defer workload.SetFastForward(true)
	workload.SetFastForward(false)
	slowT, slowM := run()
	workload.SetFastForward(true)
	fastT, fastM := run()
	if slowT != fastT {
		t.Fatalf("fast-forward changed the A-suite tables:\n--- ff off ---\n%s\n--- ff on ---\n%s", slowT, fastT)
	}
	if slowM != fastM {
		t.Fatalf("fast-forward changed the A-suite metrics snapshots:\n--- ff off ---\n%s\n--- ff on ---\n%s", slowM, fastM)
	}
}

// collectMetrics runs e with a metrics collector attached and returns
// its rendered tables and the collected cells as JSON.
func collectMetrics(t *testing.T, e *Experiment, o Options) (string, string) {
	t.Helper()
	o.Metrics = &MetricsCollector{}
	tables, err := RunExperiment(e, o)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(o.Metrics.Cells())
	if err != nil {
		t.Fatal(err)
	}
	return renderTables(t, tables), string(raw)
}
