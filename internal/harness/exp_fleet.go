package harness

import (
	"fmt"

	"atomicsmodel/internal/bottleneck"
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/workload"
)

// FleetExperiment wraps workload specs as a fleet sweep: every spec
// runs on every machine in the registry (not just the default pair),
// metrics are forced on so each cell yields an occupancy snapshot, and
// the tables carry the internal/bottleneck rollup — per-resource
// utilization per ladder point, the saturating resource's verdict, and
// the knee thread count where it first crosses the threshold. See
// BOTTLENECKS.md for how to read the output. Like WorkloadExperiment
// it is not in the registry: its cells depend on the user's spec and
// machine selection. Cells share the same digest-keyed cache namespace
// as any other metrics-on workload cell ("FLEET|...|metrics=on|" +
// machineKey + "/wl@" + digest), so an interrupted sweep resumes
// without recomputing finished cells.
func FleetExperiment(specs []*workload.Spec, threshold float64) *Experiment {
	if threshold <= 0 {
		threshold = bottleneck.DefaultThreshold
	}
	return &Experiment{
		ID:    "FLEET",
		Title: "Fleet sweep: cross-architecture bottleneck analysis",
		Claim: "per-resource occupancy names which resource saturates first on each architecture, and at what thread count",
		Run: func(o Options) ([]*Table, error) {
			return runFleetSweep(o, specs, threshold)
		},
	}
}

// fleetMachines is the fleet's machine selection: an explicit
// -machines list wins; otherwise every registered spec (EPYC, Grace,
// KNL, XeonE5, XeonSP, ... — not machine.All()'s default pair).
func fleetMachines(o Options) ([]*machine.Machine, error) {
	if len(o.Machines) > 0 {
		return o.Machines, nil
	}
	var ms []*machine.Machine
	for _, name := range machine.Names() {
		m, err := machine.ByName(name)
		if err != nil {
			return nil, err
		}
		ms = append(ms, m)
	}
	return ms, nil
}

// runFleetSweep runs every spec ladder on every fleet machine and rolls
// each cell's metrics snapshot into a bottleneck report: one ladder
// table per machine x spec, then one cross-architecture summary table
// per spec with the per-machine verdict as columns.
func runFleetSweep(o Options, specs []*workload.Spec, threshold float64) ([]*Table, error) {
	machines, err := fleetMachines(o)
	if err != nil {
		return nil, err
	}
	o.Machines = machines
	// The rollup needs snapshots, so metrics are always on for fleet
	// cells — which also tags their cache keys "|metrics=on", keeping
	// them disjoint from metrics-off runs of the same spec.
	if o.Metrics == nil {
		o.Metrics = &MetricsCollector{}
	}

	groups, err := workloadKind.suite(o, specs, nil)
	if err != nil {
		return nil, err
	}

	// Per-machine ladder tables, accumulating each ladder's points for
	// knee detection and each machine's peak for the summary.
	type fleetRow struct {
		machine      string
		peakMops     float64
		peakThreads  int
		verdict      bottleneck.Verdict
		kneeThreads  int
		kneeResource string
	}
	summaries := map[*workload.Spec][]fleetRow{}
	var tables []*Table
	for _, g := range groups {
		t := NewTable(
			fmt.Sprintf("FLEET (%s): %s", g.m.Name, g.spec.Label()),
			"threads", "Mops", "dir util", "line util", "link util", "queue avg", "bottleneck")
		var points []bottleneck.Point
		row := fleetRow{machine: g.m.Name}
		for i, pt := range g.points {
			res := g.results[i]
			rep, aerr := bottleneck.Analyze(res.Metrics)
			if aerr != nil {
				return nil, fmt.Errorf("fleet cell %s/%s t=%d: %w", g.m.Name, g.spec.Label(), pt.Threads, aerr)
			}
			points = append(points, bottleneck.Point{Threads: pt.Threads, Report: rep})
			v := rep.Verdict(threshold)
			t.AddRow(itoa(pt.Threads), f2(res.ThroughputMops),
				utilCell(rep.Dir), utilCell(rep.Line), utilCell(rep.Link),
				f2(rep.QueueAvg), verdictCell(v))
			if res.ThroughputMops > row.peakMops {
				row.peakMops, row.peakThreads = res.ThroughputMops, pt.Threads
				row.verdict = v
			}
		}
		if len(g.points) > 0 {
			kn, kr, ku := bottleneck.Knee(points, threshold)
			row.kneeThreads, row.kneeResource = kn, kr
			if kn > 0 {
				t.AddNote("knee: %s utilization first exceeds %.0f%% at %d threads (%.0f%%)",
					kr, threshold*100, kn, ku*100)
			} else {
				t.AddNote("no resource exceeds %.0f%% utilization on this ladder", threshold*100)
			}
		}
		g.noteFit(t)
		summaries[g.spec] = append(summaries[g.spec], row)
		tables = append(tables, t)
	}

	// Cross-architecture summary: one table per spec, one row per
	// machine, the bottleneck verdict as a column.
	for _, s := range specs {
		rows := summaries[s]
		if rows == nil {
			continue
		}
		t := NewTable(
			fmt.Sprintf("FLEET summary: %s across %d machines", s.Label(), len(rows)),
			"machine", "peak Mops", "at threads", "bottleneck", "util at peak", "knee threads")
		for _, r := range rows {
			knee := "-"
			if r.kneeThreads > 0 {
				knee = fmt.Sprintf("%d (%s)", r.kneeThreads, r.kneeResource)
			}
			t.AddRow(r.machine, f2(r.peakMops), itoa(r.peakThreads),
				r.verdict.Resource, pct(r.verdict.Util*100), knee)
		}
		t.AddNote("bottleneck/util at peak: most-utilized resource in the peak-throughput cell; knee: first ladder point over %.0f%% (see BOTTLENECKS.md)", threshold*100)
		tables = append(tables, t)
	}
	return tables, nil
}

// utilCell renders one resource's utilization ("n/a" when the cell
// recorded no vector for it, e.g. links on a single-node topology).
func utilCell(u bottleneck.Utilization) string {
	if !u.OK {
		return "n/a"
	}
	return pct(u.Util * 100)
}

// verdictCell renders the saturating-resource column: resource plus
// utilization, flagged with '!' once past the threshold.
func verdictCell(v bottleneck.Verdict) string {
	if v.Resource == "none" {
		return "n/a"
	}
	mark := ""
	if v.Saturated {
		mark = " !"
	}
	return fmt.Sprintf("%s %s%s", v.Resource, pct(v.Util*100), mark)
}
