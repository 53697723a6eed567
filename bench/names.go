package bench

// Metric declares one reported metric: its name, unit, and whether a
// lower or a higher value is better. BENCHMARK.json at the repository
// root declares the same lists; TestBenchmarkJSONMatchesDriver keeps
// the two in step.
type Metric struct {
	Name   string
	Unit   string
	Better string
}

// EndToEnd are the metrics a user of the simulator sees, reported by
// every untraced run of every workload. An "operation" is the unit of
// work the workload repeats: one sweep, one resume, or one atomicd
// request (see Workloads).
var EndToEnd = []Metric{
	{"setup_s", "s", "lower"},
	{"op_p50_ms", "ms", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"rss_mb", "MB", "lower"},
}

// PerLayer are the metrics of single layers, reported by traced runs.
// Each is measured from the benchmark's side of a public API call; a
// layer the workload does not use reports 0.
var PerLayer = []Metric{
	{"harness.cells_fresh", "count", "lower"},
	{"harness.cell_ms_p50", "ms", "lower"},
	{"harness.cell_ms_p90", "ms", "lower"},
	{"harness.par_util", "ratio", "higher"},
	{"harness.replay_cell_us_p50", "us", "lower"},
	{"harness.replay_ms_p90", "ms", "lower"},
	{"harness.render_ms", "ms", "lower"},
	{"harness.self_ms", "ms", "lower"},

	{"runlog.open_ms", "ms", "lower"},
	{"runlog.entries", "count", "lower"},
	{"runlog.file_kb", "KB", "lower"},
	{"runlog.manifest_kb", "KB", "lower"},
	{"runlog.get_us_p50", "us", "lower"},
	{"runlog.put_us_p50", "us", "lower"},
	{"runlog.quarantined", "count", "lower"},

	{"workload.simops", "count", "higher"},
	{"workload.host_ns_per_simop", "ns", "lower"},
	{"workload.success_ratio", "ratio", "higher"},

	{"coherence.accesses", "count", "higher"},
	{"coherence.host_ns_per_access", "ns", "lower"},
	{"coherence.remote_xfer_frac", "ratio", "lower"},

	{"sim.events", "count", "higher"},
	{"sim.host_ns_per_event", "ns", "lower"},

	{"metrics.cell_overhead_x", "ratio", "lower"},
	{"metrics.snapshot_kb_p50", "KB", "lower"},

	{"bottleneck.analyze_us_p50", "us", "lower"},

	{"apps.cell_ms_p50", "ms", "lower"},
	{"apps.cell_ms_p90", "ms", "lower"},
	{"apps.host_ns_per_simop", "ns", "lower"},
	{"apps.attempts_per_op", "ratio", "lower"},

	{"predict.eval_us_p50", "us", "lower"},
	{"predict.mape_pct", "%", "lower"},

	{"jobs.submit_ms_p50", "ms", "lower"},
	{"jobs.spec_id_us_p50", "us", "lower"},
	{"jobs.wait_ms_p50", "ms", "lower"},
	{"jobs.wait_ms_p90", "ms", "lower"},
	{"jobs.dedup_submit_ms_p50", "ms", "lower"},
	{"jobs.result_ms_p50", "ms", "lower"},
	{"jobs.request_ms_p90", "ms", "lower"},
	{"jobs.cache_hit_frac", "ratio", "higher"},
	{"jobs.shed", "count", "lower"},

	{"bench.trace_overhead_pct", "%", "lower"},
	{"bench.ref_ms", "ms", "lower"},
}
