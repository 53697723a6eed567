package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"atomicsmodel/internal/apps"
	"atomicsmodel/internal/bottleneck"
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/metrics"
	"atomicsmodel/internal/predict"
	"atomicsmodel/internal/runlog"
	"atomicsmodel/internal/stats"
	"atomicsmodel/internal/workload"
)

// layers reports a traced sweep's per-layer metrics: the harness and
// run-log timings its passes collected, then measurements made on the
// latest fresh pass's run directory — the cache's get and put costs,
// and the simulated work decoded from every cached cell result.
func (s *sweep) layers(r *run) error {
	ls := s.collected
	r.setLayer("harness.cells_fresh", Median(ls.cellsFresh))
	r.setLayer("harness.cell_ms_p50", Median(ls.freshMS))
	r.setLayer("harness.cell_ms_p90", Percentile(ls.freshMS, 90))
	r.setLayer("harness.par_util", Median(ls.parUtil))
	r.setLayer("harness.replay_cell_us_p50", 1000*Median(ls.cachedMS))
	if s.resume {
		r.setLayer("harness.replay_ms_p90", Percentile(r.latMS, 90))
	}
	r.setLayer("harness.render_ms", Median(ls.renderMS))
	r.setLayer("harness.self_ms", Median(ls.self))
	r.setLayer("runlog.open_ms", Median(ls.openMS))
	r.setLayer("apps.cell_ms_p50", Median(ls.appMS))
	r.setLayer("apps.cell_ms_p90", Percentile(ls.appMS, 90))

	recs, err := readManifest(s.freshDir)
	if err != nil {
		return err
	}
	c, err := runlog.OpenCacheReadOnly(s.freshDir)
	if err != nil {
		return err
	}
	r.setLayer("runlog.entries", float64(c.Len()))
	r.setLayer("runlog.quarantined", float64(len(c.Quarantined())))
	for name, file := range map[string]string{"runlog.file_kb": cacheFile, "runlog.manifest_kb": manifestFile} {
		fi, err := os.Stat(filepath.Join(s.freshDir, file))
		if err != nil {
			return err
		}
		r.setLayer(name, float64(fi.Size())/1024)
	}

	payloads, err := s.cacheTraffic(r, c, recs)
	if err != nil {
		return err
	}
	if err := s.cellLayers(r, recs, payloads); err != nil {
		return err
	}
	if s.appSpecs != nil {
		if err := s.predictLayer(r, recs, payloads); err != nil {
			return err
		}
	}
	if s.fleetSpecs != nil {
		return s.metricsOverhead(r)
	}
	return nil
}

// cacheTraffic times a Get of every manifest key against the run's
// cache, then a Put of the same payloads into a scratch cache, and
// returns the payloads by key.
func (s *sweep) cacheTraffic(r *run, c *runlog.Cache, all []runlog.CellRecord) (map[string][]byte, error) {
	var recs []runlog.CellRecord
	for _, rec := range all {
		if rec.Key != "" { // anonymous cells are never cached
			recs = append(recs, rec)
		}
	}
	payloads := map[string][]byte{}
	var getUS, putUS []float64
	sp := r.tr.begin("runlog", fmt.Sprintf("runlog.Get x%d", len(recs)), "main", 0)
	for _, rec := range recs {
		t0 := time.Now()
		raw, _, ok := c.Get(rec.Key)
		getUS = append(getUS, us(time.Since(t0)))
		if !ok {
			r.tr.end(sp)
			return nil, fmt.Errorf("manifest cell %q is not in the cache", rec.Key)
		}
		payloads[rec.Key] = raw
	}
	r.tr.end(sp)

	dir := filepath.Join(r.dir, "scratch-cache")
	scratch, err := runlog.OpenCache(dir)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	sp = r.tr.begin("runlog", fmt.Sprintf("runlog.Put x%d", len(recs)), "main", 0)
	for _, rec := range recs {
		t0 := time.Now()
		if _, err := scratch.Put(rec.Key, payloads[rec.Key]); err != nil {
			scratch.Close()
			return nil, err
		}
		putUS = append(putUS, us(time.Since(t0)))
	}
	r.tr.end(sp)
	if err := scratch.Close(); err != nil {
		return nil, err
	}
	r.setLayer("runlog.get_us_p50", Median(getUS))
	r.setLayer("runlog.put_us_p50", Median(putUS))
	return payloads, nil
}

// cellLayers decodes every fresh cell's cached result and relates the
// simulated work it reports (operations, coherence accesses, engine
// events) to the host time its manifest record took.
func (s *sweep) cellLayers(r *run, recs []runlog.CellRecord, payloads map[string][]byte) error {
	var wlOps, wlAttempts, wlMS, accesses, remote, events, eventMS float64
	var appOps, appMS, appAttempts, appTotal float64
	var snaps []*metrics.Snapshot
	var snapKB []float64
	for _, rec := range recs {
		switch cellLayer(rec.Key) {
		case "workload":
			var res workload.Result
			if err := json.Unmarshal(payloads[rec.Key], &res); err != nil {
				return fmt.Errorf("cell %q: %w", rec.Key, err)
			}
			wlOps += float64(res.Ops)
			wlAttempts += float64(res.Attempts)
			wlMS += rec.WallMS
			accesses += float64(res.Coh.Accesses)
			remote += float64(res.Coh.RemoteXfers)
			if res.Metrics != nil {
				ev, _ := res.Metrics.Counter(metrics.SimEvents)
				events += float64(ev)
				eventMS += rec.WallMS
				b, err := json.Marshal(res.Metrics)
				if err != nil {
					return err
				}
				snapKB = append(snapKB, float64(len(b))/1024)
				snaps = append(snaps, res.Metrics)
			}
		case "apps":
			var res apps.RunResult
			if err := json.Unmarshal(payloads[rec.Key], &res); err != nil {
				return fmt.Errorf("cell %q: %w", rec.Key, err)
			}
			appOps += float64(res.Ops)
			appMS += rec.WallMS
			if res.Attempts > 0 {
				appAttempts += float64(res.Attempts)
				appTotal += float64(res.TotalOps)
			}
		}
	}
	r.setLayer("workload.simops", wlOps)
	r.setLayer("workload.host_ns_per_simop", ratio(wlMS*1e6, wlOps))
	r.setLayer("workload.success_ratio", ratio(wlOps, wlAttempts))
	r.setLayer("coherence.accesses", accesses)
	r.setLayer("coherence.host_ns_per_access", ratio(wlMS*1e6, accesses))
	r.setLayer("coherence.remote_xfer_frac", ratio(remote, accesses))
	r.setLayer("sim.events", events)
	r.setLayer("sim.host_ns_per_event", ratio(eventMS*1e6, events))
	r.setLayer("metrics.snapshot_kb_p50", Median(snapKB))
	r.setLayer("apps.host_ns_per_simop", ratio(appMS*1e6, appOps))
	r.setLayer("apps.attempts_per_op", ratio(appAttempts, appTotal))

	if len(snaps) == 0 {
		return nil
	}
	var analyzeUS []float64
	sp := r.tr.begin("bottleneck", fmt.Sprintf("bottleneck.Analyze x%d", len(snaps)), "main", 0)
	defer r.tr.end(sp)
	for _, snap := range snaps {
		t0 := time.Now()
		if _, err := bottleneck.Analyze(snap); err != nil {
			return err
		}
		analyzeUS = append(analyzeUS, us(time.Since(t0)))
	}
	r.setLayer("bottleneck.analyze_us_p50", Median(analyzeUS))
	return nil
}

// predictLayer evaluates the conflict model for every A-suite cell —
// predict.Measured on the cell's cached result, then predict.ForSpec —
// timing each evaluation and measuring the model's mean absolute
// relative error against the simulated throughput.
//
// The loop mirrors the cell enumeration of harness.runAppSuite
// (machine, spec, ladder point, skipping machine-incompatible specs
// and points beyond the hardware threads) and pairs the cells with
// their manifest records by cell index; it must be kept in step with
// that function. A mismatch is reported as an error, not miscounted.
func (s *sweep) predictLayer(r *run, recs []runlog.CellRecord, payloads map[string][]byte) error {
	var aRecs []runlog.CellRecord
	for _, rec := range recs {
		if rec.Exp == "A" {
			aRecs = append(aRecs, rec)
		}
	}
	sort.Slice(aRecs, func(i, j int) bool { return aRecs[i].Cell < aRecs[j].Cell })
	var evalUS, modelMops, simMops []float64
	sp := r.tr.begin("predict", fmt.Sprintf("predict.ForSpec x%d", len(aRecs)), "main", 0)
	defer r.tr.end(sp)
	k := 0
	for _, m := range s.opts.Machines {
		for _, spec := range s.appSpecs {
			if spec.CheckMachine(m) != nil {
				continue
			}
			for _, pt := range spec.Expand() {
				if pt.Threads > m.NumHWThreads() {
					continue
				}
				if k >= len(aRecs) || !strings.Contains(aRecs[k].Key, m.Key()+"/app@") {
					return fmt.Errorf("A-suite cell %d of %s/%s has no matching manifest record", k, m.Name, spec.Label())
				}
				var res apps.RunResult
				if err := json.Unmarshal(payloads[aRecs[k].Key], &res); err != nil {
					return err
				}
				k++
				t0 := time.Now()
				mops, err := predict.ForSpec(m, pt, predict.Measured(&res))
				evalUS = append(evalUS, us(time.Since(t0)))
				if err != nil {
					return err
				}
				modelMops = append(modelMops, mops)
				simMops = append(simMops, res.ThroughputMops)
			}
		}
	}
	if k != len(aRecs) {
		return fmt.Errorf("rebuilt %d A-suite cells, the manifest has %d", k, len(aRecs))
	}
	r.setLayer("predict.eval_us_p50", Median(evalUS))
	r.setLayer("predict.mape_pct", stats.MeanAbsPctError(modelMops, simMops))
	return nil
}

// metricsOverhead runs a fixed sample of fleet cells — each fleet
// spec's middle ladder point on XeonE5 — through workload.Run with
// metrics off and then on, and reports the on/off host-time ratio.
func (s *sweep) metricsOverhead(r *run) error {
	m, err := machine.ByName("XeonE5")
	if err != nil {
		return err
	}
	sp := r.tr.begin("metrics", "metrics overhead sample", "main", 0)
	defer r.tr.end(sp)
	var off, on time.Duration
	for _, spec := range s.fleetSpecs {
		pts := spec.Expand()
		pt := pts[len(pts)/2]
		if pt.Threads > m.NumHWThreads() {
			continue
		}
		cfg, err := pt.Config(m)
		if err != nil {
			return err
		}
		for _, withMetrics := range []bool{false, true} {
			cfg.Metrics = withMetrics
			t0 := time.Now()
			if _, err := workload.Run(cfg); err != nil {
				return err
			}
			if withMetrics {
				on += time.Since(t0)
			} else {
				off += time.Since(t0)
			}
		}
	}
	r.setLayer("metrics.cell_overhead_x", ratio(float64(on), float64(off)))
	return nil
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
