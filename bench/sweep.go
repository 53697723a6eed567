package bench

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"atomicsmodel/internal/apps"
	"atomicsmodel/internal/harness"
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/runlog"
	"atomicsmodel/internal/workload"
)

// sweepPar is the sweeps' harness Par. Cells run one at a time, so the
// Progress call after each cell is a point where the process runs
// nothing and a calibration can be taken (see ref.go); with two workers
// the only such points are between passes, seconds apart, and the
// host's speed drifts within a pass.
const sweepPar = 1

// detailPasses bounds how many operations of a traced run get per-cell
// spans and manifest analysis; later operations get only their
// aggregate spans, so a trace of hundreds of resumes stays small.
const detailPasses = 3

// The run directory's file names, as internal/runlog documents them.
const (
	manifestFile = "manifest.jsonl"
	cacheFile    = "cells.jsonl"
)

// sweep is a workload whose operation is one pass over harness
// experiments, driven exactly as `atomicsim -manifest` (fresh) or
// `atomicsim -resume` (resume) drives them.
type sweep struct {
	exps []*harness.Experiment
	opts harness.Options
	// resume makes the operation a resume: one fresh pass fills the
	// run directory first, then every operation replays it.
	resume bool
	// appSpecs and fleetSpecs are the A-suite and fleet specs, kept for
	// the predict and metrics-overhead layer measurements.
	appSpecs   []*apps.Spec
	fleetSpecs []*workload.Spec

	golden    []byte // tables of the first pass; every pass must match
	freshDir  string // run directory of the latest fresh pass
	passes    int
	inWindow  bool // passes may take calibrations
	collected layerSamples
}

// layerSamples accumulates the per-cell observations of traced passes.
type layerSamples struct {
	freshMS, appMS, cachedMS  []float64
	cellsFresh, parUtil, self []float64
	renderMS, openMS          []float64
}

func openF3(r *run, root string) (instance, error) {
	m, err := machine.ByName("XeonE5")
	if err != nil {
		return nil, err
	}
	e, err := harness.ByID("F3")
	if err != nil {
		return nil, err
	}
	return &sweep{exps: []*harness.Experiment{e}, opts: sweepOptions(r, m)}, nil
}

func openAppsSuite(r *run, root string) (instance, error) {
	files, err := exampleFiles(root, "apps")
	if err != nil {
		return nil, err
	}
	specs, err := apps.SelectSpecs(strings.Join(apps.SpecNames(), ","), files)
	if err != nil {
		return nil, err
	}
	names := "XeonE5,KNL"
	if r.smoke {
		names = "XeonE5"
	}
	ms, err := machine.Select(names, "")
	if err != nil {
		return nil, err
	}
	return &sweep{exps: []*harness.Experiment{harness.AppExperiment(specs)}, opts: sweepOptions(r, ms...), appSpecs: specs}, nil
}

func openFleet(r *run, root string) (instance, error) {
	files, err := exampleFiles(root, "workloads")
	if err != nil {
		return nil, err
	}
	specs, err := workload.SelectSpecs(strings.Join(workload.SpecNames(), ","), files)
	if err != nil {
		return nil, err
	}
	names := machine.Names()
	if r.smoke {
		names = []string{"XeonE5", "Grace"}
	}
	ms, err := machine.Select(strings.Join(names, ","), "")
	if err != nil {
		return nil, err
	}
	exp := harness.FleetExperiment(specs, 0)
	return &sweep{exps: []*harness.Experiment{exp}, opts: sweepOptions(r, ms...), fleetSpecs: specs}, nil
}

func openQuickResume(r *run, root string) (instance, error) {
	exps := harness.All()
	if r.smoke {
		exps = nil
		for _, id := range []string{"F3", "F9", "F14"} {
			e, err := harness.ByID(id)
			if err != nil {
				return nil, err
			}
			exps = append(exps, e)
		}
	}
	o := sweepOptions(r, machine.All()...)
	o.Quick = true
	return &sweep{exps: exps, opts: o, resume: true}, nil
}

// sweepOptions is the harness option set every sweep runs with; smoke
// runs use the trimmed -quick sweeps.
func sweepOptions(r *run, ms ...*machine.Machine) harness.Options {
	return harness.Options{Machines: ms, Seed: r.seed, Par: sweepPar, Quick: r.smoke}
}

// exampleFiles lists the repository's example spec files of one kind,
// comma-separated the way SelectSpecs takes them.
func exampleFiles(root, kind string) (string, error) {
	files, err := filepath.Glob(filepath.Join(root, "examples", kind, "*.json"))
	if err != nil {
		return "", err
	}
	if len(files) == 0 {
		return "", fmt.Errorf("no example %s specs under %s", kind, filepath.Join(root, "examples", kind))
	}
	sort.Strings(files)
	return strings.Join(files, ","), nil
}

func (s *sweep) measure(r *run) error {
	if s.resume {
		dir := filepath.Join(r.dir, "run")
		tables, pt, err := s.pass(r, "fresh pass", dir, dir, true)
		if err == nil {
			err = s.analyze(r, pt)
		}
		if err != nil {
			return err
		}
		s.golden, s.freshDir = tables, dir
		r.digest = digestOf(tables)
	}
	r.startWindow()
	r.enter()
	defer r.leave()
	s.inWindow = true
	for k := 0; r.more(k, 1); k++ {
		mdir, cdir, name := filepath.Join(r.dir, fmt.Sprintf("pass-%d", k)), "", "pass"
		if s.resume {
			mdir, cdir, name = filepath.Join(r.dir, "resume"), s.freshDir, "resume"
		} else {
			cdir = mdir
		}
		start := time.Now()
		tables, pt, err := s.pass(r, name, mdir, cdir, !s.resume)
		if err == nil && s.golden != nil && !bytes.Equal(tables, s.golden) {
			err = fmt.Errorf("%s %d: tables differ from the first pass", name, k)
		}
		r.done(start, err)
		if err != nil {
			return err
		}
		if err := s.analyze(r, pt); err != nil {
			return err
		}
		if s.golden == nil {
			s.golden = tables
			r.digest = digestOf(tables)
		}
		if !s.resume {
			if s.freshDir != "" {
				os.RemoveAll(s.freshDir)
			}
			s.freshDir = mdir
		}
		r.checkpoint(0)
	}
	return nil
}

// passTrace is what a traced pass leaves for analyze.
type passTrace struct {
	name, mdir string
	fresh      bool
	detail     bool // per-cell spans and manifest analysis
	open       int  // the OpenCache span
	renderMS   float64
	exps       []*expRun
}

// expRun is one experiment of a pass: its span and, in detail, the
// instant of each Progress call.
type expRun struct {
	e     *harness.Experiment
	span  int
	marks []time.Time
}

// pass runs every experiment once with its manifest in mdir and its
// cell cache in cdir, and returns the rendered tables. A fresh pass
// starts both from empty; a resume must replay every cell.
func (s *sweep) pass(r *run, name, mdir, cdir string, fresh bool) ([]byte, *passTrace, error) {
	pt := &passTrace{name: name, mdir: mdir, fresh: fresh, detail: r.tr != nil && s.passes < detailPasses}
	s.passes++
	root := r.tr.begin("bench", name, "main", 0)
	defer r.tr.end(root)

	sp := r.tr.begin("runlog", "runlog.Create", "main", root)
	w, err := runlog.Create(mdir)
	r.tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	pt.open = r.tr.begin("runlog", "runlog.OpenCache", "main", root)
	c, err := runlog.OpenCache(cdir)
	r.tr.end(pt.open)
	if err != nil {
		w.Close()
		return nil, nil, err
	}
	closed := false
	defer func() {
		if !closed {
			c.Close()
			w.Close()
		}
	}()
	if q := c.Quarantined(); len(q) > 0 {
		r.problem("%s: %d cache line(s) quarantined on open", name, len(q))
	}

	var buf bytes.Buffer
	o := s.opts
	o.Manifest, o.Cache = w, c
	for _, e := range s.exps {
		er := &expRun{e: e}
		// With one worker, the scheduler calls Progress between cells,
		// right after each cell's record reached the manifest.
		o.Progress = func(done, total int) {
			if pt.detail {
				er.marks = append(er.marks, time.Now())
			}
			if s.inWindow {
				r.checkpoint(er.span)
			}
		}
		er.span = r.tr.begin("harness", "harness.RunExperiment "+e.ID, "main", root)
		tables, err := harness.RunExperiment(e, o)
		r.tr.end(er.span)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", e.ID, err)
		}
		t0 := time.Now()
		for _, t := range tables {
			if err := t.Render(&buf); err != nil {
				return nil, nil, err
			}
			buf.WriteByte('\n')
		}
		r.tr.add("harness", "harness.Render", "main", root, t0, time.Now())
		pt.renderMS += ms(time.Since(t0))
		pt.exps = append(pt.exps, er)
	}
	cells, cached, failed := w.Totals()

	sp = r.tr.begin("runlog", "runlog.Close", "main", root)
	closed = true
	err = c.Close()
	if merr := w.Close(); err == nil {
		err = merr
	}
	r.tr.end(sp)
	switch {
	case err != nil:
		return nil, nil, err
	case failed > 0:
		return nil, nil, fmt.Errorf("%s: %d of %d cells failed", name, failed, cells)
	case !fresh && cached != cells:
		return nil, nil, fmt.Errorf("%s: only %d of %d cells replayed from the cache", name, cached, cells)
	}
	return buf.Bytes(), pt, nil
}

// analyze collects a traced pass's layer samples; in detail, it pairs
// each manifest cell record with its Progress instant into a cell span
// that ends there and lasts the record's wall_ms.
func (s *sweep) analyze(r *run, pt *passTrace) error {
	if r.tr == nil {
		return nil
	}
	ls := &s.collected
	ls.renderMS = append(ls.renderMS, pt.renderMS)
	ls.openMS = append(ls.openMS, r.tr.durationOf(pt.open))
	if !pt.detail {
		return nil
	}
	recs, err := readManifest(pt.mdir)
	if err != nil {
		return err
	}
	var self, nFresh float64
	for _, er := range pt.exps {
		var mine []runlog.CellRecord
		for _, rec := range recs {
			if rec.Exp == er.e.ID {
				mine = append(mine, rec)
			}
		}
		if len(mine) != len(er.marks) {
			return fmt.Errorf("%s %s: %d manifest cells but %d progress calls", pt.name, er.e.ID, len(mine), len(er.marks))
		}
		var freshWall float64
		for i, rec := range mine {
			end := er.marks[i]
			start := end.Add(-time.Duration(rec.WallMS * float64(time.Millisecond)))
			r.tr.add(cellLayer(rec.Key), "cell "+cellLabel(rec.Key), "cells", er.span, start, end)
			if rec.Cached {
				ls.cachedMS = append(ls.cachedMS, rec.WallMS)
				continue
			}
			nFresh++
			freshWall += rec.WallMS
			ls.freshMS = append(ls.freshMS, rec.WallMS)
			if cellLayer(rec.Key) == "apps" {
				ls.appMS = append(ls.appMS, rec.WallMS)
			}
		}
		start, end := r.tr.bounds(er.span)
		if expMS, _ := activeSpan(r.cals, start, end); freshWall > 0 && expMS > 0 {
			ls.parUtil = append(ls.parUtil, freshWall/(sweepPar*expMS))
		}
		self += r.tr.selfMS(er.span)
	}
	ls.self = append(ls.self, self)
	if pt.fresh {
		ls.cellsFresh = append(ls.cellsFresh, nFresh)
	}
	return nil
}

// cellLayer names the layer a cell ran in, from its cache key: digest-
// keyed workload cells, app cells, or the harness's own probe cells.
func cellLayer(key string) string {
	switch {
	case strings.Contains(key, "/wl@"):
		return "workload"
	case strings.Contains(key, "/app@"):
		return "apps"
	}
	return "harness"
}

// cellLabel is the per-cell part of a config key (after the options).
func cellLabel(key string) string {
	if i := strings.LastIndex(key, "|"); i >= 0 {
		return key[i+1:]
	}
	return key
}

// readManifest returns the cell records of a run directory's manifest.
func readManifest(dir string) ([]runlog.CellRecord, error) {
	f, err := os.Open(filepath.Join(dir, manifestFile))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []runlog.CellRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		var kind struct{ Type string }
		if err := json.Unmarshal(sc.Bytes(), &kind); err != nil {
			return nil, fmt.Errorf("%s: %w", manifestFile, err)
		}
		if kind.Type != runlog.TypeCell {
			continue
		}
		var rec runlog.CellRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", manifestFile, err)
		}
		out = append(out, rec)
	}
	return out, sc.Err()
}

// check has nothing left to do: every pass is checked as it ends.
func (s *sweep) check(r *run) error { return nil }

func (s *sweep) close() error { return nil }
