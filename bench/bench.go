// Package bench is the repository's end-to-end benchmark: six
// workloads that drive the simulator the way its users do — full
// sweeps, the A suite, a fleet sweep, resumes of a finished run, and
// atomicd jobs over HTTP — timed from outside through the public APIs
// of harness, runlog, workload, apps, predict, bottleneck and jobs.
//
// Main is the driver (cmd/atomicbench). It runs each workload in fresh
// child processes of its own binary, so process-wide pools and caches
// never carry over from one measurement to the next: several children
// only set up (the set-up time), one runs the measured window. A
// traced run adds a second, traced child that records spans around
// every layer call, reports per-layer metrics and writes a Chrome
// trace_event file. README.md lists the workloads, the metrics and
// which end-to-end metric each layer metric should move.
package bench

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Workload is one benchmark workload.
type Workload struct {
	Name string
	// Why says what the workload exercises and why it was chosen.
	Why string
	// smokeOps is the fixed operation count of the smoke size.
	smokeOps int
	open     func(r *run, root string) (instance, error)
}

// instance is a set-up workload inside a child process.
type instance interface {
	// measure runs the measured window, recording one latency per
	// operation; it opens the window itself with run.startWindow.
	measure(r *run) error
	// check verifies outputs that can only be checked after the window.
	check(r *run) error
	// layers reports per-layer metrics; traced runs only.
	layers(r *run) error
	close() error
}

// Workloads are the benchmark's workloads, in the order -workload all
// runs them.
var Workloads = []Workload{
	{"f3-xeon", "Full F3 on XeonE5, the paper's headline figure: closed-loop workload cells, half of them fast-forward-eligible, manifest and cache writes", 1, openF3},
	{"apps-suite", "The A suite (app presets and examples/apps) on XeonE5 and KNL: unpooled apps.Run cells with no fast-forward, plus the conflict model", 1, openAppsSuite},
	{"fleet-metrics", "A fleet sweep of the workload presets and examples across every machine with metrics forced on: mesh and star topologies, no fast-forward", 1, openFleet},
	{"quick-resume", "Resumes of a finished -quick paper suite: the run-log read path with zero simulation, every cell replayed and digest-verified", 2, openQuickResume},
	{"atomicd-jobs", "Two closed-loop clients submitting fresh quick atomicd jobs over HTTP: the service path where each request simulates", 10, openJobs},
	{"atomicd-dedup", "Two closed-loop clients resubmitting completed atomicd jobs: spec digest, dedup, journal and HTTP overhead without simulation", 10, openDedup},
}

func workloadByName(name string) (Workload, error) {
	var names []string
	for _, w := range Workloads {
		if w.Name == name {
			return w, nil
		}
		names = append(names, w.Name)
	}
	return Workload{}, fmt.Errorf("unknown workload %q (have %s, or all)", name, strings.Join(names, ", "))
}

// setupProbes is how many extra children of a measured run only set
// up, so set-up time is a median of setupProbes+1 samples.
const setupProbes = 5

// childTimeout bounds one child process; a run that hangs is killed
// and reported as failed instead of outliving the caller.
const childTimeout = 170 * time.Second

// childEnv marks a re-executed child, for binaries (the tests) whose
// own main does not call Main.
const childEnv = "ATOMICBENCH_CHILD"

// config is the parsed command line.
type config struct {
	workload     string
	seed         uint64
	seconds      float64
	trace        int
	workdir      string
	root         string
	smoke        bool
	updateGolden bool
	child        string
	traced       bool
}

// Main runs the benchmark with the given arguments and returns the
// process exit code.
func Main(args []string, stdout, stderr io.Writer) int {
	var cfg config
	fs := flag.NewFlagSet("atomicbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.workload, "workload", "", "workload to run, or all")
	fs.Uint64Var(&cfg.seed, "seed", GoldenSeed, "seed of the workload's inputs; golden digests are checked at 42")
	fs.Float64Var(&cfg.seconds, "seconds", 15, "length of the measured window of each run, in seconds")
	fs.IntVar(&cfg.trace, "trace", 0, "1: report per-layer metrics from an untraced and a traced run instead of the end-to-end metrics, and write a Chrome trace")
	fs.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory for run directories and traces")
	fs.StringVar(&cfg.root, "root", ".", "repository root (where examples/ and bench/ are)")
	fs.BoolVar(&cfg.smoke, "smoke", false, "run each workload tiny (a few operations) with every check on")
	fs.BoolVar(&cfg.updateGolden, "update-golden", false, "rewrite bench/golden from runs at seed 42 (both sizes)")
	fs.StringVar(&cfg.child, "child", "", "internal: run as a child process (setup or run)")
	fs.BoolVar(&cfg.traced, "traced", false, "internal: the child records spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if cfg.child != "" {
		if err := childMain(cfg, stdout); err != nil {
			fmt.Fprintln(stderr, "atomicbench child:", err)
			return 1
		}
		return 0
	}
	if err := cfg.validate(); err != nil {
		fmt.Fprintln(stderr, "atomicbench:", err)
		return 2
	}
	if cfg.updateGolden {
		if err := updateGolden(cfg, stderr); err != nil {
			fmt.Fprintln(stderr, "atomicbench:", err)
			return 1
		}
		return 0
	}
	return parentMain(cfg, stdout, stderr)
}

func (c config) validate() error {
	switch {
	case c.trace != 0 && c.trace != 1:
		return fmt.Errorf("-trace %d: want 0 or 1", c.trace)
	case c.seconds <= 0:
		return fmt.Errorf("-seconds %g: want a positive length", c.seconds)
	case c.updateGolden:
		return nil
	case c.workload == "":
		return errors.New("-workload is required")
	case c.workload != "all":
		_, err := workloadByName(c.workload)
		return err
	}
	return nil
}

func (c config) selected() []Workload {
	if c.workload == "all" || c.updateGolden {
		return Workloads
	}
	w, _ := workloadByName(c.workload) // validated
	return []Workload{w}
}

// result is what one workload reports: the contract's final line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// parentMain runs the selected workloads, prints one "metric" line per
// metric and, as the last line, the JSON result.
func parentMain(cfg config, stdout, stderr io.Writer) int {
	declared := EndToEnd
	if cfg.trace == 1 {
		declared = PerLayer
	}
	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range cfg.selected() {
		res := runWorkload(cfg, w, stderr)
		for _, d := range declared {
			m, ok := res.Metrics[d.Name]
			if !ok {
				continue
			}
			name := d.Name
			fmt.Fprintf(stdout, "metric %s %s %s %s\n", w.Name, name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
			if cfg.workload == "all" {
				name = w.Name + "/" + name
			}
			total.Metrics[name] = m
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
	}
	b, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(stderr, "atomicbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !total.Correct {
		return 1
	}
	return 0
}

// runWorkload measures one workload: end-to-end metrics from set-up
// probes and one untraced run, or (trace 1) per-layer metrics from an
// untraced and a traced run that split the window between them.
func runWorkload(cfg config, w Workload, stderr io.Writer) result {
	res := result{Correct: true, Metrics: map[string]metric{}}
	fail := func(format string, args ...any) {
		fmt.Fprintf(stderr, "atomicbench: %s: %s\n", w.Name, fmt.Sprintf(format, args...))
		res.Correct = false
	}
	measure := endToEnd
	if cfg.trace == 1 {
		measure = perLayer
	}
	runs, err := measure(cfg, w, res.Metrics, stderr)
	if err != nil {
		fail("%v", err)
		return failed(res)
	}
	for _, cr := range runs {
		res.Attempted += len(cr.rep.OpsMS) + cr.rep.Failed
		res.Failed += cr.rep.Failed
		for _, p := range cr.rep.Problems {
			fail("%s", p)
		}
		if cr.rep.Failed > 0 {
			fail("%d operations failed", cr.rep.Failed)
		}
		if err := checkGolden(cfg, w, cr.rep.Digest, stderr); err != nil {
			fail("%v", err)
		}
	}
	if !res.Correct {
		return failed(res)
	}
	return res
}

// endToEnd runs the set-up probes and the measured child and derives
// the end-to-end metrics. Set-up samples are scaled by the reference
// kernel timed just before each child started, and the child scales its
// own times the same way (see ref.go); the numbers as measured go to
// stderr.
func endToEnd(cfg config, w Workload, metrics map[string]metric, stderr io.Writer) ([]childRun, error) {
	probes := setupProbes
	if cfg.smoke {
		probes = 0
	}
	var setup, setupRaw []float64
	var cr childRun
	for i := 0; i <= probes; i++ {
		mode := "setup"
		if i == probes {
			mode = "run"
		}
		var err error
		if cr, err = spawn(cfg, w, mode, false, cfg.seconds, stderr); err != nil {
			return nil, fmt.Errorf("%s child: %w", mode, err)
		}
		setup = append(setup, cr.setup.Seconds()*refNominalMS/cr.setupRef)
		setupRaw = append(setupRaw, cr.setup.Seconds())
	}
	rep := cr.rep
	n := float64(len(rep.OpsMS))
	metrics["setup_s"] = metric{Median(setup), "s"}
	metrics["op_p50_ms"] = metric{Median(rep.OpsMS), "ms"}
	metrics["ops_per_s"] = metric{ratio(n, rep.WindowS), "1/s"}
	metrics["rss_mb"] = metric{rep.RSSMB, "MB"}
	p := ReportedPercentile(len(rep.OpsMS))
	if p == 0 { // too few operations for any tail: show the median
		p = 50
	}
	fmt.Fprintf(stderr, "atomicbench: %s: %d operations, p%g %.4g ms, IQR %.1f%% of the median; "+
		"as measured: set-up %.4g s, op p50 %.4g ms, %.4g ops/s; reference kernel median %.4g ms (nominal %g)\n",
		w.Name, len(rep.OpsMS), p, Percentile(rep.OpsMS, p), 100*RelIQR(rep.OpsMS), Median(setupRaw),
		Median(rep.RawOpsMS), ratio(n, rep.RawWindowS), Median(rep.RefMS), refNominalMS)
	return []childRun{cr}, nil
}

// perLayer runs an untraced and a traced child, each for half the
// window, and reports the traced child's layer metrics plus the
// tracing overhead: the traced run's median operation time over the
// untraced run's.
func perLayer(cfg config, w Workload, metrics map[string]metric, stderr io.Writer) ([]childRun, error) {
	plain, err := spawn(cfg, w, "run", false, cfg.seconds/2, stderr)
	if err != nil {
		return nil, err
	}
	traced, err := spawn(cfg, w, "run", true, cfg.seconds/2, stderr)
	if err != nil {
		return nil, err
	}
	for name := range traced.rep.Layer {
		if !declared(PerLayer, name) {
			return nil, fmt.Errorf("undeclared per-layer metric %q", name)
		}
	}
	for _, m := range PerLayer {
		metrics[m.Name] = metric{traced.rep.Layer[m.Name], m.Unit}
	}
	metrics["bench.trace_overhead_pct"] = metric{100 * (ratio(Median(traced.rep.OpsMS), Median(plain.rep.OpsMS)) - 1), "%"}
	metrics["bench.ref_ms"] = metric{Median(traced.rep.RefMS), "ms"}
	fmt.Fprintf(stderr, "atomicbench: %s: trace written to %s\n", w.Name, traced.rep.TraceFile)
	return []childRun{plain, traced}, nil
}

func declared(list []Metric, name string) bool {
	for _, m := range list {
		if m.Name == name {
			return true
		}
	}
	return false
}

// failed marks a result incorrect; an incorrect run counts every
// operation it attempted as failed.
func failed(res result) result {
	res.Correct = false
	res.Attempted = max(res.Attempted, 1)
	res.Failed = res.Attempted
	return res
}

// checkGolden compares a run's output digest with the stored one at
// the golden seed and prints it at any other seed.
func checkGolden(cfg config, w Workload, digest string, stderr io.Writer) error {
	if cfg.seed != GoldenSeed {
		fmt.Fprintf(stderr, "atomicbench: %s: digest %s at seed %d (golden digests are for seed %d)\n", w.Name, digest, cfg.seed, GoldenSeed)
		return nil
	}
	want, err := golden(w.Name, cfg.smoke)
	if err != nil {
		return err
	}
	if digest != want {
		return fmt.Errorf("output digest %s, golden %s", digest, want)
	}
	return nil
}

// updateGolden reruns every workload at the golden seed in both sizes
// and rewrites bench/golden from their digests.
func updateGolden(cfg config, stderr io.Writer) error {
	cfg.seed = GoldenSeed
	for _, w := range Workloads {
		var digests [2]string
		for i, smoke := range []bool{false, true} {
			cfg.smoke = smoke
			cr, err := spawn(cfg, w, "run", false, cfg.seconds, stderr)
			if err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			if len(cr.rep.Problems) > 0 || cr.rep.Failed > 0 {
				return fmt.Errorf("%s: run failed: %s", w.Name, strings.Join(cr.rep.Problems, "; "))
			}
			digests[i] = cr.rep.Digest
		}
		if err := writeGolden(filepath.Join(cfg.root, "bench", "golden"), w.Name, digests[0], digests[1]); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "atomicbench: %s: golden %s (smoke %s)\n", w.Name, digests[0], digests[1])
	}
	return nil
}

// childRun is what the parent learns from one child: how long it took
// to set up, the reference kernel's time just before it started, and
// its report.
type childRun struct {
	setup    time.Duration
	setupRef float64
	rep      report
}

// spawn runs one child process of this binary on the pinned CPU and
// waits for it.
func spawn(cfg config, w Workload, mode string, traced bool, seconds float64, stderr io.Writer) (cr childRun, err error) {
	pinned(func() { cr, err = runChild(cfg, w, mode, traced, seconds, stderr) })
	return cr, err
}

// runChild times the reference kernel, then starts the child and
// reads its output. The set-up time runs from starting the process to
// its READY line.
func runChild(cfg config, w Workload, mode string, traced bool, seconds float64, stderr io.Writer) (childRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return childRun{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe,
		"-child", mode, "-workload", w.Name, "-seed", strconv.FormatUint(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-workdir", cfg.workdir, "-root", cfg.root,
		"-smoke="+strconv.FormatBool(cfg.smoke), "-traced="+strconv.FormatBool(traced))
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.SysProcAttr = childAttr()
	cmd.Stderr = stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return childRun{}, err
	}
	cr := childRun{setupRef: refKernel()}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return childRun{}, err
	}
	var last string
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<26)
	for sc.Scan() {
		if line := sc.Text(); line == "READY" && cr.setup == 0 {
			cr.setup = time.Since(start)
		} else if line != "" {
			last = line
		}
	}
	scanErr := sc.Err()
	if err := cmd.Wait(); err != nil {
		return childRun{}, fmt.Errorf("%s child: %w", mode, err)
	}
	if scanErr != nil {
		return childRun{}, scanErr
	}
	if cr.setup == 0 {
		return childRun{}, fmt.Errorf("%s child exited without a READY line", mode)
	}
	if mode == "run" {
		if err := json.Unmarshal([]byte(last), &cr.rep); err != nil {
			return childRun{}, fmt.Errorf("run child report: %w", err)
		}
	}
	return cr, nil
}

// childMain is a child process: set up the workload, say READY, then
// (mode run) measure it and print the report as the last line.
func childMain(cfg config, stdout io.Writer) error {
	// Bound to one CPU (see pinned), the runtime already uses one; where
	// binding is unavailable, the load still uses at most two.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	w, err := workloadByName(cfg.workload)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(cfg.workdir, "run-"+w.Name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	r := &run{
		seed: cfg.seed, smoke: cfg.smoke, dir: dir,
		budget: time.Duration(cfg.seconds * float64(time.Second)),
	}
	if cfg.smoke {
		r.maxOps = w.smokeOps
	}
	if cfg.traced {
		r.tr = newTracer(fmt.Sprintf("%016x", rand.Uint64()))
	}
	inst, err := w.open(r, cfg.root)
	if err != nil {
		return err
	}
	closed := false
	defer func() {
		if !closed {
			inst.close()
		}
	}()
	fmt.Fprintln(stdout, "READY")
	if cfg.child == "setup" {
		closed = true
		return inst.close()
	}

	root := r.tr.begin("bench", "workload "+w.Name, "main", 0)
	if err := inst.measure(r); err != nil {
		return err
	}
	r.tr.end(root)
	rep := r.finish()
	if err := inst.check(r); err != nil {
		return err
	}
	if r.tr != nil {
		if err := inst.layers(r); err != nil {
			return err
		}
		tdir := filepath.Join(cfg.workdir, "traces")
		if err := os.MkdirAll(tdir, 0o755); err != nil {
			return err
		}
		rep.TraceFile = filepath.Join(tdir, fmt.Sprintf("%s-seed%d.json", w.Name, cfg.seed))
		if err := r.tr.write(rep.TraceFile, "atomicbench "+w.Name); err != nil {
			return err
		}
	}
	closed = true
	if err := inst.close(); err != nil {
		return err
	}
	rep.Problems, rep.Digest, rep.Layer = r.problems, r.digest, r.layer
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(stdout, string(b))
	return err
}
