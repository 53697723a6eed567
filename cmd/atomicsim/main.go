// Command atomicsim regenerates the paper's tables and figures on the
// simulated machines.
//
// Usage:
//
//	atomicsim                     # run every experiment on both machines
//	atomicsim -exp F3             # one experiment
//	atomicsim -machines KNL,EPYC  # restrict/extend the machine list
//	atomicsim -machinefile m.json # add a machine from a JSON spec file
//	atomicsim -workloads high-faa # run registered workload specs (the W suite)
//	atomicsim -workloadfile w.json# run a workload from a JSON spec file
//	atomicsim -apps treiber       # run registered app specs (the A suite)
//	atomicsim -appfile a.json     # run an app from a JSON spec file
//	atomicsim -fleet              # fleet sweep: bottleneck verdicts across all machines
//	atomicsim -fleet -knee 0.8    # lower the knee-detection utilization threshold
//	atomicsim -quick              # trimmed sweeps for a fast look
//	atomicsim -par 4              # cap concurrent simulation cells
//	atomicsim -csv results/       # additionally write one CSV per table
//	atomicsim -list               # list experiment IDs and claims
//	atomicsim -manifest run/      # also write a structured run manifest
//	atomicsim -resume run/        # re-run only missing/failed cells
//	atomicsim -checkmanifest run/ # validate a run directory and exit
//	atomicsim -check              # audit coherence/engine invariants per cell
//	atomicsim -faults jitter=10   # inject deterministic faults (see -faults below)
//	atomicsim -celltimeout 30s    # watchdog: fail cells exceeding the deadline
//	atomicsim -cellretries 2      # retry failed cells before giving up
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"atomicsmodel/internal/cli"
	"atomicsmodel/internal/faults"
	"atomicsmodel/internal/harness"
	"atomicsmodel/internal/runlog"
)

func main() {
	sweep := cli.SweepFlags(flag.CommandLine)
	var (
		quiet   = flag.Bool("quiet", false, "suppress per-experiment progress on stderr")
		csvDir  = flag.String("csv", "", "directory to write per-table CSV files into")
		doPlot  = flag.Bool("plot", false, "render ASCII charts for figure-shaped tables")
		logY    = flag.Bool("logy", false, "use a logarithmic Y axis for plots")
		listIDs = flag.Bool("list", false, "list experiments and exit")

		checkDir = flag.String("checkmanifest", "", "validate a run directory's manifest and cache, print a summary, and exit")

		faultSpec   = flag.String("faults", "", "inject deterministic faults: comma-separated seed=N,jitter=PCT,panic=N[@CELL],casfail=N,sleep=DUR@CELL")
		cellTimeout = flag.Duration("celltimeout", 0, "wall-clock watchdog deadline per simulation cell (0 = none)")
		cellRetries = flag.Int("cellretries", 0, "extra attempts for a failed cell before giving up")
	)
	flag.Parse()

	if *listIDs {
		for _, e := range harness.All() {
			fmt.Printf("%-4s %s\n     claim: %s\n", e.ID, e.Title, e.Claim)
		}
		return
	}

	if *checkDir != "" {
		summary, err := runlog.Validate(*checkDir)
		if err != nil {
			fatal(err)
		}
		fmt.Println(summary)
		return
	}

	var plan *faults.Plan
	if *faultSpec != "" {
		p, err := faults.Parse(*faultSpec)
		if err != nil {
			fatal(err)
		}
		plan = p
	}
	opts, exps, err := sweep.Setup("atomicsim", os.Stderr)
	if err != nil {
		fatal(err)
	}
	opts.Faults, opts.CellTimeout, opts.CellRetries = plan, *cellTimeout, *cellRetries
	if dir := sweep.ResumeDir(); dir != "" && !*quiet {
		fmt.Fprintf(os.Stderr, "resume: %d cached cells loaded from %s\n", opts.Cache.Loaded(), dir)
	}

	suiteStart := time.Now()
	var failed []string
	for _, e := range exps {
		fmt.Printf("== %s: %s\n   claim: %s\n\n", e.ID, e.Title, e.Claim)
		expStart := time.Now()
		runOpts := opts
		if !*quiet {
			// Progress goes to stderr so redirected table output stays
			// clean; \r keeps it to one updating line per experiment.
			id := e.ID
			runOpts.Progress = func(done, total int) {
				fmt.Fprintf(os.Stderr, "\r%s: %d/%d cells, %s ", id, done, total,
					time.Since(expStart).Round(time.Millisecond))
				if done == total {
					fmt.Fprintln(os.Stderr)
				}
			}
		}
		tables, err := harness.RunExperiment(e, runOpts)
		if err != nil {
			// A failed experiment no longer aborts the run: the failure is
			// recorded (stderr + manifest, when attached), the remaining
			// experiments still run, and the exit code reports it.
			failed = append(failed, e.ID)
			fmt.Printf("   FAILED: %v\n\n", err)
			fmt.Fprintf(os.Stderr, "%s FAILED: %v\n", e.ID, err)
			continue
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "%s done in %s\n", e.ID, time.Since(expStart).Round(time.Millisecond))
		}
		for i, t := range tables {
			if err := t.Render(os.Stdout); err != nil {
				fatal(err)
			}
			fmt.Println()
			if *doPlot {
				if c, ok := harness.ChartFromTable(t); ok {
					c.LogY = *logY
					if err := c.Render(os.Stdout); err != nil {
						fatal(err)
					}
					fmt.Println()
				}
			}
			if *csvDir != "" {
				if err := writeCSV(*csvDir, e.ID, i, t); err != nil {
					fatal(err)
				}
			}
		}
	}
	if !*quiet && len(exps) > 1 {
		fmt.Fprintf(os.Stderr, "suite done: %d experiments in %s\n",
			len(exps), time.Since(suiteStart).Round(time.Millisecond))
	}

	// Metrics breakdown tables render after the result tables so the
	// result output stays byte-identical to a metrics-off run's prefix.
	if opts.Metrics != nil {
		for i, t := range opts.Metrics.Tables() {
			if err := t.Render(os.Stdout); err != nil {
				fatal(err)
			}
			fmt.Println()
			if *csvDir != "" {
				if err := writeCSV(*csvDir, "metrics", i, t); err != nil {
					fatal(err)
				}
			}
		}
	}

	if err := sweep.Finish(opts); err != nil {
		fatal(err)
	}

	if len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "atomicsim: %d experiment(s) failed: %s\n",
			len(failed), strings.Join(failed, ","))
		os.Exit(1)
	}
}

func writeCSV(dir, id string, idx int, t *harness.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s_%d.csv", id, idx)
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	return t.CSV(f)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "atomicsim:", err)
	os.Exit(1)
}
