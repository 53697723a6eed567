// Command atomicreport runs the experiment suite and writes a single
// self-contained Markdown report — tables, ASCII charts for every
// figure-shaped result, and the experiment claims — suitable for
// dropping into a results directory or pasting into an issue.
//
// Usage:
//
//	atomicreport -o report.md            # full sweeps, both machines
//	atomicreport -quick -o report.md     # CI-speed
//	atomicreport -exp F3,F7 -o part.md   # a subset
//	atomicreport -machines XeonE5,EPYC   # pick registered machines
//	atomicreport -machinefile spec.json  # add machines from spec files
//	atomicreport -workloads high-faa     # report on registered workload specs
//	atomicreport -workloadfile w.json    # report on a workload spec file
//	atomicreport -apps treiber           # report on registered app specs
//	atomicreport -appfile a.json         # report on an app spec file
//	atomicreport -fleet -quick -o f.md   # cross-architecture bottleneck report
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"atomicsmodel/internal/cli"
	"atomicsmodel/internal/harness"
)

func main() {
	sweep := cli.SweepFlags(flag.CommandLine)
	out := flag.String("o", "report.md", "output Markdown file ('-' for stdout)")
	flag.Parse()

	opts, exps, err := sweep.Setup("atomicreport", os.Stderr)
	if err != nil {
		fatal(err)
	}

	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}

	fmt.Fprintf(w, "# atomicsmodel experiment report\n\n")
	fmt.Fprintf(w, "Generated by `atomicreport` (seed %d, quick=%v).\n\n", sweep.Seed(), sweep.Quick())
	fmt.Fprintf(w, "Reproduction of *Modeling the Performance of Atomic Primitives on Modern Architectures* (ICPP 2019); see DESIGN.md for scope and substitutions.\n\n")

	var failed []string
	for _, e := range exps {
		fmt.Fprintf(w, "## %s — %s\n\n*Claim:* %s\n\n", e.ID, e.Title, e.Claim)
		tables, err := harness.RunExperiment(e, opts)
		if err != nil {
			// Keep going: the failure lands in the report (and manifest,
			// when attached) and the exit code reports it at the end.
			failed = append(failed, e.ID)
			fmt.Fprintf(w, "**FAILED:** %v\n\n", err)
			fmt.Fprintf(os.Stderr, "atomicreport: %s: %v\n", e.ID, err)
			continue
		}
		for _, t := range tables {
			fmt.Fprintf(w, "```\n")
			if err := t.Render(w); err != nil {
				fatal(err)
			}
			if c, ok := harness.ChartFromTable(t); ok {
				fmt.Fprintln(w)
				if err := c.Render(w); err != nil {
					fatal(err)
				}
			}
			fmt.Fprintf(w, "```\n\n")
		}
	}
	// The metrics section appends after every experiment so the report
	// body is unchanged relative to a metrics-off run of the same suite.
	if opts.Metrics != nil {
		fmt.Fprintf(w, "## Cell metrics\n\n")
		fmt.Fprintf(w, "Per-cell coherence and simulator counters over each cell's measured window; see `internal/metrics` for the naming scheme and ARCHITECTURE.md for how they are collected.\n\n")
		for _, t := range opts.Metrics.Tables() {
			fmt.Fprintf(w, "```\n")
			if err := t.Render(w); err != nil {
				fatal(err)
			}
			fmt.Fprintf(w, "```\n\n")
		}
	}
	if *out != "-" {
		fmt.Printf("wrote %s (%d experiments)\n", *out, len(exps))
	}

	if err := sweep.Finish(opts); err != nil {
		fatal(err)
	}

	if len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "atomicreport: %d experiment(s) failed: %s\n",
			len(failed), strings.Join(failed, ","))
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "atomicreport:", err)
	os.Exit(1)
}
