// Package cli is the flag block the command-line tools share. All four
// simulation CLIs select machines (-machines/-machine/-machinefile)
// and app specs (-apps/-appfile) the same way; atomicsim and
// atomicreport also share the whole sweep block: workload and fleet
// selection, the run options, the -manifest/-resume run directory,
// profiling, and the policy that turns a selection into the list of
// experiments to run.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"atomicsmodel/internal/apps"
	"atomicsmodel/internal/harness"
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/runlog"
	"atomicsmodel/internal/workload"
)

// Machines is the machine selection flags.
type Machines struct {
	names, alias, files *string
	def                 string
}

// MachineFlags declares -machines, -machine and -machinefile on fs.
// def is the comma-separated machine list a run uses when none is
// selected; "" leaves the choice to the harness (the paper pair).
func MachineFlags(fs *flag.FlagSet, def string) *Machines {
	shown := def
	if def == "" {
		shown = "the paper pair"
	}
	return &Machines{
		names: fs.String("machines", "", "comma-separated registered machine names (default: "+shown+")"),
		alias: fs.String("machine", "", "alias for -machines"),
		files: fs.String("machinefile", "", "comma-separated JSON machine spec files to run alongside -machines"),
		def:   def,
	}
}

// Select resolves the selected machines (machine.Select); nil with no
// selection and no default.
func (m *Machines) Select() ([]*machine.Machine, error) {
	names := *m.names
	if *m.alias != "" {
		if names != "" {
			names += ","
		}
		names += *m.alias
	}
	if names == "" && *m.files == "" {
		if m.def == "" {
			return nil, nil
		}
		names = m.def
	}
	return machine.Select(names, *m.files)
}

// Apps is the app spec selection flags.
type Apps struct {
	names, files *string
}

// AppFlags declares -apps and -appfile on fs; usage says what the
// selected apps do in this tool.
func AppFlags(fs *flag.FlagSet, usage string) *Apps {
	return &Apps{
		names: fs.String("apps", "", "comma-separated registered app spec names"+usage),
		files: fs.String("appfile", "", "comma-separated JSON app spec files to run alongside -apps"),
	}
}

// Select resolves the selected app specs (apps.SelectSpecs); nil when
// none are selected.
func (a *Apps) Select() ([]*apps.Spec, error) {
	if *a.names == "" && *a.files == "" {
		return nil, nil
	}
	return apps.SelectSpecs(*a.names, *a.files)
}

// Sweep is the flag block atomicsim and atomicreport share.
type Sweep struct {
	machines               *Machines
	apps                   *Apps
	exp, wlNames, wlFiles  *string
	fleet                  *bool
	knee                   *float64
	quick, metrics, check  *bool
	seed                   *uint64
	par                    *int
	manifest, resume       *string
	cpuProfile, memProfile *string
	cpuProfileFile         *os.File
}

// SweepFlags declares the sweep block on fs.
func SweepFlags(fs *flag.FlagSet) *Sweep {
	return &Sweep{
		exp:        fs.String("exp", "", "comma-separated experiment IDs to run (default: all)"),
		machines:   MachineFlags(fs, ""),
		wlNames:    fs.String("workloads", "", "comma-separated registered workload spec names to run as the W suite (replaces the default experiment list unless -exp is given)"),
		wlFiles:    fs.String("workloadfile", "", "comma-separated JSON workload spec files to run alongside -workloads"),
		apps:       AppFlags(fs, " to run as the A suite (replaces the default experiment list unless -exp is given)"),
		fleet:      fs.Bool("fleet", false, "fleet sweep: run the selected workloads across every registered machine with per-cell bottleneck verdicts (see BOTTLENECKS.md)"),
		knee:       fs.Float64("knee", 0.9, "utilization threshold for fleet knee detection"),
		quick:      fs.Bool("quick", false, "trimmed sweeps and shorter simulated durations"),
		seed:       fs.Uint64("seed", 42, "base random seed"),
		par:        fs.Int("par", runtime.NumCPU(), "max concurrent simulation cells (results are identical for any value)"),
		metrics:    fs.Bool("metrics", false, "collect per-cell coherence/sim metrics and append breakdown tables"),
		check:      fs.Bool("check", false, "audit coherence/engine invariants in every cell; a violation fails the cell with a deterministic report"),
		manifest:   fs.String("manifest", "", "run directory for a structured manifest (manifest.jsonl + cells.jsonl); truncates a previous run"),
		resume:     fs.String("resume", "", "resume a previous -manifest run directory: replay cached cells, re-run only missing or failed ones"),
		cpuProfile: fs.String("cpuprofile", "", "write a CPU profile to this file"),
		memProfile: fs.String("memprofile", "", "write an allocation profile to this file on exit"),
	}
}

// Quick and Seed report the -quick and -seed values.
func (s *Sweep) Quick() bool  { return *s.quick }
func (s *Sweep) Seed() uint64 { return *s.seed }

// ResumeDir is the -resume run directory, "" for a fresh run.
func (s *Sweep) ResumeDir() string { return *s.resume }

// Setup resolves the selection and returns the harness options and
// the experiments to run. It starts the -cpuprofile profile and
// attaches the -manifest/-resume run directory, reporting quarantined
// cache lines on stderr as prog; Finish undoes both.
//
// -exp selects registered experiments; a workload or app selection
// appends its suite. With only workloads or apps given, just those
// suites run; with neither, every registered experiment runs. A fleet
// sweep takes the selected workloads, defaulting to the high-faa
// preset.
func (s *Sweep) Setup(prog string, stderr io.Writer) (harness.Options, []*harness.Experiment, error) {
	opts := harness.Options{Quick: *s.quick, Seed: *s.seed, Par: *s.par, Check: *s.check}
	if *s.metrics {
		opts.Metrics = &harness.MetricsCollector{}
	}
	ms, err := s.machines.Select()
	if err != nil {
		return opts, nil, err
	}
	opts.Machines = ms
	var wlSpecs []*workload.Spec
	if *s.wlNames != "" || *s.wlFiles != "" {
		if wlSpecs, err = workload.SelectSpecs(*s.wlNames, *s.wlFiles); err != nil {
			return opts, nil, err
		}
	}
	appSpecs, err := s.apps.Select()
	if err != nil {
		return opts, nil, err
	}

	var exps []*harness.Experiment
	if *s.exp != "" {
		for _, id := range strings.Split(*s.exp, ",") {
			e, err := harness.ByID(strings.TrimSpace(id))
			if err != nil {
				return opts, nil, err
			}
			exps = append(exps, e)
		}
	} else if wlSpecs == nil && appSpecs == nil && !*s.fleet {
		exps = harness.All()
	}
	if *s.fleet {
		if wlSpecs == nil {
			hf, err := workload.SpecByName("high-faa")
			if err != nil {
				return opts, nil, err
			}
			wlSpecs = []*workload.Spec{hf}
		}
		exps = append(exps, harness.FleetExperiment(wlSpecs, *s.knee))
	} else if wlSpecs != nil {
		exps = append(exps, harness.WorkloadExperiment(wlSpecs))
	}
	if appSpecs != nil {
		exps = append(exps, harness.AppExperiment(appSpecs))
	}

	switch {
	case *s.manifest != "" && *s.resume != "":
		return opts, nil, errors.New("-manifest and -resume are mutually exclusive (resume reuses the run directory)")
	case *s.manifest != "":
		err = AttachRunDir(&opts, *s.manifest, false, prog, stderr)
	case *s.resume != "":
		err = AttachRunDir(&opts, *s.resume, true, prog, stderr)
	}
	if err != nil {
		return opts, nil, err
	}
	if *s.cpuProfile != "" {
		f, err := os.Create(*s.cpuProfile)
		if err == nil {
			if err = pprof.StartCPUProfile(f); err != nil {
				f.Close()
			}
		}
		if err != nil {
			return opts, nil, err
		}
		s.cpuProfileFile = f
	}
	return opts, exps, nil
}

// Finish closes what Setup opened: it stops the CPU profile, closes
// the run directory, and writes the -memprofile heap profile.
func (s *Sweep) Finish(opts harness.Options) error {
	var errs []error
	if s.cpuProfileFile != nil {
		pprof.StopCPUProfile()
		errs = append(errs, s.cpuProfileFile.Close())
	}
	if opts.Cache != nil {
		errs = append(errs, opts.Cache.Close())
	}
	if opts.Manifest != nil {
		errs = append(errs, opts.Manifest.Close())
	}
	if *s.memProfile != "" {
		f, err := os.Create(*s.memProfile)
		if err == nil {
			runtime.GC()
			err = pprof.WriteHeapProfile(f)
			errs = append(errs, err, f.Close())
		} else {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// AttachRunDir opens a run directory's manifest and cell cache on
// opts. resume=false starts a fresh run (truncating a previous one);
// true appends to the manifest and keeps the cache so completed cells
// replay. Quarantined cache lines are dropped, not fatal: each one is
// reported on stderr as prog, so the recomputation is explained.
func AttachRunDir(opts *harness.Options, dir string, resume bool, prog string, stderr io.Writer) error {
	open := runlog.Create
	if resume {
		open = runlog.Append
	}
	w, err := open(dir)
	if err != nil {
		return err
	}
	c, err := runlog.OpenCache(dir)
	if err != nil {
		w.Close()
		return err
	}
	for _, q := range c.Quarantined() {
		if q.Key != "" {
			fmt.Fprintf(stderr, "%s: quarantined cells.jsonl line %d (key %q): %s; cell will be recomputed\n", prog, q.Line, q.Key, q.Reason)
		} else {
			fmt.Fprintf(stderr, "%s: quarantined cells.jsonl line %d: %s; cell will be recomputed\n", prog, q.Line, q.Reason)
		}
	}
	opts.Manifest, opts.Cache = w, c
	return nil
}
