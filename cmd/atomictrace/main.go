// Command atomictrace records the coherence-level life of the hot cache
// line during a contended run and dumps it as CSV — one row per access
// with its timestamp, core, transaction kind, data source, hop count
// and latency — plus a bouncing summary and per-core ownership shares
// on stderr. Feed the CSV to any plotting tool to watch the line move,
// or export a Chrome trace_event timeline with -chrome and open it in
// chrome://tracing or https://ui.perfetto.dev: one row per core, one
// slice per access, and an "owner" counter track stepping through the
// ownership transfers.
//
// Usage:
//
//	atomictrace -machine XeonE5 -primitive FAA -threads 8 -ops 200
//	atomictrace -machine KNL -primitive CAS -threads 16 -ops 500 > trace.csv
//	atomictrace -arbiter locality -threads 16          # watch a monopoly form
//	atomictrace -threads 8 -chrome trace.json          # timeline for Perfetto
//	atomictrace -machines XeonE5,KNL -threads 8        # several machines, one CSV
//	atomictrace -machinefile spec.json -threads 8      # trace a custom spec
//	atomictrace -apps treiber -ops 200                 # trace an app's hot line
//	atomictrace -appfile spec.json -chrome t.json      # app spec file, timeline
//
// With -apps/-appfile the trace watches the selected app spec's hot
// line (the structure's primary serialization point — a stack's top
// pointer, a lock word) while the whole structure runs: each thread
// performs -ops operations of the structure, and the CSV shows how the
// object's algorithm, not a bare primitive, moves the line. A spec
// with a thread ladder traces its first rung; -threads overrides.
//
// With more than one machine selected, each machine's CSV section is
// preceded by a "# machine <name>" comment line, and -chrome writes one
// file per machine (the machine name is inserted before the extension).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"atomicsmodel/internal/apps"
	"atomicsmodel/internal/atomics"
	"atomicsmodel/internal/cli"
	"atomicsmodel/internal/coherence"
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/sim"
	"atomicsmodel/internal/trace"
)

func main() {
	machSel := cli.MachineFlags(flag.CommandLine, "XeonE5")
	appSel := cli.AppFlags(flag.CommandLine, " (exactly one): trace the structure's hot line instead of a bare primitive")
	var (
		primName = flag.String("primitive", "FAA", "primitive to trace")
		threads  = flag.Int("threads", 8, "number of contending threads")
		ops      = flag.Int("ops", 200, "operations per thread to trace")
		arbName  = flag.String("arbiter", "fifo", "line arbitration: fifo, random, locality")
		chrome   = flag.String("chrome", "", "also write a Chrome trace_event JSON timeline to this file (view in chrome://tracing or Perfetto)")
	)
	flag.Parse()

	machines, err := machSel.Select()
	if err != nil {
		fatal(err)
	}
	specs, err := appSel.Select()
	if err != nil {
		fatal(err)
	}
	if specs != nil {
		if len(specs) != 1 {
			fatal(fmt.Errorf("tracing wants exactly one app spec, got %d", len(specs)))
		}
		// A ladder spec traces its first rung; an explicit -threads
		// overrides the rung (the trace is exploratory, not cached, so
		// the digest change is harmless).
		pt := specs[0].Expand()[0]
		threadsSet := false
		flag.Visit(func(f *flag.Flag) { threadsSet = threadsSet || f.Name == "threads" })
		if threadsSet {
			pt = pt.Clone()
			pt.Threads = *threads
		}
		perMachine(machines, *chrome, func(m *machine.Machine, chromeFile string) {
			traceApp(m, pt, *ops, chromeFile)
		})
		return
	}

	p, err := atomics.Parse(*primName)
	if err != nil {
		fatal(err)
	}
	perMachine(machines, *chrome, func(m *machine.Machine, chromeFile string) {
		traceMachine(m, p, *threads, *ops, *arbName, chromeFile)
	})
}

// perMachine runs trace once per machine. With several machines, each
// CSV section gets a "# machine" header and each Chrome timeline its
// own file, the machine name inserted before the extension.
func perMachine(machines []*machine.Machine, chrome string, trace func(m *machine.Machine, chromeFile string)) {
	for _, m := range machines {
		chromeFile := chrome
		if len(machines) > 1 {
			if chromeFile != "" {
				ext := filepath.Ext(chromeFile)
				chromeFile = chromeFile[:len(chromeFile)-len(ext)] + "." + m.Name + ext
			}
			fmt.Printf("# machine %s\n", m.Name)
		}
		trace(m, chromeFile)
	}
}

// traceApp runs an app spec's structure with the recorder on its hot
// line: the spec's own placement, arbiter and seed apply (the -arbiter
// flag is the primitive path's knob), and each thread performs ops
// operations of the structure.
func traceApp(m *machine.Machine, sp *apps.Spec, ops int, chrome string) {
	cfg, err := sp.RunConfig(m)
	if err != nil {
		fatal(err)
	}
	hot, err := sp.HotLine()
	if err != nil {
		fatal(err)
	}
	slots, err := cfg.Placement.Place(m, cfg.Threads)
	if err != nil {
		fatal(err)
	}
	eng := sim.NewEngine()
	mem, err := atomics.NewMemory(eng, m, cfg.Arbiter)
	if err != nil {
		fatal(err)
	}
	app := cfg.Build(eng, mem)
	// Flush structure seeding (pre-pushed elements, initial words)
	// before arming the tracer: the trace starts at a settled object.
	eng.Drain()
	rec := trace.NewRecorder(hot, 0)
	mem.System().SetTracer(rec.Observe)

	root := sim.NewRNG(cfg.Seed)
	for i := 0; i < cfg.Threads; i++ {
		th := &apps.Thread{ID: i, Core: m.CoreOf(slots[i]), RNG: root.Split()}
		var step func(remaining int)
		step = func(remaining int) {
			if remaining == 0 {
				return
			}
			app.Step(th, func() { step(remaining - 1) })
		}
		left := ops
		eng.Schedule(th.RNG.Duration(10*sim.Nanosecond), func() { step(left) })
	}
	eng.Drain()
	dumpTrace(rec, chrome)
}

// traceMachine runs one contended trace on m and writes its CSV,
// summary, and optional Chrome timeline; atomictrace repeats it per
// selected machine.
func traceMachine(m *machine.Machine, p atomics.Primitive, threads, ops int, arbName, chrome string) {
	var arb coherence.Arbiter
	switch arbName {
	case "fifo":
		arb = coherence.FIFOArbiter{}
	case "random":
		arb = coherence.NewRandomArbiter(42)
	case "locality":
		arb = &coherence.LocalityArbiter{}
	default:
		fatal(fmt.Errorf("unknown arbiter %q", arbName))
	}
	slots, err := (machine.Compact{}).Place(m, threads)
	if err != nil {
		fatal(err)
	}

	eng := sim.NewEngine()
	mem, err := atomics.NewMemory(eng, m, arb)
	if err != nil {
		fatal(err)
	}

	const hot coherence.LineID = 1
	rec := trace.NewRecorder(hot, 0)
	mem.System().SetTracer(rec.Observe)

	rng := sim.NewRNG(42)
	for i := 0; i < threads; i++ {
		core := m.CoreOf(slots[i])
		var issue func(remaining int)
		issue = func(remaining int) {
			if remaining == 0 {
				return
			}
			mem.Do(p, core, hot, 1, 2, func(atomics.Result) { issue(remaining - 1) })
		}
		left := ops
		eng.Schedule(rng.Duration(10*sim.Nanosecond), func() { issue(left) })
	}
	eng.Drain()
	dumpTrace(rec, chrome)
}

// dumpTrace writes the recorder's CSV to stdout, the optional Chrome
// timeline, and the bouncing summary to stderr.
func dumpTrace(rec *trace.Recorder, chrome string) {
	if err := rec.WriteCSV(os.Stdout); err != nil {
		fatal(err)
	}

	if chrome != "" {
		f, err := os.Create(chrome)
		if err != nil {
			fatal(err)
		}
		if err := rec.WriteChromeTrace(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (open in chrome://tracing or https://ui.perfetto.dev)\n", chrome)
	}

	s := rec.Summarize()
	fmt.Fprintf(os.Stderr, "summary: %d accesses, %d RMWs, %d transfers, mean run %.2f (max %d), mean hops %.1f, cross-socket %.0f%%, mean gap %.1fns\n",
		s.Accesses, s.RMWs, s.Transfers, s.MeanRun, s.MaxRun, s.MeanHops, s.CrossFraction*100, s.MeanGap.Nanoseconds())
	fmt.Fprintf(os.Stderr, "ownership shares:")
	for i, sh := range rec.OwnershipShares() {
		if i == 8 {
			fmt.Fprintf(os.Stderr, " …")
			break
		}
		fmt.Fprintf(os.Stderr, " core%d=%.0f%%", sh.Core, sh.Share*100)
	}
	fmt.Fprintln(os.Stderr)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "atomictrace:", err)
	os.Exit(1)
}
