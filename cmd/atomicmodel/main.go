// Command atomicmodel queries the paper's performance model directly:
// given a machine, primitive, thread count/placement and local work, it
// prints the predicted service time, throughput, latency, CAS success
// rate, fairness and energy — optionally next to a simulator run.
//
// Usage:
//
//	atomicmodel -machine XeonE5 -primitive FAA -threads 16
//	atomicmodel -machine KNL -primitive CAS -threads 64 -compare
//	atomicmodel -machine XeonE5 -primitive FAA -threads 8 -placement scatter -work 200ns
//	atomicmodel -machines XeonE5,EPYC -primitive FAA -threads 16   # query several machines
//	atomicmodel -machinefile spec.json -primitive CAS -threads 8   # query a custom spec
//
// With -apps/-appfile it answers for whole concurrent objects instead
// of single primitives, via the conflict-based throughput model
// (internal/predict): each step of the object's hot path is costed at
// the primitive service times, and contended steps are multiplied by a
// retry factor. Without -compare the retry factor is the blind
// worst-case (one failed attempt per rival); with -compare the
// simulator runs each point and the model re-predicts from the
// measured retry factor, reporting both errors:
//
//	atomicmodel -apps treiber,ticket-lock          # blind predictions
//	atomicmodel -appfile spec.json -compare        # prediction vs simulation
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"atomicsmodel/internal/apps"
	"atomicsmodel/internal/atomics"
	"atomicsmodel/internal/cli"
	"atomicsmodel/internal/core"
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/predict"
	"atomicsmodel/internal/sim"
	"atomicsmodel/internal/workload"
)

func main() {
	machSel := cli.MachineFlags(flag.CommandLine, "XeonE5")
	appSel := cli.AppFlags(flag.CommandLine, ": predict object throughput via the conflict model instead of querying a primitive")
	var (
		primName  = flag.String("primitive", "FAA", "primitive: CAS, FAA, SWAP, TAS, Load, Store")
		threads   = flag.Int("threads", 8, "number of threads")
		placeName = flag.String("placement", "compact", "placement: compact, scatter, smt-first, socket-0")
		workStr   = flag.String("work", "0s", "local work between ops (Go duration, e.g. 200ns)")
		compare   = flag.Bool("compare", false, "also run the simulator and report error")
		lowMode   = flag.Bool("low", false, "predict the low-contention (private lines) setting")
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
		for i, m := range machines {
			if i > 0 {
				fmt.Println()
			}
			queryApps(m, specs, *compare)
		}
		return
	}

	p, err := atomics.Parse(*primName)
	if err != nil {
		fatal(err)
	}
	pl, err := machine.PlacementByName(*placeName)
	if err != nil {
		fatal(err)
	}
	workDur, err := time.ParseDuration(*workStr)
	if err != nil {
		fatal(fmt.Errorf("bad -work: %w", err))
	}
	work := sim.Time(workDur.Nanoseconds()) * sim.Nanosecond

	for i, m := range machines {
		if i > 0 {
			fmt.Println()
		}
		query(m, p, pl, work, workDur, *threads, *compare, *lowMode)
	}
}

// query prints the model's answer (and optionally the simulator's) for
// one machine; atomicmodel repeats it per selected machine.
func query(m *machine.Machine, p atomics.Primitive, pl machine.Placement, work sim.Time, workDur time.Duration, threads int, compare, lowMode bool) {
	slots, err := pl.Place(m, threads)
	if err != nil {
		fatal(err)
	}
	cores := make([]int, threads)
	for i, s := range slots {
		cores[i] = m.CoreOf(s)
	}

	det := core.NewDetailed(m)
	simple, cal, err := core.Calibrate(m)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("machine:    %s\n", m)
	fmt.Printf("primitive:  %s, threads: %d, placement: %s, work: %v\n", p, threads, pl.Name(), workDur)
	fmt.Printf("calibrated: %s\n\n", cal)

	var pd, ps core.Prediction
	if lowMode {
		pd = det.PredictLow(p, threads, work)
		ps = simple.PredictLow(p, threads, work)
	} else {
		pd = det.PredictHigh(p, cores, work)
		ps = simple.PredictHigh(p, cores, work)
	}
	printPred("detailed model", pd)
	printPred("simple model", ps)

	if compare {
		mode := workload.HighContention
		if lowMode {
			mode = workload.LowContention
		}
		res, err := workload.Run(workload.Config{
			Machine: m, Threads: threads, Primitive: p, Mode: mode,
			Placement: pl, LocalWork: work,
			Warmup: 25 * sim.Microsecond, Duration: 400 * sim.Microsecond, Seed: 42,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("simulator:\n")
		fmt.Printf("  throughput:   %8.2f Mops (detailed model error %+.1f%%)\n",
			res.ThroughputMops, 100*(pd.ThroughputMops-res.ThroughputMops)/res.ThroughputMops)
		fmt.Printf("  mean latency: %8.1f ns\n", res.Latency.Mean().Nanoseconds())
		fmt.Printf("  success rate: %8.3f\n", res.SuccessRate())
		fmt.Printf("  Jain index:   %8.3f\n", res.Jain)
		fmt.Printf("  energy/op:    %8.1f nJ\n", res.Energy.PerOpNJ)
	}
}

func printPred(name string, p core.Prediction) {
	fmt.Printf("%s:\n", name)
	fmt.Printf("  service time: %8.1f ns\n", p.ServiceTime.Nanoseconds())
	fmt.Printf("  throughput:   %8.2f Mops (attempts %.2f Mops)\n", p.ThroughputMops, p.AttemptsMops)
	fmt.Printf("  mean latency: %8.1f ns\n", p.AttemptLatency.Nanoseconds())
	fmt.Printf("  success rate: %8.3f\n", p.SuccessRate)
	fmt.Printf("  Jain index:   %8.3f\n", p.Jain)
	fmt.Printf("  energy/op:    %8.1f nJ\n\n", p.EnergyPerOpNJ)
}

// queryApps prints conflict-model throughput predictions for app specs
// on one machine. Blind predictions charge every contended step a
// worst-case retry factor of n (each attempt loses to every rival
// once); -compare replaces it with the simulator's measured
// attempts-per-op and reports both errors against the simulated rate.
func queryApps(m *machine.Machine, specs []*apps.Spec, compare bool) {
	fmt.Printf("machine: %s\n", m)
	for _, s := range specs {
		points := s.Expand()
		fmt.Printf("\napp %s (%s):\n", s.Label(), s.Defaulted().Structure)
		for _, pt := range points {
			if pt.Threads > m.NumHWThreads() {
				fmt.Printf("  %3d threads: skipped (machine has %d hardware threads)\n",
					pt.Threads, m.NumHWThreads())
				continue
			}
			if err := pt.CheckMachine(m); err != nil {
				fmt.Printf("  %3d threads: skipped (%v)\n", pt.Threads, err)
				continue
			}
			blind, err := predict.ForSpec(m, pt, predict.Blind(pt.Threads))
			if err != nil {
				fatal(err)
			}
			if !compare {
				fmt.Printf("  %3d threads: %8.2f Mops (blind retry factor %d)\n",
					pt.Threads, blind, pt.Threads)
				continue
			}
			res, err := apps.RunSpec(pt, m)
			if err != nil {
				fatal(err)
			}
			q := predict.Measured(res)
			measured, err := predict.ForSpec(m, pt, q)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("  %3d threads: sim %8.2f Mops | model %8.2f Mops (%+.1f%% @ measured retry %.2f) | blind %8.2f Mops (%+.1f%%)\n",
				pt.Threads, res.ThroughputMops,
				measured, 100*(measured-res.ThroughputMops)/res.ThroughputMops, q.RetryFactor,
				blind, 100*(blind-res.ThroughputMops)/res.ThroughputMops)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "atomicmodel:", err)
	os.Exit(1)
}
