package workload

import (
	"fmt"
	"math"
	"testing"

	"atomicsmodel/internal/atomics"
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/sim"
)

// readMixModes are the three ways the read-mix differential runs each
// cell, each on its own loop so that every path a run of loads meets is
// covered: blind CAS with metrics off (failed CASes leave spans open
// for a load to close), FAA with metrics on (the registry's read and
// per-thread counters and the engine's queue counters), and the CAS
// retry loop under the invariant checker (a retry tosses its own coin,
// and parked chains must pass the checker's lane audit).
var readMixModes = []struct {
	name string
	edit func(*Config)
}{
	{"cas", func(c *Config) { c.Primitive = atomics.CAS }},
	{"metrics-faa", func(c *Config) { c.Primitive, c.Metrics = atomics.FAA, true }},
	{"check-cas-retry", func(c *Config) { c.Primitive, c.CASRetryLoop, c.Check = atomics.CAS, true, true }},
}

// readMixDiff runs the read-mix cells of the differential — fractions
// 0.25 to 1.0, at 1, 2 and 8 threads and the machine's maximum, in
// every mode of readMixModes — on each machine with fast-forward off
// and on. It returns the cells whose result JSON differs, and the
// re-reads the fast runs parked per machine, fraction and mode.
func readMixDiff(t *testing.T, machines ...string) (diffs []string, parked map[string]uint64) {
	t.Helper()
	parked = map[string]uint64{}
	for _, name := range machines {
		m, err := machine.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, rf := range []float64{0.25, 0.5, 0.9, 0.99, 1.0} {
			for _, mode := range readMixModes {
				group := fmt.Sprintf("%s/%.2f/%s", name, rf, mode.name)
				for _, n := range []int{1, 2, 8, m.NumHWThreads()} {
					cfg := quickCfg(m, atomics.CAS, n)
					cfg.Mode, cfg.ReadFraction = ReadWriteMix, rf
					mode.edit(&cfg)
					slow, fast, took := ffDiff(t, cfg)
					parked[group] += took
					if slow != fast {
						diffs = append(diffs, fmt.Sprintf("%s/%d threads\noff: %s\non:  %s", group, n, slow, fast))
					}
				}
			}
		}
	}
	return diffs, parked
}

// TestReadMixParkDifferential requires every read-mix cell of
// readMixDiff, on four machines of different topologies, to produce
// byte-identical Result JSON with fast-forward off (every load a real
// event) and on (runs of hits parked). So that it cannot pass
// vacuously, loads must have parked in every mode at every fraction on
// every machine.
func TestReadMixParkDifferential(t *testing.T) {
	diffs, parked := readMixDiff(t, "XeonE5", "KNL", "Grace", "Ideal8")
	for _, d := range diffs {
		t.Errorf("parking changed the result: %s", d)
	}
	for group, n := range parked {
		if n == 0 {
			t.Errorf("%s: no load parked", group)
		}
	}
}

// TestCertainCoinsSkipDraws holds the undrawn coins of a read mix at
// fraction 1.00 (certainLoads) to the drawn coins of the same mix at
// the largest fraction below 1, whose every draw also says load (no
// Float64 reaches it but the one value 1-2^-53, at odds of 2^-53 a
// draw): the two results must be byte-identical, with fast-forward
// off and on. The shapes cover the loop that skips its draws (one
// line, no think time, closed) and loops whose RNG feeds something
// else too, which must keep drawing: jittered think time, an open loop
// and several lines.
func TestCertainCoinsSkipDraws(t *testing.T) {
	below := math.Nextafter(1, 0)
	shapes := []struct {
		name string
		edit func(*Config)
	}{
		{"parked", func(*Config) {}},
		{"jitter", func(c *Config) { c.LocalWork, c.WorkJitter = 20*sim.Nanosecond, true }},
		{"open-loop", func(c *Config) { c.OpenLoop, c.OpenLoopInterarrival = true, 200*sim.Nanosecond }},
		{"lines4", func(c *Config) { c.Lines = 4 }},
	}
	defer SetFastForward(true)
	for _, name := range []string{"XeonE5", "KNL"} {
		m, err := machine.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, sh := range shapes {
			for _, mode := range readMixModes[:2] {
				for _, n := range []int{1, 8} {
					for _, ff := range []bool{false, true} {
						SetFastForward(ff)
						cfg := quickCfg(m, atomics.CAS, n)
						cfg.Mode = ReadWriteMix
						sh.edit(&cfg)
						mode.edit(&cfg)
						var got [2]string
						for i, rf := range []float64{1, below} {
							cfg.ReadFraction = rf
							r, err := Run(cfg)
							if err != nil {
								t.Fatal(err)
							}
							got[i] = resultJSON(t, r)
						}
						if got[0] != got[1] {
							t.Errorf("%s/%s/%s/%d threads/fast-forward %v: fraction 1 and %v differ\n1:     %s\nbelow: %s",
								name, sh.name, mode.name, n, ff, below, got[0], got[1])
						}
					}
				}
			}
		}
	}
}

// TestLoadLoopIsCertainMix holds the Load primitive's loop to a read
// mix at fraction 1.00, whose every coin says load: both park their
// loads as one unbounded run (loadRun), so the two results must be
// byte-identical, with metrics and the invariant checker off and on,
// and with fast-forward on and off (off at up to 8 threads, where
// every load is a real event, to keep the test short).
func TestLoadLoopIsCertainMix(t *testing.T) {
	defer SetFastForward(true)
	for _, name := range []string{"XeonE5", "KNL", "Grace", "Ideal8"} {
		m, err := machine.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{1, 2, 8, m.NumHWThreads()} {
			for _, ff := range []bool{true, false} {
				if !ff && n > 8 {
					continue
				}
				SetFastForward(ff)
				for _, metricsOn := range []bool{false, true} {
					for _, check := range []bool{false, true} {
						load := quickCfg(m, atomics.Load, n)
						mix := quickCfg(m, atomics.FAA, n)
						mix.Mode, mix.ReadFraction = ReadWriteMix, 1
						var got [2]string
						for i, cfg := range []Config{load, mix} {
							cfg.Metrics, cfg.Check = metricsOn, check
							r, err := Run(cfg)
							if err != nil {
								t.Fatal(err)
							}
							got[i] = resultJSON(t, r)
						}
						if got[0] != got[1] {
							t.Errorf("%s/%d threads/fast-forward %v/metrics %v/check %v: Load loop and certain mix differ\nload: %s\nmix:  %s",
								name, n, ff, metricsOn, check, got[0], got[1])
						}
					}
				}
			}
		}
	}
}
