// Package atomicsmodel is a reproduction of "Modeling the Performance
// of Atomic Primitives on Modern Architectures" (Hoseini, Atalar,
// Tsigas; ICPP 2019) as a Go library.
//
// It provides:
//
//   - a deterministic discrete-event simulator of MESI cache coherence
//     on two machine models (a two-socket Intel Xeon E5 and an Intel
//     Xeon Phi KNL), on which the atomic primitives CAS, FAA, SWAP,
//     TAS, Load and Store execute with realistic line-bouncing costs;
//   - the paper's analytical performance model (latency, throughput,
//     CAS success rate, fairness, energy — under high and low
//     contention), in a topology-aware "detailed" variant and the
//     paper's three-constant "simple" variant with calibration;
//   - workload and application benchmarks (counters, Treiber stack,
//     spinlocks) and the full experiment harness that regenerates every
//     table and figure (see DESIGN.md and EXPERIMENTS.md);
//   - native sync/atomic microbenchmarks for qualitative host checks.
//
// This file re-exports the library's primary entry points so that
// downstream code imports a single package:
//
//	m := atomicsmodel.XeonE5()
//	model := atomicsmodel.NewModel(m)
//	cores, _ := atomicsmodel.PlaceCompact(m, 16)
//	pred := model.PredictHigh(atomicsmodel.FAA, cores, 0)
//
//	res, _ := atomicsmodel.RunWorkload(atomicsmodel.WorkloadConfig{
//		Machine: m, Threads: 16, Primitive: atomicsmodel.FAA,
//		Mode: atomicsmodel.HighContention,
//	})
package atomicsmodel

import (
	"atomicsmodel/internal/apps"
	"atomicsmodel/internal/atomics"
	"atomicsmodel/internal/bottleneck"
	"atomicsmodel/internal/coherence"
	"atomicsmodel/internal/core"
	"atomicsmodel/internal/harness"
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/metrics"
	"atomicsmodel/internal/native"
	"atomicsmodel/internal/predict"
	"atomicsmodel/internal/sim"
	"atomicsmodel/internal/trace"
	"atomicsmodel/internal/workload"
)

// Time is a simulated duration in picoseconds.
type Time = sim.Time

// Common durations.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Machine describes a simulated platform.
type Machine = machine.Machine

// MachineSpec is the declarative, serializable machine description;
// MachineSpec.Build is the single constructor every Machine comes from.
type MachineSpec = machine.Spec

// XeonE5 returns the two-socket Xeon E5 machine description.
func XeonE5() *Machine { return machine.XeonE5() }

// KNL returns the Xeon Phi Knights Landing machine description.
func KNL() *Machine { return machine.KNL() }

// MachineByName resolves a registered machine by name or alias
// (case-insensitive); unknown names produce an error listing every
// registered machine.
func MachineByName(name string) (*Machine, error) { return machine.ByName(name) }

// MachineNames returns the canonical names of all registered machines.
func MachineNames() []string { return machine.Names() }

// ParseMachineSpec decodes a JSON machine spec (strictly: unknown
// fields are errors).
func ParseMachineSpec(data []byte) (*MachineSpec, error) { return machine.ParseSpec(data) }

// LoadMachineFile reads, parses and builds a machine from a JSON spec
// file.
func LoadMachineFile(path string) (*Machine, error) { return machine.LoadSpecFile(path) }

// Machines returns the machines the paper evaluates.
func Machines() []*Machine { return machine.All() }

// Primitive identifies an atomic operation.
type Primitive = atomics.Primitive

// The primitives under study.
const (
	CAS   = atomics.CAS
	FAA   = atomics.FAA
	SWAP  = atomics.SWAP
	TAS   = atomics.TAS
	CAS2  = atomics.CAS2
	Load  = atomics.Load
	Store = atomics.Store
	Fence = atomics.Fence
)

// ParsePrimitive resolves a primitive by its display name.
func ParsePrimitive(name string) (Primitive, error) { return atomics.Parse(name) }

// Model is the paper's cache-line bouncing performance model.
type Model = core.Model

// Prediction is a model output.
type Prediction = core.Prediction

// NewModel returns the topology-aware (detailed) model for m.
func NewModel(m *Machine) *Model { return core.NewDetailed(m) }

// AlgoStep describes one memory access of a concurrent algorithm's
// operation, for the composite model (Model.Compose, and its blind
// form Model.PredictAlgorithm).
type AlgoStep = core.AlgoStep

// Line sentinels for AlgoStep.
const (
	// PrivateLine marks a per-thread line (no cross-thread traffic).
	PrivateLine = core.PrivateLine
	// MigratoryLine marks per-element lines that transfer between
	// threads without being a shared serialization point.
	MigratoryLine = core.MigratoryLine
)

// CalibrateModel measures the simple model's three constants with
// probe runs and returns the calibrated model.
func CalibrateModel(m *Machine) (*Model, core.Calibration, error) { return core.Calibrate(m) }

// Workload configuration and execution.
type (
	// WorkloadConfig parameterizes a simulated benchmark run.
	WorkloadConfig = workload.Config
	// WorkloadResult reports a run's measurements.
	WorkloadResult = workload.Result
	// LineState is an initial cache-line state for single-op latency.
	LineState = workload.LineState
)

// Contention modes.
const (
	HighContention = workload.HighContention
	LowContention  = workload.LowContention
	ReadWriteMix   = workload.ReadWriteMix
)

// RunWorkload executes a simulated benchmark.
func RunWorkload(cfg WorkloadConfig) (*WorkloadResult, error) { return workload.Run(cfg) }

// WorkloadSpec is the declarative, serializable workload description —
// the workload-side analog of MachineSpec. Its content digest keys
// simulation cells in the resume cache.
type WorkloadSpec = workload.Spec

// ParseWorkloadSpec decodes and validates a JSON workload spec
// (strictly: unknown fields and trailing garbage are errors).
func ParseWorkloadSpec(data []byte) (*WorkloadSpec, error) { return workload.ParseSpec(data) }

// LoadWorkloadFile reads, parses and validates a workload spec from a
// JSON file.
func LoadWorkloadFile(path string) (*WorkloadSpec, error) { return workload.LoadSpecFile(path) }

// WorkloadSpecByName resolves a registered (embedded) workload spec by
// name, case-insensitively; unknown names produce an error listing
// every registered spec.
func WorkloadSpecByName(name string) (*WorkloadSpec, error) { return workload.SpecByName(name) }

// WorkloadSpecNames returns the names of all registered workload specs.
func WorkloadSpecNames() []string { return workload.SpecNames() }

// RunWorkloadSpec resolves a spec against a machine and executes it.
// Ladder specs must be expanded (WorkloadSpec.Expand) first.
func RunWorkloadSpec(s *WorkloadSpec, m *Machine) (*WorkloadResult, error) {
	return workload.RunSpec(s, m)
}

// WorkloadExperiment wraps workload specs as a harness experiment (the
// "W" suite) so they run with caching, manifests and rendering like
// the paper's own experiments.
func WorkloadExperiment(specs []*WorkloadSpec) *Experiment {
	return harness.WorkloadExperiment(specs)
}

// Bottleneck analysis (utilization rollups over metrics snapshots).
type (
	// MetricsSnapshot is a cell's instrument readings over its measured
	// window (WorkloadResult.Metrics when the run had Metrics enabled).
	MetricsSnapshot = metrics.Snapshot
	// BottleneckReport is the per-cell utilization rollup: busiest
	// directory, line, and link with their busy-fractions of the window.
	BottleneckReport = bottleneck.Report
	// BottleneckVerdict names the resource closest to saturation.
	BottleneckVerdict = bottleneck.Verdict
)

// AnalyzeBottlenecks rolls a metrics snapshot into per-resource
// utilization and a saturation verdict; see BOTTLENECKS.md.
func AnalyzeBottlenecks(s *MetricsSnapshot) (*BottleneckReport, error) {
	return bottleneck.Analyze(s)
}

// FleetExperiment wraps workload specs as a fleet sweep across every
// registered machine with per-cell bottleneck verdicts (the CLIs'
// -fleet mode); threshold <= 0 uses the default knee threshold.
func FleetExperiment(specs []*WorkloadSpec, threshold float64) *Experiment {
	return harness.FleetExperiment(specs, threshold)
}

// MeasureStateLatency measures one primitive on a line staged in the
// given initial state.
func MeasureStateLatency(m *Machine, p Primitive, st LineState) (Time, error) {
	return workload.MeasureStateLatency(m, p, st)
}

// PlaceCompact returns the physical cores of n compactly placed
// threads — the form model predictions consume.
func PlaceCompact(m *Machine, n int) ([]int, error) {
	return machine.PlaceCores(m, nil, n)
}

// Application benchmarks (counters, stacks, locks).
type (
	// App is one concurrent algorithm.
	App = apps.App
	// AppConfig parameterizes an application benchmark.
	AppConfig = apps.RunConfig
	// AppResult reports an application benchmark.
	AppResult = apps.RunResult
)

// RunApp executes an application benchmark.
func RunApp(cfg AppConfig) (*AppResult, error) { return apps.Run(cfg) }

// AppSpec is the declarative, serializable concurrent-object
// description — the apps-side analog of WorkloadSpec. It names a
// registered structure (AppStructureNames) plus its knobs, and its
// content digest keys A-suite simulation cells in the resume cache.
type AppSpec = apps.Spec

// ParseAppSpec decodes and validates a JSON app spec (strictly:
// unknown fields and trailing garbage are errors).
func ParseAppSpec(data []byte) (*AppSpec, error) { return apps.ParseSpec(data) }

// LoadAppSpecFile reads, parses and validates an app spec from a JSON
// file.
func LoadAppSpecFile(path string) (*AppSpec, error) { return apps.LoadSpecFile(path) }

// AppSpecByName resolves a registered (embedded) app spec by name,
// case-insensitively; unknown names produce an error listing every
// registered spec.
func AppSpecByName(name string) (*AppSpec, error) { return apps.SpecByName(name) }

// AppSpecNames returns the names of all registered app specs.
func AppSpecNames() []string { return apps.SpecNames() }

// AppStructureNames returns the names of every buildable structure an
// app spec may reference (counters, stacks, queues, locks, deques…).
func AppStructureNames() []string { return apps.StructureNames() }

// RunAppSpec resolves a pinned app spec against a machine and executes
// it. Ladder specs must be expanded (AppSpec.Expand) first.
func RunAppSpec(s *AppSpec, m *Machine) (*AppResult, error) {
	return apps.RunSpec(s, m)
}

// AppExperiment wraps app specs as a harness experiment (the "A"
// suite): each cell runs one structure at one ladder rung and the
// rendered table pairs the simulated throughput with the conflict
// model's prediction and its relative error.
func AppExperiment(specs []*AppSpec) *Experiment {
	return harness.AppExperiment(specs)
}

// Conflict-based throughput prediction for concurrent objects
// (internal/predict): each structure's operation is a recipe of
// AlgoSteps, evaluated by the composite model (Model.Compose) with its
// retry steps expanded by a measured or assumed retry factor.

// PredictQuantities are the measured (or assumed) per-structure
// inputs: retry factor and elimination fraction.
type PredictQuantities = predict.Quantities

// MeasuredQuantities extracts the conflict model's inputs from a
// finished app run (attempts per op, eliminations per op).
func MeasuredQuantities(res *AppResult) PredictQuantities { return predict.Measured(res) }

// BlindQuantities returns the a-priori worst-case quantities for n
// threads (retry factor n), for predictions without a measurement.
func BlindQuantities(n int) PredictQuantities { return predict.Blind(n) }

// PredictAppThroughput predicts a pinned app spec's throughput (Mops)
// on a machine from the given quantities.
func PredictAppThroughput(m *Machine, s *AppSpec, q PredictQuantities) (float64, error) {
	return predict.ForSpec(m, s, q)
}

// Experiments (the paper's tables and figures).
type (
	// Experiment regenerates one table or figure.
	Experiment = harness.Experiment
	// ExperimentOptions tunes an experiment run.
	ExperimentOptions = harness.Options
	// ResultTable is a rendered experiment result.
	ResultTable = harness.Table
)

// Experiments returns every registered experiment in display order.
func Experiments() []*Experiment { return harness.All() }

// ExperimentByID returns one experiment ("T1", "F1".."F12", "T2").
func ExperimentByID(id string) (*Experiment, error) { return harness.ByID(id) }

// Native host microbenchmarks.
type (
	// NativeConfig parameterizes a host sync/atomic run.
	NativeConfig = native.Config
	// NativeResult reports a host run.
	NativeResult = native.Result
)

// RunNative executes a microbenchmark on the host CPU.
func RunNative(cfg NativeConfig) (*NativeResult, error) { return native.Run(cfg) }

// Line tracing (watch a cache line bounce).
type (
	// TraceRecorder captures the coherence-level life of one line.
	TraceRecorder = trace.Recorder
	// TraceSummary is a recorded run's bouncing statistics.
	TraceSummary = trace.Summary
	// LineID names a simulated cache line.
	LineID = coherence.LineID
)

// NewTraceRecorder records accesses to one line (cap 0 = unlimited);
// install its Observe method as the coherence system's tracer.
func NewTraceRecorder(line LineID, cap int) *TraceRecorder { return trace.NewRecorder(line, cap) }
