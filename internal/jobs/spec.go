// Package jobs turns the experiment harness into a crash-safe
// simulation job service: the library behind the atomicd daemon
// (cmd/atomicd). A job is a declarative JSON request — machines (by
// registered name or inline machine.Spec), workloads (by preset name
// or inline workload.Spec), apps (by registered name or inline
// apps.Spec, run as the A suite), and run options (quick/metrics/
// check/fleet/seed/deadline) — whose identity is a content digest
// derived from the same machine/workload/app sha256 digests that key
// the cell cache: identical requests are one job, deduplicated both
// in flight and across daemon restarts.
//
// Robustness is the package's whole job (DESIGN.md, "Simulation as a
// service"): submissions are journaled write-ahead (jobs.jsonl, via
// the internal/runlog JSONL conventions) before they are admitted, so
// a SIGKILL'd daemon recovers queued and in-flight jobs on restart and
// replays their completed cells from the shared cell cache; execution
// runs on a bounded worker pool with per-job deadlines
// (harness.Options.Context), capped exponential-backoff-with-jitter
// retries, and job-level panic isolation; admission control sheds load
// (bounded queue depth and per-client in-flight caps → HTTP 429)
// instead of growing without bound; and SIGTERM drains gracefully —
// stop admitting, finish what was accepted, flush, exit.
package jobs

import (
	"encoding/json"
	"fmt"
	"strings"

	"atomicsmodel/internal/apps"
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/runlog"
	"atomicsmodel/internal/speckit"
	"atomicsmodel/internal/workload"
)

// Spec is one job request: the JSON body of POST /jobs. It is parsed
// strictly (unknown fields and trailing garbage are errors) like the
// machine and workload specs it embeds.
type Spec struct {
	// Machines lists registered machine names (aliases allowed) to run
	// on. Empty means the paper pair for workload jobs and every
	// registered machine for fleet jobs.
	Machines []string `json:"machines,omitempty"`
	// MachineSpec is an inline machine definition, run alongside any
	// named Machines.
	MachineSpec *machine.Spec `json:"machineSpec,omitempty"`

	// Workloads lists registered workload preset names. At least one
	// workload or app (named or inline) is required.
	Workloads []string `json:"workloads,omitempty"`
	// WorkloadSpec is an inline workload definition, run alongside any
	// named Workloads.
	WorkloadSpec *workload.Spec `json:"workloadSpec,omitempty"`

	// Apps lists registered app-spec names (concurrent-object
	// benchmarks, run as the A suite).
	Apps []string `json:"apps,omitempty"`
	// AppSpec is an inline app definition, run alongside any named Apps.
	AppSpec *apps.Spec `json:"appSpec,omitempty"`

	// Fleet runs the workloads as a fleet sweep (bottleneck verdicts
	// across machines, see BOTTLENECKS.md) instead of the plain W
	// suite. Knee optionally overrides the fleet knee-detection
	// utilization threshold (0 means the default).
	Fleet bool    `json:"fleet,omitempty"`
	Knee  float64 `json:"knee,omitempty"`

	// Quick trims sweeps to CI-speed runs; Metrics appends per-cell
	// breakdown tables; Check audits coherence/engine invariants.
	// Each joins the cell cache key exactly as the CLI flags do.
	Quick   bool `json:"quick,omitempty"`
	Metrics bool `json:"metrics,omitempty"`
	Check   bool `json:"check,omitempty"`

	// Seed is the base seed; zero means the CLI default (42).
	Seed uint64 `json:"seed,omitempty"`

	// DeadlineMS optionally overrides the server's per-job deadline in
	// milliseconds. Execution policy, not identity: it never joins the
	// job digest, because it cannot change the result.
	DeadlineMS int64 `json:"deadlineMS,omitempty"`
}

// DefaultSeed matches the CLIs' -seed default, so a job that omits the
// seed reuses their cache cells.
const DefaultSeed = 42

// maxJobMachines bounds the machine list; a longer one is a typo or an
// attack, not a plan.
const maxJobMachines = 64

// maxJobWorkloads bounds the workload list.
const maxJobWorkloads = 64

// maxJobApps bounds the app list.
const maxJobApps = 64

// ParseSpec decodes a job request strictly: unknown fields (at any
// nesting level, including inline machine and workload specs) and
// trailing garbage are errors, so a typo'd knob can never be silently
// ignored.
func ParseSpec(data []byte) (*Spec, error) {
	return speckit.Strict[Spec]("jobs: parsing job spec", data)
}

// Resolved is a job spec with every name resolved against the live
// registries: the concrete machines and pinned workload specs the
// harness will run, plus the effective seed and knee.
type Resolved struct {
	Machines []*machine.Machine
	Specs    []*workload.Spec
	AppSpecs []*apps.Spec
	Seed     uint64
	Knee     float64
}

// Resolve validates the spec and resolves names to machines and
// workload specs. Resolution is deterministic: machines and workloads
// keep their request order, and the fleet default (every registered
// machine) is expanded here, at submit time, so the job's identity
// pins the machine set even if the registry later grows.
func (s *Spec) Resolve() (*Resolved, error) {
	if len(s.Machines) > maxJobMachines {
		return nil, fmt.Errorf("jobs: %d machines (max %d)", len(s.Machines), maxJobMachines)
	}
	if len(s.Workloads) > maxJobWorkloads {
		return nil, fmt.Errorf("jobs: %d workloads (max %d)", len(s.Workloads), maxJobWorkloads)
	}
	if len(s.Apps) > maxJobApps {
		return nil, fmt.Errorf("jobs: %d apps (max %d)", len(s.Apps), maxJobApps)
	}
	hasWorkloads := len(s.Workloads) > 0 || s.WorkloadSpec != nil
	hasApps := len(s.Apps) > 0 || s.AppSpec != nil
	if !hasWorkloads && !hasApps {
		return nil, fmt.Errorf("jobs: a job needs at least one workload (names in %q or an inline workloadSpec) or app (names in %q or an inline appSpec); registered workloads: %s",
			"workloads", "apps", strings.Join(workload.SpecNames(), ", "))
	}
	if s.Fleet && !hasWorkloads {
		return nil, fmt.Errorf("jobs: fleet sweeps run workloads; an apps-only job cannot set fleet=true")
	}
	if s.Knee != 0 && !s.Fleet {
		return nil, fmt.Errorf("jobs: knee is a fleet option; set fleet=true or drop it")
	}
	if s.Knee < 0 || s.Knee > 1 {
		return nil, fmt.Errorf("jobs: knee %g (want a utilization threshold in (0,1])", s.Knee)
	}
	if s.DeadlineMS < 0 {
		return nil, fmt.Errorf("jobs: deadlineMS %d (want >= 0)", s.DeadlineMS)
	}

	r := &Resolved{Seed: s.Seed, Knee: s.Knee}
	if r.Seed == 0 {
		r.Seed = DefaultSeed
	}

	var err error
	if r.Machines, err = speckit.ByNames(s.Machines, machine.ByName); err != nil {
		return nil, fmt.Errorf("jobs: %w", err)
	}
	if s.MachineSpec != nil {
		m, err := s.MachineSpec.Build()
		if err != nil {
			return nil, fmt.Errorf("jobs: inline machine spec: %w", err)
		}
		r.Machines = append(r.Machines, m)
	}
	if len(r.Machines) == 0 {
		if s.Fleet {
			if r.Machines, err = speckit.ByNames(machine.Names(), machine.ByName); err != nil {
				return nil, fmt.Errorf("jobs: %w", err)
			}
		} else {
			r.Machines = machine.All()
		}
	}

	if r.Specs, err = speckit.ByNames(s.Workloads, workload.SpecByName); err != nil {
		return nil, fmt.Errorf("jobs: %w", err)
	}
	if s.WorkloadSpec != nil {
		if err := s.WorkloadSpec.Validate(); err != nil {
			return nil, fmt.Errorf("jobs: inline workload spec: %w", err)
		}
		r.Specs = append(r.Specs, s.WorkloadSpec)
	}

	if r.AppSpecs, err = speckit.ByNames(s.Apps, apps.SpecByName); err != nil {
		return nil, fmt.Errorf("jobs: %w", err)
	}
	if s.AppSpec != nil {
		if err := s.AppSpec.Validate(); err != nil {
			return nil, fmt.Errorf("jobs: inline app spec: %w", err)
		}
		r.AppSpecs = append(r.AppSpecs, s.AppSpec)
	}
	return r, nil
}

// Validate checks the spec without keeping the resolution.
func (s *Spec) Validate() error {
	_, err := s.Resolve()
	return err
}

// jobIdentity is the canonical content the job ID hashes: machines by
// content key (Name@digest — machine.Key), workloads by spec digest,
// and every option that can change the result. Execution policy
// (DeadlineMS) is excluded: two requests that must produce the same
// bytes are the same job.
type jobIdentity struct {
	Machines  []string `json:"machines"`
	Workloads []string `json:"workloads"`
	// Apps is omitempty so workload-only job IDs predate the field
	// unchanged: adding the apps layer must not invalidate every
	// journaled job identity.
	Apps    []string `json:"apps,omitempty"`
	Fleet   bool     `json:"fleet,omitempty"`
	Knee    float64  `json:"knee,omitempty"`
	Quick   bool     `json:"quick,omitempty"`
	Metrics bool     `json:"metrics,omitempty"`
	Check   bool     `json:"check,omitempty"`
	Seed    uint64   `json:"seed"`
}

// ID returns the job's content-addressed identity: "j" plus the short
// sha256 of the canonical resolved form. Same inputs — through any
// spelling (machine aliases, implicit defaults, inline specs equal to
// presets) — same ID; any knob that changes the result changes it.
func (s *Spec) ID() (string, error) {
	r, err := s.Resolve()
	if err != nil {
		return "", err
	}
	ident := jobIdentity{
		Fleet: s.Fleet, Knee: s.Knee,
		Quick: s.Quick, Metrics: s.Metrics, Check: s.Check,
		Seed: r.Seed,
	}
	for _, m := range r.Machines {
		ident.Machines = append(ident.Machines, m.Key())
	}
	for _, w := range r.Specs {
		d, err := w.Digest()
		if err != nil {
			return "", fmt.Errorf("jobs: workload digest: %w", err)
		}
		ident.Workloads = append(ident.Workloads, "wl@"+d)
	}
	for _, a := range r.AppSpecs {
		d, err := a.Digest()
		if err != nil {
			return "", fmt.Errorf("jobs: app digest: %w", err)
		}
		ident.Apps = append(ident.Apps, "app@"+d)
	}
	b, err := json.Marshal(ident)
	if err != nil {
		return "", err
	}
	return "j" + runlog.Digest(b), nil
}
