// Package scenario composes the six workload presets into declarative
// multi-phase, multi-tenant runs — the consolidation regime the paper
// targets (many server applications sharing one CMP, each moving through
// load and code/dataset phases) that a single stationary workload.Params
// per core cannot express.
//
// A Spec is pure data: per-tenant core ranges, each with an ordered
// timeline of phases naming a preset (or carrying inline parameters)
// plus an access-count or task-count duration and optional load-shift
// ramps. Because the spec is structs, slices and scalars only — no maps,
// pointers or code — it is covered verbatim by the simulator's canonical
// digests: the service config hash, the snapshot structural-compatibility
// check, and the warm-checkpoint key all see the full scenario, so
// scenario runs cache, checkpoint and warm-share exactly like stationary
// ones.
//
// The executable form is Composite (composite.go): a phase-aware
// workload.Stream that is fully deterministic per seed, so the
// simulator's snapshot and warm-start machinery works on scenario runs
// unchanged.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"bump/internal/workload"
)

// Spec is a validated, declarative scenario: a named composition of
// per-tenant phase timelines over disjoint core ranges.
type Spec struct {
	// Name identifies the scenario (reports, result labels, digests).
	Name string `json:"name"`
	// Tenants assign phase timelines to disjoint core ranges; together
	// the ranges must cover every simulated core.
	Tenants []Tenant `json:"tenants"`
}

// Tenant is one colocated application: a core range and the phase
// timeline its cores run.
type Tenant struct {
	// Name labels the tenant (optional, for reports).
	Name string `json:"name,omitempty"`
	// Cores is the inclusive core range the tenant occupies.
	Cores CoreRange `json:"cores"`
	// Repeat loops the timeline indefinitely (diurnal cycles, phase
	// swaps). When true every phase needs a duration; when false the
	// final phase is open-ended and durations on it are rejected.
	Repeat bool `json:"repeat,omitempty"`
	// Phases is the ordered timeline.
	Phases []Phase `json:"phases"`
}

// CoreRange is an inclusive [First, Last] range of core indices.
type CoreRange struct {
	First int `json:"first"`
	Last  int `json:"last"`
}

// Contains reports whether core lies in the range.
func (r CoreRange) Contains(core int) bool { return core >= r.First && core <= r.Last }

// Phase is one segment of a tenant's timeline: a workload (preset name
// or inline parameters), a duration, and optional load-shift ramps.
type Phase struct {
	// Preset names one of the workload presets (e.g. "web-search").
	// When empty, Inline supplies the full parameters instead.
	Preset string `json:"preset,omitempty"`
	// Inline is a complete workload.Params used when Preset is empty
	// (scenario files can define workloads the preset catalogue lacks).
	Inline workload.Params `json:"inline,omitzero"`

	// Accesses bounds the phase in stream accesses drawn; Tasks bounds
	// it in generator tasks started beyond the initial window. Exactly
	// one may be set; both zero marks the open-ended final phase of a
	// non-repeating timeline.
	Accesses uint64 `json:"accesses,omitempty"`
	// Tasks ends the phase once its generator has started this many
	// fresh tasks. The boundary lands at the first access draw at which
	// the count is reached, so it is exact and deterministic but not
	// predictable without running the phase (checkpoint seeks replay
	// task-bounded phases; access-bounded ones are skipped arithmetically).
	Tasks uint64 `json:"tasks,omitempty"`

	// Load-shift ramps (0 = leave the preset value unchanged; otherwise
	// a multiplier in [1/16, 16]).
	//
	// LoadScale scales OpenTasks — the number of interleaved tasks per
	// core, i.e. offered load and memory-level parallelism.
	LoadScale float64 `json:"load_scale,omitempty"`
	// WorkScale scales the work gaps (WorkMin/Max, ChaseWorkMin/Max):
	// <1 is a compute-light high-pressure phase, >1 a quiet one.
	WorkScale float64 `json:"work_scale,omitempty"`
	// WriteScale scales the write-burst and sparse-write task weights
	// (renormalised by the generator), shifting the read/write mix.
	WriteScale float64 `json:"write_scale,omitempty"`
}

// scaleBounds for the ramp multipliers.
const scaleMin, scaleMax = 1.0 / 16, 16.0

// bounded reports whether the phase has a duration.
func (ph Phase) bounded() bool { return ph.Accesses > 0 || ph.Tasks > 0 }

// Params resolves the phase's effective workload parameters: preset (or
// inline) with the ramps applied.
func (ph Phase) Params() (workload.Params, error) {
	var p workload.Params
	if ph.Preset != "" {
		if ph.Inline != (workload.Params{}) {
			// Never pick one silently: the ignored half would also leak
			// into the config hash, splitting identical simulations
			// across cache keys.
			return p, fmt.Errorf("scenario: phase sets both preset %q and inline params", ph.Preset)
		}
		var ok bool
		p, ok = workload.ByName(ph.Preset)
		if !ok {
			return p, fmt.Errorf("scenario: unknown preset %q", ph.Preset)
		}
	} else {
		p = ph.Inline
		if p.Name == "" {
			return p, fmt.Errorf("scenario: phase needs a preset name or inline params with a Name")
		}
	}
	for _, s := range []float64{ph.LoadScale, ph.WorkScale, ph.WriteScale} {
		if s != 0 && (s < scaleMin || s > scaleMax) {
			return p, fmt.Errorf("scenario: phase %s: scale %g outside [%g, %g]", p.Name, s, scaleMin, scaleMax)
		}
	}
	if ph.LoadScale > 0 {
		p.OpenTasks = scaleInt(p.OpenTasks, ph.LoadScale)
	}
	if ph.WorkScale > 0 {
		p.WorkMin = scaleInt(p.WorkMin, ph.WorkScale)
		p.WorkMax = scaleInt(p.WorkMax, ph.WorkScale)
		p.ChaseWorkMin = scaleInt(p.ChaseWorkMin, ph.WorkScale)
		p.ChaseWorkMax = scaleInt(p.ChaseWorkMax, ph.WorkScale)
	}
	if ph.WriteScale > 0 {
		p.WriteBurstWeight *= ph.WriteScale
		p.SparseWriteWeight *= ph.WriteScale
	}
	if err := p.Validate(); err != nil {
		return p, fmt.Errorf("scenario: phase resolves to invalid params: %w", err)
	}
	return p, nil
}

// scaleInt multiplies with round-half-up, clamped to at least 1 so a
// hard downscale never zeroes a structural parameter.
func scaleInt(v int, s float64) int {
	out := int(float64(v)*s + 0.5)
	if out < 1 {
		return 1
	}
	return out
}

// Enabled reports whether the spec describes a scenario (the zero Spec
// means "no scenario" wherever a Spec is embedded, e.g. sim.Config).
func (s Spec) Enabled() bool { return len(s.Tenants) > 0 }

// Validate checks the spec against a core count: named presets resolve,
// ramps are in range, resolved parameters are valid, durations follow
// the Repeat rules, and the tenant core ranges partition [0, cores)
// exactly. cores <= 0 skips the partition check (spec-only validation).
func (s Spec) Validate(cores int) error {
	if !s.Enabled() {
		return fmt.Errorf("scenario: spec has no tenants")
	}
	if s.Name == "" {
		return fmt.Errorf("scenario: spec needs a name")
	}
	var owner []int
	if cores > 0 {
		owner = make([]int, cores)
		for i := range owner {
			owner[i] = -1
		}
	}
	for ti, tn := range s.Tenants {
		label := tn.Name
		if label == "" {
			label = fmt.Sprintf("#%d", ti)
		}
		if tn.Cores.First < 0 || tn.Cores.Last < tn.Cores.First {
			return fmt.Errorf("scenario %s: tenant %s: bad core range [%d, %d]", s.Name, label, tn.Cores.First, tn.Cores.Last)
		}
		if owner != nil {
			if tn.Cores.Last >= cores {
				return fmt.Errorf("scenario %s: tenant %s: core range [%d, %d] exceeds %d cores", s.Name, label, tn.Cores.First, tn.Cores.Last, cores)
			}
			for c := tn.Cores.First; c <= tn.Cores.Last; c++ {
				if owner[c] >= 0 {
					return fmt.Errorf("scenario %s: core %d claimed by tenants %d and %d", s.Name, c, owner[c], ti)
				}
				owner[c] = ti
			}
		}
		if len(tn.Phases) == 0 {
			return fmt.Errorf("scenario %s: tenant %s has no phases", s.Name, label)
		}
		for pi, ph := range tn.Phases {
			if ph.Accesses > 0 && ph.Tasks > 0 {
				return fmt.Errorf("scenario %s: tenant %s phase %d: Accesses and Tasks are mutually exclusive", s.Name, label, pi)
			}
			final := pi == len(tn.Phases)-1
			switch {
			case tn.Repeat && !ph.bounded():
				return fmt.Errorf("scenario %s: tenant %s phase %d: repeating timelines need a duration on every phase", s.Name, label, pi)
			case !tn.Repeat && !final && !ph.bounded():
				return fmt.Errorf("scenario %s: tenant %s phase %d: only the final phase of a non-repeating timeline may be open-ended", s.Name, label, pi)
			case !tn.Repeat && final && ph.bounded():
				return fmt.Errorf("scenario %s: tenant %s phase %d: the final phase of a non-repeating timeline is open-ended (drop its duration or set repeat)", s.Name, label, pi)
			}
			if _, err := ph.Params(); err != nil {
				return fmt.Errorf("scenario %s: tenant %s phase %d: %w", s.Name, label, pi, err)
			}
		}
	}
	if owner != nil {
		for c, t := range owner {
			if t < 0 {
				return fmt.Errorf("scenario %s: core %d has no tenant (ranges must cover all %d cores)", s.Name, c, cores)
			}
		}
	}
	return nil
}

// TimelineFor resolves the phase timeline driving one core.
func (s Spec) TimelineFor(core int) (Timeline, error) {
	for _, tn := range s.Tenants {
		if !tn.Cores.Contains(core) {
			continue
		}
		tl := Timeline{Repeat: tn.Repeat, Phases: make([]ResolvedPhase, len(tn.Phases))}
		for i, ph := range tn.Phases {
			p, err := ph.Params()
			if err != nil {
				return Timeline{}, err
			}
			tl.Phases[i] = ResolvedPhase{Params: p, Accesses: ph.Accesses, Tasks: ph.Tasks}
		}
		return tl, nil
	}
	return Timeline{}, fmt.Errorf("scenario %s: no tenant covers core %d", s.Name, core)
}

// Parse decodes a scenario spec from its canonical JSON file format,
// rejecting unknown fields so a typoed knob fails loudly instead of
// silently running the default.
func Parse(data []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("scenario: parse: %w", err)
	}
	if dec.More() {
		return Spec{}, fmt.Errorf("scenario: parse: trailing data after spec")
	}
	return s, nil
}

// Load reads and parses a scenario file.
func Load(path string) (Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, fmt.Errorf("scenario: %w", err)
	}
	s, err := Parse(data)
	if err != nil {
		return Spec{}, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}
