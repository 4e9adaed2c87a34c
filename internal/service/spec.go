// Package service turns the batch simulator into a servable subsystem:
// canonical configuration hashing, an in-memory priority job queue with
// duplicate coalescing, a bounded worker pool executing sim runs, and an
// LRU result cache keyed by config hash. cmd/bumpd exposes the pool over
// HTTP/JSON (see api.go); cmd/sweep drives the same Pool API in-process.
package service

import (
	"fmt"

	"bump/internal/scenario"
	"bump/internal/sim"
	"bump/internal/workload"
)

// JobSpec is the wire-format description of one simulation job. It names
// a workload preset and mechanism plus the deltas from the paper's
// Table II defaults, so specs stay small and serialisable.
type JobSpec struct {
	// Workload is a preset name (e.g. "web-search"); Mechanism is a
	// mechanism name (e.g. "bump", "base-open").
	Workload  string `json:"workload,omitempty"`
	Mechanism string `json:"mechanism"`
	// Scenario names a built-in scenario (any other name is refused),
	// and ScenarioSpec carries a custom one inline; either replaces
	// Workload with a multi-phase, multi-tenant composition.
	// ScenarioSpec wins when both are set; the resolved spec is part of
	// the config hash, so two jobs coalesce/cache-hit iff their
	// scenarios agree field for field.
	Scenario     string        `json:"scenario,omitempty"`
	ScenarioSpec scenario.Spec `json:"scenario_spec,omitzero"`
	// Seed defaults to 1, matching sim.DefaultConfig.
	Seed int64 `json:"seed,omitempty"`
	// WarmupCycles/MeasureCycles override the default windows when
	// non-zero.
	WarmupCycles  uint64 `json:"warmup_cycles,omitempty"`
	MeasureCycles uint64 `json:"measure_cycles,omitempty"`

	// ForkAt moves the bind cycle of the measured parameters
	// (MaxRowHitStreak) to this absolute cycle; 0 binds them at the
	// warmup boundary. ForkCycles lists the mid-measurement cuts of the
	// checkpoint-tree chain. See sim.Config.ForkAt / sim.Config.ForkCycles.
	ForkAt     uint64   `json:"fork_at,omitempty"`
	ForkCycles []uint64 `json:"fork_cycles,omitempty"`

	// Predictor and controller overrides (zero keeps the default).
	RegionShift          uint `json:"region_shift,omitempty"`
	DensityThreshold     uint `json:"density_threshold,omitempty"`
	MaxRowHitStreak      int  `json:"max_row_hit_streak,omitempty"`
	DisablePrefetcher    bool `json:"disable_prefetcher,omitempty"`
	ForceBlockInterleave bool `json:"force_block_interleave,omitempty"`

	// Priority orders the queue (higher runs first; equal priority is
	// FIFO). TimeoutMS bounds the run's wall-clock time (0 uses the
	// pool default). Both affect scheduling only, never the result, so
	// they are excluded from the config hash.
	Priority  int   `json:"priority,omitempty"`
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// TraceID is the distributed-tracing correlation ID, minted at
	// submit (by whichever layer sees the job first) and propagated
	// through every hop — coordinator routing, wire frames, worker
	// pools — so one job's spans share one ID fleet-wide. Pure
	// observability: like Priority it never reaches sim.Config, so it is
	// excluded from the config hash and cannot affect coalescing,
	// caching or results.
	TraceID string `json:"trace_id,omitempty"`
}

// Config resolves the spec to a full simulator configuration.
func (s JobSpec) Config() (sim.Config, error) {
	mechName := s.Mechanism
	if mechName == "" {
		mechName = "bump"
	}
	m, ok := sim.MechanismByName(mechName)
	if !ok {
		return sim.Config{}, fmt.Errorf("service: unknown mechanism %q", s.Mechanism)
	}
	var cfg sim.Config
	switch {
	case s.ScenarioSpec.Enabled() || s.Scenario != "":
		if s.Workload != "" {
			return sim.Config{}, fmt.Errorf("service: workload and scenario are mutually exclusive")
		}
		sc := s.ScenarioSpec
		if !sc.Enabled() {
			cores := sim.DefaultConfig(m, workload.Params{}).Cores
			sc, ok = scenario.ByName(s.Scenario, cores)
			if !ok {
				return sim.Config{}, fmt.Errorf("service: unknown scenario %q", s.Scenario)
			}
		}
		cfg = sim.DefaultScenarioConfig(m, sc)
	default:
		w, ok := workload.ByName(s.Workload)
		if !ok {
			return sim.Config{}, fmt.Errorf("service: unknown workload %q", s.Workload)
		}
		cfg = sim.DefaultConfig(m, w)
	}
	if s.Seed != 0 {
		cfg.Seed = s.Seed
	}
	if s.WarmupCycles != 0 {
		cfg.WarmupCycles = s.WarmupCycles
	}
	if s.MeasureCycles != 0 {
		cfg.MeasureCycles = s.MeasureCycles
	}
	if s.RegionShift != 0 {
		cfg.BuMP.RegionShift = s.RegionShift
	}
	if s.DensityThreshold != 0 {
		cfg.BuMP.DensityThreshold = s.DensityThreshold
	}
	cfg.MaxRowHitStreak = s.MaxRowHitStreak
	cfg.ForkAt = s.ForkAt
	cfg.ForkCycles = s.ForkCycles
	cfg.DisablePrefetcher = s.DisablePrefetcher
	cfg.ForceBlockInterleave = s.ForceBlockInterleave
	if err := cfg.Validate(); err != nil {
		return sim.Config{}, err
	}
	return cfg, nil
}
