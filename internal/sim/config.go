package sim

import (
	"fmt"

	"bump/internal/cache"
	"bump/internal/core"
	"bump/internal/dram"
	"bump/internal/mem"
	"bump/internal/memctrl"
	"bump/internal/scenario"
	"bump/internal/workload"
)

// Mechanism selects the memory-system configuration under evaluation
// (the bars of Figs. 2, 9, 10, 13).
type Mechanism uint8

// The evaluated systems.
const (
	// BaseClose: stride prefetcher, FR-FCFS close-row, block-interleaved
	// addressing (maximum bank-level parallelism).
	BaseClose Mechanism = iota
	// BaseOpen: stride prefetcher, FR-FCFS open-row, region-interleaved
	// addressing (same memory controller as BuMP).
	BaseOpen
	// SMSOnly: Spatial Memory Streaming next to the LLC, open-row.
	SMSOnly
	// VWQOnly: stride prefetcher plus eager writeback of adjacent dirty
	// blocks, open-row.
	VWQOnly
	// SMSVWQ combines SMSOnly and VWQOnly.
	SMSVWQ
	// FullRegion bulk-transfers every region on any miss/dirty eviction
	// (no prediction).
	FullRegion
	// BuMP is the paper's mechanism.
	BuMP
	// BuMPVWQ combines BuMP with VWQ-style eager writeback for dirty
	// evictions outside high-density regions — the extension the paper
	// proposes in Section V.G's footnote.
	BuMPVWQ
)

func (m Mechanism) String() string {
	switch m {
	case BaseClose:
		return "base-close"
	case BaseOpen:
		return "base-open"
	case SMSOnly:
		return "sms"
	case VWQOnly:
		return "vwq"
	case SMSVWQ:
		return "sms+vwq"
	case FullRegion:
		return "full-region"
	case BuMP:
		return "bump"
	case BuMPVWQ:
		return "bump+vwq"
	default:
		return fmt.Sprintf("Mechanism(%d)", uint8(m))
	}
}

// Mechanisms lists all evaluated systems in figure order.
func Mechanisms() []Mechanism {
	return []Mechanism{BaseClose, BaseOpen, SMSOnly, VWQOnly, SMSVWQ, FullRegion, BuMP}
}

// MechanismByName resolves a mechanism from its String form (including
// the bump+vwq extension, which Mechanisms omits from figure order).
func MechanismByName(name string) (Mechanism, bool) {
	for m := BaseClose; m <= BuMPVWQ; m++ {
		if m.String() == name {
			return m, true
		}
	}
	return 0, false
}

// Config is the full-system configuration (Table II defaults).
type Config struct {
	Cores int

	// Core model.
	WindowSize      int // 48-entry ROB
	RetireWidth     int // 3-way
	L1MSHRs         int // 10
	L1Bytes         int // 32KB
	L1Ways          int // 2 (at most cache.MaxWays, 16)
	L1LatencyCycles uint64

	// LLC.
	LLCBytes         int // 4MB
	LLCWays          int // 16 (at most cache.MaxWays)
	LLCLatencyCycles uint64

	// NOC.
	NOCLatencyCycles uint64

	Mechanism Mechanism
	// DisablePrefetcher removes the mechanism's prefetcher. The
	// characterisation experiments (Figs. 3 and 5, Table I, the Ideal
	// system) set it together with Profile, so prefetch absorption does
	// not distort the demand-traffic density profile.
	DisablePrefetcher bool
	// Profile attaches the region-density profiler, which fills
	// Result.Profile. It is a pure observer: every other Result field is
	// byte-identical with it on or off. It updates a generation table on
	// every demand access, dirtying, eviction and DRAM operation, so only
	// runs that read the profile set it. It is part of the run's identity
	// (config hash, warm key), because a profiled checkpoint carries the
	// profiler's open generations.
	Profile bool
	// ForceBlockInterleave runs an open-row mechanism on the
	// block-interleaved address mapping (ablation: without
	// region-interleaving, a bulk transfer spans many banks/rows and no
	// longer amortises a single activation).
	ForceBlockInterleave bool
	// MaxRowHitStreak caps consecutive row-hit-first scheduler picks
	// (fairness-aware FR-FCFS, Section VI). 0 disables the cap. It is a
	// measured parameter: the cap takes effect at BindCycle.
	MaxRowHitStreak int
	BuMP            core.Config
	DRAM            dram.Config

	Workload workload.Params
	// Scenario, when non-empty, drives the per-core streams with a
	// multi-phase, multi-tenant composition of presets instead of the
	// single stationary Workload (which must then be left zero). Like
	// the workload it is pure data, so the service config hash, the
	// snapshot structural digest and the warm-checkpoint key all cover
	// it: scenario runs cache, checkpoint and warm-share exactly like
	// stationary ones.
	Scenario scenario.Spec
	Seed     int64

	// Measurement windows in CPU cycles.
	WarmupCycles  uint64
	MeasureCycles uint64

	// ForkAt sets the bind cycle (see BindCycle) past the warmup
	// boundary: the run simulates the canonical zero-valued measured
	// parameters up to absolute cycle ForkAt and binds the configured
	// values there, so every sibling of a checkpoint-tree sweep shares
	// one trunk trajectory through ForkAt and diverges only in the tail.
	// 0 means at the warmup boundary; otherwise it must lie in
	// [WarmupCycles, WarmupCycles+MeasureCycles).
	ForkAt uint64
	// ForkCycles lists mid-measurement cut cycles (strictly increasing,
	// each in (WarmupCycles, WarmupCycles+MeasureCycles)): the chain of
	// checkpoint-tree nodes on the canonical trunk. A WarmStore builds
	// the node at a run's bind cycle by extending the trunk from the
	// deepest listed cut below it, so forks at several depths share the
	// shallower nodes. The cuts never alter simulated behaviour.
	ForkCycles []uint64
}

// BindCycle returns the absolute cycle at which the measured parameters
// take effect: max(WarmupCycles, ForkAt). Every run, cold or restored
// from a checkpoint, simulates the canonical zero-valued measured
// parameters up to it, so a run restored from a trunk node at or before
// its bind cycle is byte-identical to its own cold run. Of the measured
// parameters only MaxRowHitStreak changes simulated behaviour.
func (c Config) BindCycle() uint64 { return max(c.WarmupCycles, c.ForkAt) }

// DefaultConfig returns the paper's system (Table II) for the given
// mechanism and workload, with simulation windows sized for statistical
// stability at tractable runtime.
func DefaultConfig(m Mechanism, w workload.Params) Config {
	return Config{
		Cores:            16,
		WindowSize:       48,
		RetireWidth:      3,
		L1MSHRs:          10,
		L1Bytes:          32 << 10,
		L1Ways:           2,
		L1LatencyCycles:  2,
		LLCBytes:         4 << 20,
		LLCWays:          16,
		LLCLatencyCycles: 8,
		NOCLatencyCycles: 5,
		Mechanism:        m,
		BuMP:             core.DefaultConfig(),
		DRAM:             dram.DefaultConfig(),
		Workload:         w,
		Seed:             1,
		WarmupCycles:     1_000_000,
		MeasureCycles:    2_400_000,
	}
}

// DefaultScenarioConfig returns the paper's system (Table II) driven by
// a scenario instead of a stationary workload.
func DefaultScenarioConfig(m Mechanism, sc scenario.Spec) Config {
	cfg := DefaultConfig(m, workload.Params{})
	cfg.Scenario = sc
	return cfg
}

// WorkloadLabel names what drives the streams: the stationary workload's
// preset name, or "scenario:<name>" for scenario runs.
func (c Config) WorkloadLabel() string {
	if c.Scenario.Enabled() {
		return "scenario:" + c.Scenario.Name
	}
	return c.Workload.Name
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Cores <= 0 {
		return fmt.Errorf("sim: cores must be positive")
	}
	if c.WindowSize <= 0 || c.RetireWidth <= 0 || c.L1MSHRs <= 0 {
		return fmt.Errorf("sim: core model parameters must be positive")
	}
	if c.L1Ways > cache.MaxWays || c.LLCWays > cache.MaxWays {
		return fmt.Errorf("sim: L1 and LLC ways must be at most %d (L1 %d, LLC %d)", cache.MaxWays, c.L1Ways, c.LLCWays)
	}
	if c.MeasureCycles == 0 {
		return fmt.Errorf("sim: measure window must be positive")
	}
	if c.Mechanism > BuMPVWQ {
		return fmt.Errorf("sim: unknown mechanism %d", c.Mechanism)
	}
	if c.MaxRowHitStreak < 0 {
		return fmt.Errorf("sim: max row-hit streak %d is negative (0 disables the cap)", c.MaxRowHitStreak)
	}
	if err := c.BuMP.Validate(); err != nil {
		return err
	}
	if err := c.DRAM.Validate(); err != nil {
		return err
	}
	total := c.WarmupCycles + c.MeasureCycles
	if c.ForkAt != 0 && (c.ForkAt < c.WarmupCycles || c.ForkAt >= total) {
		return fmt.Errorf("sim: ForkAt %d outside [WarmupCycles, WarmupCycles+MeasureCycles) = [%d, %d)",
			c.ForkAt, c.WarmupCycles, total)
	}
	for i, cut := range c.ForkCycles {
		if cut <= c.WarmupCycles || cut >= total {
			return fmt.Errorf("sim: fork cycle %d outside (WarmupCycles, WarmupCycles+MeasureCycles) = (%d, %d)",
				cut, c.WarmupCycles, total)
		}
		if i > 0 && cut <= c.ForkCycles[i-1] {
			return fmt.Errorf("sim: fork cycles must be strictly increasing")
		}
	}
	if c.Scenario.Enabled() {
		if c.Workload != (workload.Params{}) {
			return fmt.Errorf("sim: scenario runs must leave Workload zero (the scenario names its workloads)")
		}
		if err := c.Scenario.Validate(c.Cores); err != nil {
			return err
		}
	} else if err := c.Workload.Validate(); err != nil {
		return err
	}
	return nil
}

// controllerConfig derives the memory-controller configuration from the
// mechanism (Section V.A): Base-close uses close-row + block interleave;
// everything else uses BuMP's open-row + region interleave.
func (c Config) controllerConfig() memctrl.Config {
	if c.Mechanism == BaseClose {
		return memctrl.DefaultConfig(memctrl.CloseRow, memctrl.BlockInterleave)
	}
	if c.ForceBlockInterleave {
		return memctrl.DefaultConfig(memctrl.OpenRow, memctrl.BlockInterleave)
	}
	mc := memctrl.DefaultConfig(memctrl.OpenRow, memctrl.RegionInterleave)
	mc.RegionShift = c.BuMP.RegionShift
	if mc.RegionShift == 0 {
		mc.RegionShift = mem.DefaultRegionShift
	}
	mc.MaxRowHitStreak = c.MaxRowHitStreak
	return mc
}
