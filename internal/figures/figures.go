// Package figures regenerates every table and figure of the paper's
// evaluation (Figs. 1-3, 5, 8-13 and Tables I, IV) from simulator runs.
// Fig. 4 is an illustration (the inverted-index data structure), Figs. 6-7
// are design diagrams, and Tables II-III are the configuration constants
// encoded in sim.DefaultConfig and energy.DefaultParams.
//
// A Runner caches simulation results so figures that share configurations
// (e.g. Figs. 9, 10 and 13) reuse runs; independent runs execute in
// parallel across CPUs.
package figures

import (
	"fmt"
	"runtime"
	"sync"

	"bump/internal/energy"
	"bump/internal/sim"
	"bump/internal/stats"
	"bump/internal/workload"
)

// Options parameterise a figure regeneration pass.
type Options struct {
	// Seed is the base deterministic seed.
	Seed int64
	// WarmupCycles/MeasureCycles override the simulation windows
	// (0 keeps sim.DefaultConfig's values).
	WarmupCycles  uint64
	MeasureCycles uint64
	// Workloads defaults to the paper's six.
	Workloads []workload.Params
}

func (o Options) workloads() []workload.Params {
	if len(o.Workloads) > 0 {
		return o.Workloads
	}
	return workload.All()
}

// Runner executes and caches simulation runs.
type Runner struct {
	opts Options

	mu    sync.Mutex
	cache map[runKey]sim.Result
}

type runKey struct {
	mech      sim.Mechanism
	workload  string
	regShift  uint
	threshold uint
	raw       bool // characterisation run: no prefetcher, profiler attached
}

// NewRunner builds a Runner.
func NewRunner(opts Options) *Runner {
	return &Runner{opts: opts, cache: make(map[runKey]sim.Result)}
}

func (r *Runner) config(m sim.Mechanism, w workload.Params) sim.Config {
	cfg := sim.DefaultConfig(m, w)
	cfg.Seed = r.opts.Seed + 1
	if r.opts.WarmupCycles > 0 {
		cfg.WarmupCycles = r.opts.WarmupCycles
	}
	if r.opts.MeasureCycles > 0 {
		cfg.MeasureCycles = r.opts.MeasureCycles
	}
	return cfg
}

// Run returns the (cached) result for mechanism m on workload w. The run
// is unprofiled, so its Profile is zero; read profiles from RunProfile.
func (r *Runner) Run(m sim.Mechanism, w workload.Params) sim.Result {
	return r.runCfg(r.config(m, w))
}

// profileConfig is the characterisation run for workload w: the
// open-row baseline with prefetching disabled, so the demand-traffic
// density profile (Figs. 3/5, Table I, Ideal) is not distorted by
// prefetch absorption, and with the region-density profiler attached.
// These are the only runs of a Runner that profile.
func (r *Runner) profileConfig(w workload.Params) sim.Config {
	cfg := r.config(sim.BaseOpen, w)
	cfg.DisablePrefetcher = true
	cfg.Profile = true
	return cfg
}

// RunProfile returns the characterisation run for workload w (see
// profileConfig); its Result.Profile holds the region-density profile.
func (r *Runner) RunProfile(w workload.Params) sim.Result {
	return r.runCfg(r.profileConfig(w))
}

// PrefillProfiles warms the characterisation-run cache in parallel.
func (r *Runner) PrefillProfiles() {
	var cfgs []sim.Config
	for _, w := range r.opts.workloads() {
		cfgs = append(cfgs, r.profileConfig(w))
	}
	r.prefill(cfgs)
}

// RunVariant returns the result for a BuMP variant with a custom region
// shift and density threshold (Fig. 11).
func (r *Runner) RunVariant(w workload.Params, regionShift, threshold uint) sim.Result {
	cfg := r.config(sim.BuMP, w)
	cfg.BuMP.RegionShift = regionShift
	cfg.BuMP.DensityThreshold = threshold
	return r.runCfg(cfg)
}

func keyOf(cfg sim.Config) runKey {
	return runKey{
		mech:      cfg.Mechanism,
		workload:  cfg.Workload.Name,
		regShift:  cfg.BuMP.RegionShift,
		threshold: cfg.BuMP.DensityThreshold,
		raw:       cfg.DisablePrefetcher,
	}
}

func (r *Runner) runCfg(cfg sim.Config) sim.Result {
	k := keyOf(cfg)
	r.mu.Lock()
	if res, ok := r.cache[k]; ok {
		r.mu.Unlock()
		return res
	}
	r.mu.Unlock()
	res, err := sim.RunOne(cfg)
	if err != nil {
		panic(fmt.Sprintf("figures: run %v/%s failed: %v", cfg.Mechanism, cfg.Workload.Name, err))
	}
	r.mu.Lock()
	r.cache[k] = res
	r.mu.Unlock()
	return res
}

// prefill executes the given configurations in parallel, warming the
// cache. A counting semaphore caps in-flight simulations at the CPU
// count (GOMAXPROCS respects user/cgroup limits), so large sweeps
// (Fig. 11's 72-configuration grid, multi-seed runs) never oversubscribe
// the machine.
func (r *Runner) prefill(cfgs []sim.Config) {
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for _, cfg := range cfgs {
		r.mu.Lock()
		_, cached := r.cache[keyOf(cfg)]
		r.mu.Unlock()
		if cached {
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(cfg sim.Config) {
			defer func() { <-sem; wg.Done() }()
			r.runCfg(cfg)
		}(cfg)
	}
	wg.Wait()
}

// PrefillMechanisms warms the cache for the given mechanisms over all
// workloads, in parallel.
func (r *Runner) PrefillMechanisms(ms ...sim.Mechanism) {
	var cfgs []sim.Config
	for _, w := range r.opts.workloads() {
		for _, m := range ms {
			cfgs = append(cfgs, r.config(m, w))
		}
	}
	r.prefill(cfgs)
}

func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

// Fig1 regenerates Figure 1: server energy breakdown on the baseline
// system, per workload, with the memory component split into activation,
// burst&IO and background.
func (r *Runner) Fig1() *stats.Table {
	r.PrefillMechanisms(sim.BaseOpen)
	t := stats.NewTable(
		"Figure 1. Energy consumption of a many-core server (Base-open)",
		"workload", "cores", "LLC", "NOC", "mem-ctrl", "memory",
		"mem-ACT", "mem-BR&IO", "mem-BKG")
	for _, w := range r.opts.workloads() {
		b := r.Run(sim.BaseOpen, w).Energy
		tot := b.Total()
		t.AddRow(w.Name,
			pct(b.Cores()/tot), pct(b.LLC()/tot), pct(b.NOC()/tot),
			pct(b.MCDynamic/tot), pct(b.Memory()/tot),
			pct(b.DRAMActivation/tot), pct(b.BurstIO()/tot),
			pct(b.DRAMBackground/tot))
	}
	return t
}

// Fig2 regenerates Figure 2: DRAM row-buffer hit ratio of Base (open),
// SMS, VWQ and the Ideal system.
func (r *Runner) Fig2() *stats.Table {
	r.PrefillMechanisms(sim.BaseOpen, sim.SMSOnly, sim.VWQOnly)
	r.PrefillProfiles()
	t := stats.NewTable(
		"Figure 2. DRAM row buffer hit ratio of various systems",
		"workload", "Base", "SMS", "VWQ", "Ideal")
	for _, w := range r.opts.workloads() {
		base := r.Run(sim.BaseOpen, w)
		t.AddRow(w.Name,
			pct(base.RowHitRatio()),
			pct(r.Run(sim.SMSOnly, w).RowHitRatio()),
			pct(r.Run(sim.VWQOnly, w).RowHitRatio()),
			pct(r.RunProfile(w).Profile.IdealHitRatio()))
	}
	return t
}

// Fig3 regenerates Figure 3: DRAM accesses broken into load-triggered
// reads, store-triggered reads and writes.
func (r *Runner) Fig3() *stats.Table {
	r.PrefillProfiles()
	t := stats.NewTable(
		"Figure 3. DRAM accesses broken down into reads and writes",
		"workload", "loads", "store-reads", "writes")
	for _, w := range r.opts.workloads() {
		p := r.RunProfile(w).Profile
		tot := p.Accesses()
		t.AddRow(w.Name,
			pct(stats.Ratio(p.LoadReads, tot)),
			pct(stats.Ratio(p.StoreReads, tot)),
			pct(stats.Ratio(p.Writes, tot)))
	}
	return t
}

// Fig5 regenerates Figure 5: region access density for 1KB regions,
// reads (R) and writes (W) split into low/medium/high density classes.
func (r *Runner) Fig5() *stats.Table {
	r.PrefillProfiles()
	t := stats.NewTable(
		"Figure 5. Region access density (1KB regions)",
		"workload", "R-low", "R-med", "R-high", "W-low", "W-med", "W-high")
	for _, w := range r.opts.workloads() {
		p := r.RunProfile(w).Profile
		rTot := p.ReadsByClass[0] + p.ReadsByClass[1] + p.ReadsByClass[2]
		wTot := p.WritesByClass[0] + p.WritesByClass[1] + p.WritesByClass[2]
		t.AddRow(w.Name,
			pct(stats.Ratio(p.ReadsByClass[sim.LowDensity], rTot)),
			pct(stats.Ratio(p.ReadsByClass[sim.MediumDensity], rTot)),
			pct(stats.Ratio(p.ReadsByClass[sim.HighDensity], rTot)),
			pct(stats.Ratio(p.WritesByClass[sim.LowDensity], wTot)),
			pct(stats.Ratio(p.WritesByClass[sim.MediumDensity], wTot)),
			pct(stats.Ratio(p.WritesByClass[sim.HighDensity], wTot)))
	}
	return t
}

// Table1 regenerates Table I: fraction of a high-density region's blocks
// modified after its first dirty LLC eviction.
func (r *Runner) Table1() *stats.Table {
	r.PrefillProfiles()
	t := stats.NewTable(
		"Table I. Blocks modified after the region's first dirty eviction",
		"workload", "late-modified")
	for _, w := range r.opts.workloads() {
		t.AddRow(w.Name, pct(r.RunProfile(w).Profile.LateWriteFraction()))
	}
	return t
}

// Fig8 regenerates Figure 8: BuMP's prediction accuracy for DRAM reads
// (coverage + overfetch) and DRAM writes (coverage + extra writebacks),
// against the Full-region strawman.
func (r *Runner) Fig8() *stats.Table {
	r.PrefillMechanisms(sim.FullRegion, sim.BuMP)
	t := stats.NewTable(
		"Figure 8. Prediction accuracy for DRAM reads and writes",
		"workload", "system", "rd-predicted", "rd-overfetch", "wr-predicted", "wr-extra")
	for _, w := range r.opts.workloads() {
		for _, m := range []sim.Mechanism{sim.FullRegion, sim.BuMP} {
			res := r.Run(m, w)
			t.AddRow(w.Name, m.String(),
				pct(res.ReadCoverage()), pct(res.ReadOverfetch()),
				pct(res.WriteCoverage()), pct(res.ExtraWritebacks()))
		}
	}
	return t
}

// Fig9 regenerates Figure 9: memory energy per access of Base-close,
// Base-open, Full-region and BuMP, normalised to Base-close, split into
// activation and burst/IO.
func (r *Runner) Fig9() *stats.Table {
	r.PrefillMechanisms(sim.BaseClose, sim.BaseOpen, sim.FullRegion, sim.BuMP)
	t := stats.NewTable(
		"Figure 9. Memory energy per access (normalised to Base-close)",
		"workload", "system", "total", "activation", "burst/IO")
	for _, w := range r.opts.workloads() {
		ref := r.Run(sim.BaseClose, w).EPATotal
		for _, m := range []sim.Mechanism{sim.BaseClose, sim.BaseOpen, sim.FullRegion, sim.BuMP} {
			res := r.Run(m, w)
			t.AddRow(w.Name, m.String(),
				pct(res.EPATotal/ref), pct(res.EPAActivation/ref), pct(res.EPABurstIO/ref))
		}
	}
	return t
}

// Fig10 regenerates Figure 10: system performance improvement over
// Base-close for Base-open, Full-region and BuMP.
func (r *Runner) Fig10() *stats.Table {
	r.PrefillMechanisms(sim.BaseClose, sim.BaseOpen, sim.FullRegion, sim.BuMP)
	t := stats.NewTable(
		"Figure 10. Performance improvement over Base-close",
		"workload", "Base-open", "Full-region", "BuMP")
	for _, w := range r.opts.workloads() {
		ref := r.Run(sim.BaseClose, w).IPC()
		row := []interface{}{w.Name}
		for _, m := range []sim.Mechanism{sim.BaseOpen, sim.FullRegion, sim.BuMP} {
			row = append(row, fmt.Sprintf("%+.1f%%", 100*stats.Speedup(ref, r.Run(m, w).IPC())))
		}
		t.AddRow(row...)
	}
	return t
}

// Fig11 regenerates Figure 11: memory energy-per-access improvement over
// Base-open for BuMP variants across region sizes (512B, 1KB, 2KB) and
// density thresholds (25, 50, 75, 100% of the region's blocks), averaged
// over the workloads.
func (r *Runner) Fig11() *stats.Table {
	r.PrefillMechanisms(sim.BaseOpen)
	var cfgs []sim.Config
	for _, shift := range []uint{9, 10, 11} {
		for _, p := range []uint{25, 50, 75, 100} {
			for _, w := range r.opts.workloads() {
				cfg := r.config(sim.BuMP, w)
				cfg.BuMP.RegionShift = shift
				cfg.BuMP.DensityThreshold = threshold(shift, p)
				cfgs = append(cfgs, cfg)
			}
		}
	}
	r.prefill(cfgs)

	t := stats.NewTable(
		"Figure 11. Energy-per-access improvement vs region size and threshold",
		"region", "thr-25%", "thr-50%", "thr-75%", "thr-100%")
	for _, shift := range []uint{9, 10, 11} {
		row := []interface{}{fmt.Sprintf("%dB", 1<<shift)}
		for _, p := range []uint{25, 50, 75, 100} {
			var imps []float64
			for _, w := range r.opts.workloads() {
				base := r.Run(sim.BaseOpen, w).EPATotal
				v := r.RunVariant(w, shift, threshold(shift, p)).EPATotal
				imps = append(imps, stats.Improvement(base, v))
			}
			row = append(row, pct(stats.Mean(imps)))
		}
		t.AddRow(row...)
	}
	return t
}

// threshold converts a percentage to a block-count threshold for a region
// shift.
func threshold(shift, pct uint) uint {
	blocks := uint(1) << (shift - 6)
	thr := blocks * pct / 100
	if thr == 0 {
		thr = 1
	}
	return thr
}

// Fig12 regenerates Figure 12: BuMP's LLC and NOC traffic and energy,
// normalised to the baseline.
func (r *Runner) Fig12() *stats.Table {
	r.PrefillMechanisms(sim.BaseOpen, sim.BuMP)
	t := stats.NewTable(
		"Figure 12. BuMP's LLC and NOC overheads (normalised to Base-open)",
		"workload", "LLC-traffic", "LLC-energy", "NOC-traffic", "NOC-energy")
	for _, w := range r.opts.workloads() {
		base := r.Run(sim.BaseOpen, w)
		bmp := r.Run(sim.BuMP, w)
		// Normalise per committed instruction: BuMP changes run speed,
		// so raw counts are not comparable across runs.
		norm := func(b, v uint64, bi, vi uint64) float64 {
			if b == 0 || vi == 0 || bi == 0 {
				return 0
			}
			return (float64(v) / float64(vi)) / (float64(b) / float64(bi))
		}
		t.AddRow(w.Name,
			fmt.Sprintf("%.2fx", norm(base.LLCTraffic(), bmp.LLCTraffic(), base.Instructions, bmp.Instructions)),
			fmt.Sprintf("%.2fx", norm(uint64(base.Energy.LLCDynamic*1e15), uint64(bmp.Energy.LLCDynamic*1e15), base.Instructions, bmp.Instructions)),
			fmt.Sprintf("%.2fx", norm(base.NOCTrafficBytes(), bmp.NOCTrafficBytes(), base.Instructions, bmp.Instructions)),
			fmt.Sprintf("%.2fx", norm(uint64(base.Energy.NOCDynamic*1e15), uint64(bmp.Energy.NOCDynamic*1e15), base.Instructions, bmp.Instructions)))
	}
	return t
}

// Fig13 regenerates Figure 13: row-buffer hit ratio and memory energy per
// access (normalised to Base-close) averaged across workloads, for all
// seven systems.
func (r *Runner) Fig13() *stats.Table {
	ms := sim.Mechanisms()
	r.PrefillMechanisms(ms...)
	t := stats.NewTable(
		"Figure 13. Comparison between BuMP and other systems (mean over workloads)",
		"system", "row-hit", "energy/access", "activation", "burst/IO")
	var refEPA []float64
	for _, w := range r.opts.workloads() {
		refEPA = append(refEPA, r.Run(sim.BaseClose, w).EPATotal)
	}
	for _, m := range ms {
		var hits, epas, acts, bios []float64
		for i, w := range r.opts.workloads() {
			res := r.Run(m, w)
			hits = append(hits, res.RowHitRatio())
			epas = append(epas, res.EPATotal/refEPA[i])
			acts = append(acts, res.EPAActivation/refEPA[i])
			bios = append(bios, res.EPABurstIO/refEPA[i])
		}
		t.AddRow(m.String(), pct(stats.Mean(hits)), pct(stats.Mean(epas)),
			pct(stats.Mean(acts)), pct(stats.Mean(bios)))
	}
	// The Ideal bar: all locality within region residencies exploited.
	r.PrefillProfiles()
	activationJ := energy.DefaultParams().DRAMActivationJ
	var hits, epas []float64
	for i, w := range r.opts.workloads() {
		raw := r.RunProfile(w)
		hits = append(hits, raw.Profile.IdealHitRatio())
		// Ideal energy: one activation per generation, every access a
		// single burst.
		accesses := float64(raw.Profile.Accesses())
		if accesses == 0 {
			continue
		}
		actJ := float64(raw.Profile.IdealActivations()) * activationJ / accesses
		bioJ := raw.EPABurstIO
		epas = append(epas, (actJ+bioJ)/refEPA[i])
	}
	t.AddRow("ideal", pct(stats.Mean(hits)), pct(stats.Mean(epas)), "-", "-")
	return t
}

// Table4 regenerates Table IV: BuMP's row-buffer hit ratio per workload.
func (r *Runner) Table4() *stats.Table {
	r.PrefillMechanisms(sim.BuMP)
	t := stats.NewTable(
		"Table IV. BuMP's DRAM row buffer hit ratio",
		"workload", "row-hit")
	for _, w := range r.opts.workloads() {
		t.AddRow(w.Name, pct(r.Run(sim.BuMP, w).RowHitRatio()))
	}
	return t
}

// All regenerates every figure/table in paper order.
func (r *Runner) All() []*stats.Table {
	return []*stats.Table{
		r.Fig1(), r.Fig2(), r.Fig3(), r.Fig5(), r.Table1(),
		r.Fig8(), r.Fig9(), r.Fig10(), r.Fig11(), r.Fig12(),
		r.Fig13(), r.Table4(),
	}
}
