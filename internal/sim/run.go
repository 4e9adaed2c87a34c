package sim

import (
	"errors"
	"time"

	"bump/internal/cache"
	"bump/internal/dram"
	"bump/internal/energy"
	"bump/internal/memctrl"
	"bump/internal/noc"
	"bump/internal/stats"
)

// ErrCanceled is returned by RunWithHooks when the Cancel hook reports
// that the run should stop (job cancellation, timeout, shutdown).
var ErrCanceled = errors.New("sim: run canceled")

// Result holds the measurement-window deltas and derived metrics of one
// run.
type Result struct {
	Mechanism Mechanism
	Workload  string

	Cycles       uint64
	Instructions uint64
	// Events is the total number of discrete events the engine dispatched
	// over the whole run (warmup + measurement) — the simulator's own
	// unit of work, used for engine-throughput tracking.
	Events uint64

	DRAM     dram.Stats
	Ctrl     memctrl.Stats
	LLC      cache.Stats
	NOC      noc.Stats
	Profile  ProfileCounters // Figs. 3 and 5, Table I; zero unless Config.Profile
	Counters Counters

	// Load latency (cycles): demand-load round trips inside the window.
	LoadLatencyMean float64
	LoadLatencyP95  float64
	LoadLatencyN    int

	Energy energy.Breakdown
	// Energy-per-access components (Fig. 9/13): joules per DRAM access.
	EPATotal      float64
	EPAActivation float64
	EPABurstIO    float64
}

// IPC returns the aggregate committed instructions per cycle — the
// paper's system-throughput metric (Section V.A).
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// RowHitRatio returns the DRAM row-buffer hit ratio (Fig. 2, Table IV).
func (r Result) RowHitRatio() float64 { return r.DRAM.HitRatio() }

// usefulReads is the Fig. 8 denominator: DRAM reads that served the
// processor — demand fetches, late (merged) bulk fills, and timely
// predicted fills.
func (r Result) usefulReads() uint64 {
	return r.Counters.DemandReads + r.Counters.LateBulkReads + r.LLC.PrefetchUsed
}

// ReadCoverage returns the fraction of useful DRAM reads that were
// predicted — fetched by a bulk/prefetch fill *before* the processor
// asked (Fig. 8 left, "Predicted").
func (r Result) ReadCoverage() float64 {
	return stats.Ratio(r.LLC.PrefetchUsed, r.usefulReads())
}

// ReadOverfetch returns overfetched fills (never referenced before
// eviction) relative to useful reads — Fig. 8 left, "Overfetch".
func (r Result) ReadOverfetch() float64 {
	return stats.Ratio(r.LLC.PrefetchUnused, r.usefulReads())
}

// WriteCoverage returns the fraction of DRAM writes issued eagerly (bulk
// writeback) — Fig. 8 right, "Predicted".
func (r Result) WriteCoverage() float64 {
	total := r.Counters.DemandWrites + r.Counters.EagerWrites
	return stats.Ratio(r.Counters.EagerWrites, total)
}

// ExtraWritebacks returns premature writebacks relative to all writes —
// Fig. 8 right, "Extra writebacks".
func (r Result) ExtraWritebacks() float64 {
	total := r.Counters.DemandWrites + r.Counters.EagerWrites
	return stats.Ratio(r.Counters.PrematureWrites, total)
}

// LLCTraffic returns the LLC operation count (lookups + fills + probe
// scans), the Fig. 12 traffic metric.
func (r Result) LLCTraffic() uint64 {
	return r.LLC.Lookups + r.LLC.Fills + r.Counters.LLCProbes
}

// NOCTrafficBytes returns crossbar traffic in bytes: 8B control, 72B
// data (block + header), 8B extra per PC-carrying request (Fig. 12).
func (r Result) NOCTrafficBytes() uint64 {
	return 8*r.NOC.ControlMsgs + 72*r.NOC.DataMsgs + 8*r.NOC.PCMsgs
}

// MemoryAccesses returns total DRAM accesses in the window.
func (r Result) MemoryAccesses() uint64 { return r.DRAM.Accesses() }

func subCache(a, b cache.Stats) cache.Stats {
	return cache.Stats{
		Lookups:        a.Lookups - b.Lookups,
		Hits:           a.Hits - b.Hits,
		Misses:         a.Misses - b.Misses,
		Fills:          a.Fills - b.Fills,
		Evictions:      a.Evictions - b.Evictions,
		DirtyEvicts:    a.DirtyEvicts - b.DirtyEvicts,
		PrefetchUnused: a.PrefetchUnused - b.PrefetchUnused,
		PrefetchUsed:   a.PrefetchUsed - b.PrefetchUsed,
	}
}

func subDRAM(a, b dram.Stats) dram.Stats {
	return dram.Stats{
		Activations:  a.Activations - b.Activations,
		ReadBursts:   a.ReadBursts - b.ReadBursts,
		WriteBursts:  a.WriteBursts - b.WriteBursts,
		RowHits:      a.RowHits - b.RowHits,
		RowClosed:    a.RowClosed - b.RowClosed,
		RowConflicts: a.RowConflicts - b.RowConflicts,
		Refreshes:    a.Refreshes - b.Refreshes,
		BusyCycles:   a.BusyCycles - b.BusyCycles,
	}
}

func subCtrl(a, b memctrl.Stats) memctrl.Stats {
	return memctrl.Stats{
		Reads:           a.Reads - b.Reads,
		Writes:          a.Writes - b.Writes,
		ReadQueueDelay:  a.ReadQueueDelay - b.ReadQueueDelay,
		WriteQueueDelay: a.WriteQueueDelay - b.WriteQueueDelay,
		WriteDrains:     a.WriteDrains - b.WriteDrains,
		MaxQueue:        a.MaxQueue,
	}
}

func subNOC(a, b noc.Stats) noc.Stats {
	return noc.Stats{
		ControlMsgs: a.ControlMsgs - b.ControlMsgs,
		DataMsgs:    a.DataMsgs - b.DataMsgs,
		PCMsgs:      a.PCMsgs - b.PCMsgs,
	}
}

func subCounters(a, b Counters) Counters {
	return Counters{
		DemandReads:     a.DemandReads - b.DemandReads,
		LateBulkReads:   a.LateBulkReads - b.LateBulkReads,
		BulkReads:       a.BulkReads - b.BulkReads,
		PrefetchReads:   a.PrefetchReads - b.PrefetchReads,
		DemandWrites:    a.DemandWrites - b.DemandWrites,
		EagerWrites:     a.EagerWrites - b.EagerWrites,
		PrematureWrites: a.PrematureWrites - b.PrematureWrites,
		LLCProbes:       a.LLCProbes - b.LLCProbes,
		Instructions:    a.Instructions - b.Instructions,
		WindowStalls:    a.WindowStalls - b.WindowStalls,
		MSHRStalls:      a.MSHRStalls - b.MSHRStalls,
		ChainStalls:     a.ChainStalls - b.ChainStalls,
	}
}

type snap struct {
	cycles uint64
	dram   dram.Stats
	ctrl   memctrl.Stats
	llc    cache.Stats
	noc    noc.Stats
	prof   ProfileCounters
	cnt    Counters
}

func (s *System) statsSnapshot() snap {
	c := s.counters
	c.Instructions = 0
	for _, cr := range s.cores {
		c.Instructions += cr.instructions
	}
	sn := snap{
		cycles: s.eng.Now(),
		dram:   s.dram.Stats(),
		ctrl:   s.mc.Stats(),
		llc:    s.llc.Stats(),
		noc:    s.xbar.Stats(),
		cnt:    c,
	}
	if s.prof != nil {
		sn.prof = s.prof.ProfileCounters
	}
	return sn
}

// Progress is a periodic mid-run engine snapshot delivered to a
// Hooks.Progress observer (the service layer streams these to clients).
type Progress struct {
	// Cycle and TotalCycles locate the run: Cycle advances from 0 to
	// TotalCycles (= warmup + measurement window).
	Cycle       uint64
	TotalCycles uint64
	// Events is the cumulative count of engine events dispatched so far.
	Events uint64
	// Instructions is the cumulative committed instruction count across
	// all cores (warmup included).
	Instructions uint64
	// Measuring is true once the warmup window has completed.
	Measuring bool
}

// Hooks attaches observation and control to a run. The zero value runs
// each window in a single uninterrupted chunk, exactly like Run. No hook
// changes what is simulated: a hooked run is byte-identical to an
// unhooked one.
type Hooks struct {
	// Interval is the cycle stride between hook invocations; 0 picks
	// 1/64 of the run when an observer is attached.
	Interval uint64
	// Progress, if non-nil, is called after every interval with the
	// current engine snapshot. It runs on the simulation goroutine, so
	// it must not block.
	Progress func(Progress)
	// Cancel, if non-nil, is polled at every interval; returning true
	// aborts the run with ErrCanceled.
	Cancel func() bool
	// AtWarmupEnd, if non-nil, runs exactly once per system, at the
	// cycle the warmup window completes (immediately after the
	// measurement baseline is captured), so a caller can snapshot the
	// warmed state. Returning an error aborts the run. It is not
	// invoked on systems restored at or past the warmup boundary —
	// their baseline was captured before the checkpoint.
	AtWarmupEnd func() error
	// Phase, if non-nil, receives coarse wall-clock phase timings: the
	// engine calls it a handful of times per run (never inside the event
	// loop) with the phase name and its start/end instants. The
	// observability layer feeds these to the per-job span recorder and
	// the phase-latency histograms. Phase names emitted by the engine:
	// "warmup", "measure", "encode"; the warm store adds "warm.resolve",
	// "restore" and "trunk.extend". A nil hook costs nothing — the hot
	// path stays allocation-free (bench-guarded by
	// TestTracingDisabledAddsNoAllocs).
	Phase func(name string, start, end time.Time)
}

// stride returns the chunk size for hooked runs over `total` cycles.
func (h Hooks) stride(total uint64) uint64 {
	if h.Progress == nil && h.Cancel == nil {
		return total // unobserved: one chunk per window
	}
	if h.Interval > 0 {
		return h.Interval
	}
	if step := total / 64; step > 0 {
		return step
	}
	return 1
}

// runUntil advances the engine to `target` in hook-interval chunks,
// invoking the progress and cancellation hooks between chunks. Chunked
// execution dispatches the exact same event sequence as a single
// eng.Run(target) call, so hooked and unhooked runs stay bit-identical.
func (s *System) runUntil(target uint64, h Hooks, step, total uint64) error {
	for {
		now := s.eng.Now()
		if now >= target {
			return nil
		}
		next := now + step
		if next > target {
			next = target
		}
		s.eng.Run(next)
		if h.Progress != nil {
			var instr uint64
			for _, c := range s.cores {
				instr += c.instructions
			}
			h.Progress(Progress{
				Cycle:        s.eng.Now(),
				TotalCycles:  total,
				Events:       s.eng.Executed,
				Instructions: instr,
				Measuring:    s.eng.Now() >= s.cfg.WarmupCycles,
			})
		}
		if h.Cancel != nil && h.Cancel() {
			return ErrCanceled
		}
	}
}

// runTo advances the run to absolute cycle target. Crossing the warmup
// boundary captures the measurement baseline and calls h.AtWarmupEnd;
// reaching the bind cycle (Config.BindCycle) applies the configured
// measured parameters. A system restored from a checkpoint resumes
// wherever the checkpoint was taken (its initial core events, baseline
// and clock all travel with the snapshot) and re-applies the parameters
// once it is at or past its bind cycle, since the cap is configuration,
// not serialized state. Splitting the run at these cycles dispatches the
// exact event sequence of an unsplit run (see runUntil).
func (s *System) runTo(target uint64, h Hooks) error {
	if !s.primed {
		for _, c := range s.cores {
			c.arm(0)
		}
		s.primed = true
	}
	total := s.cfg.WarmupCycles + s.cfg.MeasureCycles
	step := h.stride(total)
	if warm := s.cfg.WarmupCycles; !s.baseTaken && target >= warm {
		if err := s.runUntil(warm, h, step, total); err != nil {
			return err
		}
		s.base = s.statsSnapshot()
		s.baseTaken = true
		if h.AtWarmupEnd != nil {
			if err := h.AtWarmupEnd(); err != nil {
				return err
			}
		}
	}
	if bind := s.cfg.BindCycle(); target >= bind {
		if err := s.runUntil(bind, h, step, total); err != nil {
			return err
		}
		// The cap honours the mechanism gating of controllerConfig:
		// close-row and forced-block-interleave controllers never see it.
		s.mc.SetMaxRowHitStreak(s.cfg.controllerConfig().MaxRowHitStreak)
	}
	return s.runUntil(target, h, step, total)
}

// Run executes the configured warmup and measurement windows and returns
// the measurement-window result.
func (s *System) Run() Result {
	res, _ := s.RunWithHooks(Hooks{}) // zero hooks cannot cancel
	return res
}

// RunWithHooks runs to the end of the measurement window with periodic
// progress callbacks and cancellation polling, and returns the
// measurement-window result. On cancellation it returns ErrCanceled and
// a zero Result. A system restored from a checkpoint resumes where the
// checkpoint was taken, so restore-then-run is byte-identical to the
// uninterrupted run.
func (s *System) RunWithHooks(h Hooks) (Result, error) {
	var phaseT0 time.Time
	if h.Phase != nil {
		phaseT0 = time.Now()
	}
	if err := s.runTo(s.cfg.WarmupCycles, h); err != nil {
		return Result{}, err
	}
	if h.Phase != nil {
		now := time.Now()
		h.Phase("warmup", phaseT0, now)
		phaseT0 = now
	}
	if err := s.runTo(s.cfg.WarmupCycles+s.cfg.MeasureCycles, h); err != nil {
		return Result{}, err
	}
	if h.Phase != nil {
		now := time.Now()
		h.Phase("measure", phaseT0, now)
		phaseT0 = now
	}
	if s.prof != nil {
		s.prof.Flush()
	}
	before := s.base
	after := s.statsSnapshot()

	res := Result{
		Mechanism:    s.cfg.Mechanism,
		Workload:     s.cfg.WorkloadLabel(),
		Events:       s.eng.Executed,
		Cycles:       after.cycles - before.cycles,
		Instructions: after.cnt.Instructions - before.cnt.Instructions,
		DRAM:         subDRAM(after.dram, before.dram),
		Ctrl:         subCtrl(after.ctrl, before.ctrl),
		LLC:          subCache(after.llc, before.llc),
		NOC:          subNOC(after.noc, before.noc),
		Profile:      after.prof.Sub(before.prof),
		Counters:     subCounters(after.cnt, before.cnt),
	}

	res.LoadLatencyMean = s.loadLatency.Mean()
	res.LoadLatencyP95 = s.loadLatency.Percentile(95)
	res.LoadLatencyN = s.loadLatency.N()

	model := energy.NewModel()
	in := energy.Inputs{
		Cycles:          res.Cycles,
		Cores:           s.cfg.Cores,
		Instructions:    res.Instructions,
		LLCReads:        res.LLC.Lookups + res.Counters.LLCProbes,
		LLCWrites:       res.LLC.Fills,
		NOCControl:      res.NOC.ControlMsgs,
		NOCData:         res.NOC.DataMsgs,
		NOCPC:           res.NOC.PCMsgs,
		DRAMActivations: res.DRAM.Activations,
		DRAMReads:       res.DRAM.ReadBursts,
		DRAMWrites:      res.DRAM.WriteBursts,
	}
	res.Energy = model.Compute(in)
	// Energy per access uses a *useful-access* denominator, so that
	// overfetched fills and premature writebacks raise the metric (the
	// paper's Fig. 9 penalises Full-region this way): useful = demand
	// reads + covered bulk/prefetch fills + writebacks that were not
	// premature duplicates.
	useful := res.Counters.DemandReads + res.Counters.LateBulkReads +
		res.LLC.PrefetchUsed +
		res.Counters.DemandWrites + res.Counters.EagerWrites
	if useful > res.Counters.PrematureWrites {
		useful -= res.Counters.PrematureWrites
	}
	if useful > 0 {
		n := float64(useful)
		res.EPATotal = res.Energy.MemoryDynamic() / n
		res.EPAActivation = res.Energy.DRAMActivation / n
		res.EPABurstIO = res.Energy.BurstIO() / n
	}
	if h.Phase != nil {
		h.Phase("encode", phaseT0, time.Now())
	}
	return res, nil
}

// RunOne is the convenience entry point: build and run one configuration.
func RunOne(cfg Config) (Result, error) {
	return RunOneWithHooks(cfg, Hooks{})
}

// RunOneWithHooks builds and runs one configuration with observation and
// cancellation hooks attached.
func RunOneWithHooks(cfg Config, h Hooks) (Result, error) {
	s, err := New(cfg)
	if err != nil {
		return Result{}, err
	}
	return s.RunWithHooks(h)
}
