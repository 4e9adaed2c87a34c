package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sync"
	"syscall"
	"time"

	"bump/internal/figures"
	"bump/internal/obs"
	"bump/internal/scenario"
	"bump/internal/service"
	"bump/internal/sim"
	"bump/internal/stats"
	"bump/internal/workload"
)

// scale sets the simulation windows, in cycles. fullScale is the
// benchmark; the smoke test runs tinyScale.
type scale struct {
	figWarmup, figMeasure uint64 // figures
	warmup, measure       uint64 // sweeps, scenarios and the snapshot.* probe
	forkAt                uint64 // sweeps: ForkAt and the one ForkCycles cut
}

var fullScale = scale{
	figWarmup: 700_000, figMeasure: 1_500_000,
	warmup: 1_000_000, measure: 2_400_000, forkAt: 2_200_000,
}

var tinyScale = scale{
	figWarmup: 10_000, figMeasure: 25_000,
	warmup: 10_000, measure: 25_000, forkAt: 30_000,
}

// env is what every workload function receives: the seed its inputs
// derive from, the windows, and the directory it may write to.
type env struct {
	seed    int64
	scale   scale
	workdir string
}

// pass is one timed execution of a workload.
type pass struct {
	wall, cpu time.Duration
	// points holds, for every point (sweep point, scenario run, figures
	// table), the time from pass start until it was done.
	points []time.Duration
	// results are the pass's distinct simulation results in a fixed
	// order; failures describes each point that produced none.
	results  []sim.Result
	failures []string
	// cycles is the number of cycles the pass simulated.
	cycles uint64
	// counts holds per-layer counters observed on this pass; calls the
	// timed-call samples a traced pass recorded.
	counts map[string]float64
	calls  map[string][]time.Duration
	// claims holds the paper-claim values (figures only).
	claims map[string]float64
	// A traced pass's CPU profile, heap allocations and GC cycles over
	// its timed section.
	profile []byte
	mallocs uint64
	gcs     uint32
	gcPause time.Duration
}

func (p *pass) record(name string, d time.Duration) {
	if p.calls == nil {
		p.calls = make(map[string][]time.Duration)
	}
	p.calls[name] = append(p.calls[name], d)
}

// instructions totals the measured-window instructions of the results.
func (p *pass) instructions() uint64 {
	var n uint64
	for _, r := range p.results {
		n += r.Instructions
	}
	return n
}

// digest is a SHA-256 over the results' JSON, in order.
func (p *pass) digest() string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, r := range p.results {
		if err := enc.Encode(r); err != nil {
			panic(err) // sim.Result is plain data
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// stopwatch delimits the timed section of a pass and measures its wall
// and process CPU time (user+sys). On a traced pass it also takes the
// section's CPU profile and allocation and GC counts.
type stopwatch struct {
	t0   time.Time
	cpu0 time.Duration
	prof *bytes.Buffer // nil unless traced
	mem0 runtime.MemStats
}

// profileHz is the CPU sampling rate the traced passes ask for. The
// default 100 Hz leaves the fleet layers, each well under 1% of a pass,
// with a handful of samples or none. The kernel delivers what its CPU
// time accounting allows, about 250 Hz on the baseline host.
// StartCPUProfile then prints that it cannot set the rate (to 100 Hz)
// and keeps this one.
const profileHz = 1000

func startStopwatch(traced bool) (*stopwatch, error) {
	s := &stopwatch{}
	if traced {
		runtime.ReadMemStats(&s.mem0)
		runtime.SetCPUProfileRate(profileHz)
		s.prof = new(bytes.Buffer)
		if err := pprof.StartCPUProfile(s.prof); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	s.t0, s.cpu0 = time.Now(), processCPU()
	return s, nil
}

func (s *stopwatch) since() time.Duration { return time.Since(s.t0) }

func (s *stopwatch) stop(p *pass) {
	p.wall = time.Since(s.t0)
	p.cpu = processCPU() - s.cpu0
	if s.prof == nil {
		return
	}
	pprof.StopCPUProfile()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	p.profile = s.prof.Bytes()
	p.mallocs = m.Mallocs - s.mem0.Mallocs
	p.gcs = m.NumGC - s.mem0.NumGC
	p.gcPause = time.Duration(m.PauseTotalNs - s.mem0.PauseTotalNs)
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS returns the process's maximum resident set size in MB.
func peakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// workloadDef is one benchmark workload.
type workloadDef struct {
	name string
	why  string
	// setup builds everything one pass needs before its first simulated
	// cycle, tears it down again, and returns each sim.New it timed.
	setup func(e *env) (total time.Duration, simNew []time.Duration, err error)
	// pass runs the workload once; a traced pass also records the
	// program's own spans around the calls it makes.
	pass func(e *env, traced bool) (*pass, error)
	// verify re-checks a finished pass against an independent path,
	// untimed, and returns one error per failed check.
	verify func(e *env, p *pass) (checks int, errs []error)
	// probe runs the workload's traced-only microbenchmarks (outside the
	// CPU profile) and records them on p.
	probe func(e *env, p *pass) error
}

// workloads are the benchmark's workloads, in report order.
var workloads = []*workloadDef{
	{
		name:   "figures",
		why:    "every paper table from ~114 cold runs: the simulator layers do all the work, checkpointing and the service none",
		setup:  figuresSetup,
		pass:   figuresPass,
		verify: verifyFigures,
	},
	{
		name:   "sweep-pool",
		why:    "48-point checkpoint-tree sweep on the in-process pool: warm store, snapshot restore and trunk extension do a real share",
		setup:  sweepPoolSetup,
		pass:   sweepPoolPass,
		verify: verifyForks,
		probe:  probeCheckpointing,
	},
	{
		name:   "sweep-fleet",
		why:    "the same sweep through a WAL-backed coordinator and 3 loopback workers: the only workload running the service servers, wire, cluster, wal and blob",
		setup:  sweepFleetSetup,
		pass:   sweepFleetPass,
		verify: verifyForks,
		probe:  probeCheckpointing,
	},
	{
		name:  "scenarios",
		why:   "4 multi-phase, multi-tenant scenarios x 7 mechanisms: the simulator driven by phase changes and co-located tenants",
		setup: scenariosSetup,
		pass:  scenariosPass,
	},
}

func workloadByName(name string) (*workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// timeSimNew builds (and drops) one system per configuration, timing
// each sim.New.
func timeSimNew(cfgs []sim.Config) (time.Duration, []time.Duration, error) {
	var total time.Duration
	times := make([]time.Duration, 0, len(cfgs))
	for _, cfg := range cfgs {
		t0 := time.Now()
		if _, err := sim.New(cfg); err != nil {
			return 0, nil, err
		}
		d := time.Since(t0)
		total += d
		times = append(times, d)
	}
	return total, times, nil
}

// --- figures -------------------------------------------------------------

func figuresOptions(e *env) figures.Options {
	return figures.Options{Seed: e.seed, WarmupCycles: e.scale.figWarmup, MeasureCycles: e.scale.figMeasure}
}

// figuresConfig is the configuration figures.Runner gives mechanism m
// on workload w.
func figuresConfig(e *env, m sim.Mechanism, w workload.Params) sim.Config {
	cfg := sim.DefaultConfig(m, w)
	cfg.Seed = e.seed + 1
	cfg.WarmupCycles, cfg.MeasureCycles = e.scale.figWarmup, e.scale.figMeasure
	return cfg
}

// figuresSetup times sim.New for the 42 preset x mechanism systems the
// figures pass runs.
func figuresSetup(e *env) (time.Duration, []time.Duration, error) {
	t0 := time.Now()
	var cfgs []sim.Config
	for _, w := range workload.All() {
		for _, m := range sim.Mechanisms() {
			cfgs = append(cfgs, figuresConfig(e, m, w))
		}
	}
	_, times, err := timeSimNew(cfgs)
	return time.Since(t0), times, err
}

// verifyFigures re-runs one of the pass's runs cold, through sim.RunOne,
// and checks it is byte-identical to the runner's result. The run is
// drawn by seed from those its mechanism and workload identify alone:
// not BuMP, which Fig. 11 varies, nor base-open, which the profile runs
// share.
func verifyFigures(e *env, p *pass) (int, []error) {
	ms := []sim.Mechanism{sim.BaseClose, sim.SMSOnly, sim.VWQOnly, sim.SMSVWQ, sim.FullRegion}
	ws := workload.All()
	i := int(uint64(e.seed) % uint64(len(ms)*len(ws)))
	m, w := ms[i%len(ms)], ws[i/len(ms)]
	var found []sim.Result
	for _, r := range p.results {
		if r.Mechanism == m && r.Workload == w.Name {
			found = append(found, r)
		}
	}
	if len(found) != 1 {
		return 1, []error{fmt.Errorf("figures check: %d results for %s/%s, want 1", len(found), m, w.Name)}
	}
	cold, err := sim.RunOne(figuresConfig(e, m, w))
	if err == nil {
		err = sameResult(cold, found[0])
	}
	if err != nil {
		return 1, []error{fmt.Errorf("figures check: %s/%s: %w", m, w.Name, err)}
	}
	return 1, nil
}

// figShifts and figThresholds are Fig. 11's region sizes and density
// thresholds (percent of a region's blocks).
var (
	figShifts     = []uint{9, 10, 11}
	figThresholds = []uint{25, 50, 75, 100}
)

// figThreshold converts a percentage to the block-count threshold Fig. 11
// passes to Runner.RunVariant (the rule figures.Runner.Fig11 applies).
func figThreshold(shift, pct uint) uint {
	return max(uint(1)<<(shift-6)*pct/100, 1)
}

func figuresPass(e *env, traced bool) (p *pass, err error) {
	defer func() {
		// figures.Runner panics when a simulation fails; report it as
		// a failed pass.
		if r := recover(); r != nil {
			pprof.StopCPUProfile() // no-op unless the pass was traced
			p, err = nil, fmt.Errorf("figures: %v", r)
		}
	}()
	r := figures.NewRunner(figuresOptions(e))
	p = &pass{}
	sw, err := startStopwatch(traced)
	if err != nil {
		return nil, err
	}
	for _, table := range []func() *stats.Table{
		r.Fig1, r.Fig2, r.Fig3, r.Fig5, r.Table1, r.Fig8, r.Fig9,
		r.Fig10, r.Fig11, r.Fig12, r.Fig13, r.Table4,
	} {
		table()
		p.points = append(p.points, sw.since())
	}
	sw.stop(p)

	// Every run is cached by now; collect each distinct one once.
	type key struct {
		m          sim.Mechanism
		w          string
		shift, thr uint
		raw        bool
	}
	def := sim.DefaultConfig(sim.BuMP, workload.Params{}).BuMP
	seen := make(map[key]bool)
	add := func(k key, res sim.Result) {
		if !seen[k] {
			seen[k] = true
			p.results = append(p.results, res)
			p.cycles += e.scale.figWarmup + e.scale.figMeasure
		}
	}
	for _, w := range workload.All() {
		for _, m := range sim.Mechanisms() {
			k := key{m: m, w: w.Name}
			if m == sim.BuMP {
				k.shift, k.thr = def.RegionShift, def.DensityThreshold
			}
			add(k, r.Run(m, w))
		}
		add(key{m: sim.BaseOpen, w: w.Name, raw: true}, r.RunProfile(w))
		for _, shift := range figShifts {
			for _, pct := range figThresholds {
				thr := figThreshold(shift, pct)
				add(key{m: sim.BuMP, w: w.Name, shift: shift, thr: thr}, r.RunVariant(w, shift, thr))
			}
		}
	}
	p.claims = figuresClaims(r)
	return p, nil
}

// figuresClaims computes the paper's headline numbers exactly as the
// ReportMetric calls of the repository's figure benchmarks do.
func figuresClaims(r *figures.Runner) map[string]float64 {
	ws := workload.All()
	meanOver := func(f func(w workload.Params) float64) float64 {
		xs := make([]float64, len(ws))
		for i, w := range ws {
			xs[i] = f(w)
		}
		return stats.Mean(xs)
	}
	hit := func(m sim.Mechanism) float64 {
		return 100 * meanOver(func(w workload.Params) float64 { return r.Run(m, w).RowHitRatio() })
	}
	saving := func(ref sim.Mechanism) float64 {
		return 100 * meanOver(func(w workload.Params) float64 {
			return 1 - r.Run(sim.BuMP, w).EPATotal/r.Run(ref, w).EPATotal
		})
	}
	speedup := func(m sim.Mechanism) float64 {
		return 100 * meanOver(func(w workload.Params) float64 {
			return stats.Speedup(r.Run(sim.BaseClose, w).IPC(), r.Run(m, w).IPC())
		})
	}
	perInstr := func(res sim.Result) float64 { return float64(res.LLCTraffic()) / float64(res.Instructions) }
	c := map[string]float64{
		"claim.bump_row_hit":   hit(sim.BuMP),
		"claim.open_row_hit":   hit(sim.BaseOpen),
		"claim.sms_row_hit":    hit(sim.SMSOnly),
		"claim.vwq_row_hit":    hit(sim.VWQOnly),
		"claim.smsvwq_row_hit": hit(sim.SMSVWQ),
		"claim.save_vs_open":   saving(sim.BaseOpen),
		"claim.save_vs_close":  saving(sim.BaseClose),
		"claim.bump_speedup":   speedup(sim.BuMP),
		"claim.open_speedup":   speedup(sim.BaseOpen),
		"claim.llc_overhead": 100 * (meanOver(func(w workload.Params) float64 {
			return perInstr(r.Run(sim.BuMP, w)) / perInstr(r.Run(sim.BaseOpen, w))
		}) - 1),
		"claim.read_coverage": 100 * meanOver(func(w workload.Params) float64 { return r.Run(sim.BuMP, w).ReadCoverage() }),
		"claim.fullregion_overfetch_x": meanOver(func(w workload.Params) float64 {
			return r.Run(sim.FullRegion, w).ReadOverfetch()
		}),
	}
	c["paper_err_pp"] = paperError(c)
	return c
}

// --- sweeps --------------------------------------------------------------

// sweepFamilies are the sweep's structural configurations; each sweeps
// MaxRowHitStreak over sweepStreaks values from one shared trunk.
var sweepFamilies = []string{"web-search", "data-serving", "media-streaming"}

const sweepStreaks = 16

// sweepSpecs returns the sweep's points, family by family. Each family
// gets its own priority, highest first: a pool otherwise runs the
// families in the order of their warm keys, which are hashes of the
// seeded configuration, and the seed would decide how far into the pass
// the median point lands. Priority orders the queue only; it never
// reaches a result.
func sweepSpecs(e *env) []service.JobSpec {
	specs := make([]service.JobSpec, 0, len(sweepFamilies)*sweepStreaks)
	for f, w := range sweepFamilies {
		for streak := 0; streak < sweepStreaks; streak++ {
			specs = append(specs, service.JobSpec{
				Workload:        w,
				Mechanism:       "bump",
				Seed:            e.seed,
				WarmupCycles:    e.scale.warmup,
				MeasureCycles:   e.scale.measure,
				ForkAt:          e.scale.forkAt,
				ForkCycles:      []uint64{e.scale.forkAt},
				MaxRowHitStreak: streak,
				Priority:        len(sweepFamilies) - f,
			})
		}
	}
	return specs
}

func sweepConfigs(e *env) ([]sim.Config, error) {
	var cfgs []sim.Config
	for i, s := range sweepSpecs(e) {
		cfg, err := s.Config()
		if err != nil {
			return nil, fmt.Errorf("sweep point %d: %w", i, err)
		}
		cfgs = append(cfgs, cfg)
	}
	return cfgs, nil
}

// poolOptions is the in-process pool cmd/sweep runs a warm sweep on.
func poolOptions() service.Options {
	return service.Options{WarmStarts: true, WarmEntries: 64}
}

func sweepPoolSetup(e *env) (time.Duration, []time.Duration, error) {
	t0 := time.Now()
	pool := service.NewPool(poolOptions())
	defer pool.Close()
	cfgs, err := sweepConfigs(e)
	if err != nil {
		return 0, nil, err
	}
	_, times, err := timeSimNew(cfgs)
	return time.Since(t0), times, err
}

func sweepPoolPass(e *env, traced bool) (*pass, error) {
	opts := poolOptions()
	if traced {
		opts.Tracer = obs.NewTracer(0)
	}
	pool := service.NewPool(opts)
	defer pool.Close()
	specs := sweepSpecs(e)

	p := &pass{}
	sw, err := startStopwatch(traced)
	if err != nil {
		return nil, err
	}
	res, err := service.RunBatch(context.Background(), pool, service.BatchSpec{Specs: specs},
		func(service.BatchPoint) { p.points = append(p.points, sw.since()) })
	sw.stop(p)
	if err != nil {
		return nil, err
	}
	collectPoints(p, res)
	st := pool.Stats()
	p.counts = poolCounts(e, []service.PoolStats{st})
	if traced {
		for _, pt := range res.Points {
			recordSpans(p, opts.Tracer, pt.Status.ID, poolSpans)
		}
	}
	return p, nil
}

// collectPoints copies a batch's results into p in submission order.
func collectPoints(p *pass, res service.BatchResult) {
	for _, pt := range res.Points {
		if pt.Status.State != service.StateDone || pt.Status.Result == nil {
			p.failures = append(p.failures, fmt.Sprintf("point %d %s: %s", pt.Index, pt.Status.State, pt.Status.Error))
			continue
		}
		p.results = append(p.results, *pt.Status.Result)
	}
}

// poolCounts folds pool statistics into the pass's per-layer counters
// and its simulated-cycle total.
func poolCounts(e *env, pools []service.PoolStats) map[string]float64 {
	var w sim.WarmStats
	c := make(map[string]float64)
	for _, st := range pools {
		c["service.executions"] += float64(st.Executions)
		c["service.cache_hits"] += float64(st.Cache.Hits)
		c["service.coalesced"] += float64(st.Coalesced)
		w.Hits += st.Warm.Hits
		w.Misses += st.Warm.Misses
		w.ForkHits += st.Warm.ForkHits
		w.ForkMisses += st.Warm.ForkMisses
		w.WarmupCyclesSimulated += st.Warm.WarmupCyclesSimulated
		w.TrunkCyclesSimulated += st.Warm.TrunkCyclesSimulated
		w.BranchCyclesSimulated += st.Warm.BranchCyclesSimulated
	}
	simulated := w.WarmupCyclesSimulated + w.TrunkCyclesSimulated + w.BranchCyclesSimulated
	cold := uint64(len(sweepFamilies)*sweepStreaks) * (e.scale.warmup + e.scale.measure)
	c["sim.cycles"] = float64(simulated)
	c["sim.warm_hits"] = float64(w.Hits)
	c["sim.warm_misses"] = float64(w.Misses)
	c["sim.fork_hits"] = float64(w.ForkHits)
	c["sim.fork_misses"] = float64(w.ForkMisses)
	c["sim.trunk_cycles"] = float64(w.WarmupCyclesSimulated + w.TrunkCyclesSimulated)
	c["sim.branch_cycles"] = float64(w.BranchCyclesSimulated)
	c["sim.cold_cycle_ratio"] = finite(float64(cold) / float64(simulated))
	return c
}

// poolSpans maps the span names a service.Pool records to timed calls.
var poolSpans = map[string]string{
	"queue":        "service.queue",
	"execute":      "service.execute",
	"warm.resolve": "sim.warm_resolve",
	"restore":      "sim.restore",
	"trunk.extend": "sim.trunk_extend",
	"warmup":       "sim.warmup",
	"measure":      "sim.measure",
	"encode":       "sim.encode",
}

// spanDurations returns a traced job's completed spans by span name.
func spanDurations(t *obs.Tracer, jobID string) map[string][]time.Duration {
	exp, ok := t.Export(jobID, 1, "bench")
	if !ok {
		return nil
	}
	out := make(map[string][]time.Duration)
	for _, ev := range exp.TraceEvents {
		if ev.Phase == "X" {
			out[ev.Name] = append(out[ev.Name], time.Duration(ev.Dur*float64(time.Microsecond)))
		}
	}
	return out
}

// recordSpans adds a job's spans to p under their timed-call names.
func recordSpans(p *pass, t *obs.Tracer, jobID string, names map[string]string) {
	for span, ds := range spanDurations(t, jobID) {
		if call, ok := names[span]; ok {
			for _, d := range ds {
				p.record(call, d)
			}
		}
	}
}

// verifyForks re-runs one sampled point per sweep family cold, through
// sim.RunOne, and checks it is byte-identical to the forked result.
func verifyForks(e *env, p *pass) (int, []error) {
	specs := sweepSpecs(e)
	if len(p.results) != len(specs) {
		return 1, []error{fmt.Errorf("fork check: %d results for %d points", len(p.results), len(specs))}
	}
	streak := 1 + int(uint64(e.seed)%(sweepStreaks-1)) // never the trunk itself
	var idx []int
	for f := range sweepFamilies {
		idx = append(idx, f*sweepStreaks+streak)
	}
	errs := make([]error, len(idx))
	forEachLimited(len(idx), func(i int) {
		pt := idx[i]
		cfg, err := specs[pt].Config()
		if err == nil {
			var cold sim.Result
			if cold, err = sim.RunOne(cfg); err == nil {
				err = sameResult(cold, p.results[pt])
			}
		}
		if err != nil {
			errs[i] = fmt.Errorf("fork check: point %d (%s, streak %d): %w", pt, specs[pt].Workload, specs[pt].MaxRowHitStreak, err)
		}
	})
	return len(idx), nonNil(errs)
}

func nonNil(errs []error) []error {
	var out []error
	for _, err := range errs {
		if err != nil {
			out = append(out, err)
		}
	}
	return out
}

func sameResult(a, b sim.Result) error {
	ja, err := json.Marshal(a)
	if err != nil {
		return err
	}
	jb, err := json.Marshal(b)
	if err != nil {
		return err
	}
	if !bytes.Equal(ja, jb) {
		return errors.New("cold result differs from the forked result")
	}
	return nil
}

// forEachLimited calls fn(0..n-1) with at most GOMAXPROCS calls in
// flight, returning when all have finished.
func forEachLimited(n int, fn func(i int)) {
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer func() { <-sem; wg.Done() }()
			fn(i)
		}()
	}
	wg.Wait()
}

// probeCheckpointing times HashSpec over the sweep's specs and
// Snapshot/Restore of a warmed web-search BuMP system.
func probeCheckpointing(e *env, p *pass) error {
	specs := sweepSpecs(e)
	for rep := 0; rep < 100; rep++ {
		for _, s := range specs {
			t0 := time.Now()
			if _, err := service.HashSpec(s); err != nil {
				return err
			}
			p.record("service.hash", time.Since(t0))
		}
	}

	w, _ := workload.ByName("web-search")
	cfg := sim.DefaultConfig(sim.BuMP, w)
	cfg.Seed = e.seed
	cfg.WarmupCycles = e.scale.warmup
	s, err := sim.New(cfg)
	if err != nil {
		return err
	}
	errWarm := errors.New("warm")
	if _, err := s.RunWithHooks(sim.Hooks{AtWarmupEnd: func() error { return errWarm }}); !errors.Is(err, errWarm) {
		return fmt.Errorf("snapshot probe: warmup: %v", err)
	}
	var data []byte
	for rep := 0; rep < 20; rep++ {
		var buf bytes.Buffer
		t0 := time.Now()
		if err := s.Snapshot(&buf); err != nil {
			return err
		}
		p.record("snapshot.encode", time.Since(t0))
		data = buf.Bytes()
	}
	for rep := 0; rep < 20; rep++ {
		fresh, err := sim.New(cfg)
		if err != nil {
			return err
		}
		t0 := time.Now()
		if err := fresh.Restore(bytes.NewReader(data)); err != nil {
			return err
		}
		p.record("snapshot.restore", time.Since(t0))
	}
	if p.counts == nil {
		p.counts = make(map[string]float64)
	}
	p.counts["snapshot.bytes"] = float64(len(data))
	return nil
}

// --- scenarios -----------------------------------------------------------

func scenarioConfigs(e *env) ([]sim.Config, error) {
	cores := sim.DefaultConfig(sim.BuMP, workload.Params{}).Cores
	var cfgs []sim.Config
	for _, name := range scenario.Library() {
		sc, ok := scenario.ByName(name, cores)
		if !ok {
			return nil, fmt.Errorf("scenario %q vanished from the library", name)
		}
		for _, m := range sim.Mechanisms() {
			cfg := sim.DefaultScenarioConfig(m, sc)
			cfg.Seed = e.seed
			cfg.WarmupCycles, cfg.MeasureCycles = e.scale.warmup, e.scale.measure
			cfgs = append(cfgs, cfg)
		}
	}
	return cfgs, nil
}

func scenariosSetup(e *env) (time.Duration, []time.Duration, error) {
	cfgs, err := scenarioConfigs(e)
	if err != nil {
		return 0, nil, err
	}
	return timeSimNew(cfgs)
}

func scenariosPass(e *env, traced bool) (*pass, error) {
	cfgs, err := scenarioConfigs(e)
	if err != nil {
		return nil, err
	}
	p := &pass{}
	results := make([]sim.Result, len(cfgs))
	errs := make([]error, len(cfgs))
	var mu sync.Mutex // guards p.points and p.calls
	sw, err := startStopwatch(traced)
	if err != nil {
		return nil, err
	}
	forEachLimited(len(cfgs), func(i int) {
		var h sim.Hooks
		if traced {
			h.Phase = func(name string, start, end time.Time) {
				mu.Lock()
				p.record("sim."+name, end.Sub(start))
				mu.Unlock()
			}
		}
		s, err := sim.New(cfgs[i])
		if err == nil {
			results[i], err = s.RunWithHooks(h)
		}
		errs[i] = err
		mu.Lock()
		p.points = append(p.points, sw.since())
		mu.Unlock()
	})
	sw.stop(p)
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	p.results = results
	for _, cfg := range cfgs {
		p.cycles += cfg.WarmupCycles + cfg.MeasureCycles
	}
	return p, nil
}
