// Benchmarks regenerating every table and figure of the paper's
// evaluation section. Each benchmark runs the corresponding experiment
// (simulations are cached across benchmarks, so a full -bench=. pass runs
// each distinct configuration once), reports the headline numbers as
// custom metrics, and logs the full text table under -v.
//
// Run everything:
//
//	go test -bench=. -benchmem -benchtime=1x
//
// Paper-vs-measured values for every experiment are recorded in
// EXPERIMENTS.md.
package bump

import (
	"encoding/json"
	"os"
	"runtime"
	"sync"
	"testing"

	"bump/internal/sim"
	"bump/internal/stats"
)

var (
	benchRunnerOnce sync.Once
	benchRunner     *Figures
)

// benchFigures returns the shared, cached evaluation harness used by all
// benchmarks: full six-workload suite at moderately sized windows.
func benchFigures() *Figures {
	benchRunnerOnce.Do(func() {
		benchRunner = NewFigures(FigureOptions{
			Seed:          1,
			WarmupCycles:  700_000,
			MeasureCycles: 1_500_000,
		})
	})
	return benchRunner
}

func logTable(b *testing.B, t *stats.Table) {
	b.Helper()
	b.Logf("\n%s", t)
}

// BenchmarkFig01EnergyBreakdown regenerates Figure 1: server energy
// breakdown (cores/LLC/NOC/MC/memory; memory split into activation,
// burst&IO and background) on the baseline system.
func BenchmarkFig01EnergyBreakdown(b *testing.B) {
	f := benchFigures()
	for i := 0; i < b.N; i++ {
		t := f.Fig1()
		logTable(b, t)
	}
	// Headline: memory's share of server energy (paper: 48-62%).
	var mems []float64
	for _, w := range Workloads() {
		res := f.Run(MechBaseOpen, w)
		mems = append(mems, res.Energy.Memory()/res.Energy.Total())
	}
	b.ReportMetric(100*stats.Mean(mems), "%memEnergy")
}

// BenchmarkFig02RowBufferHitRatio regenerates Figure 2: row-buffer hit
// ratios of Base, SMS, VWQ and Ideal.
func BenchmarkFig02RowBufferHitRatio(b *testing.B) {
	f := benchFigures()
	for i := 0; i < b.N; i++ {
		logTable(b, f.Fig2())
	}
	var base, ideal []float64
	for _, w := range Workloads() {
		base = append(base, f.Run(MechBaseOpen, w).RowHitRatio())
		ideal = append(ideal, f.RunProfile(w).Profile.IdealHitRatio())
	}
	b.ReportMetric(100*stats.Mean(base), "%baseHit")
	b.ReportMetric(100*stats.Mean(ideal), "%idealHit")
}

// BenchmarkFig03AccessMix regenerates Figure 3: DRAM accesses broken into
// load-triggered reads, store-triggered reads and writes.
func BenchmarkFig03AccessMix(b *testing.B) {
	f := benchFigures()
	for i := 0; i < b.N; i++ {
		logTable(b, f.Fig3())
	}
	var writes []float64
	for _, w := range Workloads() {
		p := f.RunProfile(w).Profile
		writes = append(writes, stats.Ratio(p.Writes, p.Accesses()))
	}
	// Paper: writes are 21-38% of DRAM traffic.
	b.ReportMetric(100*stats.Mean(writes), "%writes")
}

// BenchmarkFig05RegionDensity regenerates Figure 5: region access density
// (1KB regions) for reads and writes.
func BenchmarkFig05RegionDensity(b *testing.B) {
	f := benchFigures()
	for i := 0; i < b.N; i++ {
		logTable(b, f.Fig5())
	}
	var hr, hw []float64
	for _, w := range Workloads() {
		p := f.RunProfile(w).Profile
		hr = append(hr, p.HighDensityReadFraction())
		hw = append(hw, p.HighDensityWriteFraction())
	}
	// Paper: 57-75% of reads, 62-86% of writes are high-density.
	b.ReportMetric(100*stats.Mean(hr), "%highReads")
	b.ReportMetric(100*stats.Mean(hw), "%highWrites")
}

// BenchmarkTable1LateWrites regenerates Table I: blocks modified after
// the region's first dirty eviction (paper: 3-11%).
func BenchmarkTable1LateWrites(b *testing.B) {
	f := benchFigures()
	for i := 0; i < b.N; i++ {
		logTable(b, f.Table1())
	}
	var late []float64
	for _, w := range Workloads() {
		late = append(late, f.RunProfile(w).Profile.LateWriteFraction())
	}
	b.ReportMetric(100*stats.Mean(late), "%lateWrites")
}

// BenchmarkFig08Coverage regenerates Figure 8: predicted reads/writes and
// overfetch for Full-region and BuMP.
func BenchmarkFig08Coverage(b *testing.B) {
	f := benchFigures()
	for i := 0; i < b.N; i++ {
		logTable(b, f.Fig8())
	}
	var cov, ovf, wcov, frOvf []float64
	for _, w := range Workloads() {
		r := f.Run(MechBuMP, w)
		cov = append(cov, r.ReadCoverage())
		ovf = append(ovf, r.ReadOverfetch())
		wcov = append(wcov, r.WriteCoverage())
		frOvf = append(frOvf, f.Run(MechFullRegion, w).ReadOverfetch())
	}
	// Paper: BuMP ~50% read coverage at 5-22% overfetch, 63% write
	// coverage; Full-region overfetch averages 4.3x.
	b.ReportMetric(100*stats.Mean(cov), "%readCov")
	b.ReportMetric(100*stats.Mean(ovf), "%overfetch")
	b.ReportMetric(100*stats.Mean(wcov), "%writeCov")
	b.ReportMetric(stats.Mean(frOvf), "xFullRegionOverfetch")
}

// BenchmarkFig09EnergyPerAccess regenerates Figure 9: memory energy per
// access for Base-close, Base-open, Full-region and BuMP.
func BenchmarkFig09EnergyPerAccess(b *testing.B) {
	f := benchFigures()
	for i := 0; i < b.N; i++ {
		logTable(b, f.Fig9())
	}
	var vsClose, vsOpen []float64
	for _, w := range Workloads() {
		bc := f.Run(MechBaseClose, w).EPATotal
		bo := f.Run(MechBaseOpen, w).EPATotal
		bm := f.Run(MechBuMP, w).EPATotal
		vsClose = append(vsClose, 1-bm/bc)
		vsOpen = append(vsOpen, 1-bm/bo)
	}
	// Paper: BuMP reduces energy/access 34% vs Base-close, 23% vs
	// Base-open.
	b.ReportMetric(100*stats.Mean(vsClose), "%saveVsClose")
	b.ReportMetric(100*stats.Mean(vsOpen), "%saveVsOpen")
}

// BenchmarkFig10Performance regenerates Figure 10: throughput improvement
// over Base-close.
func BenchmarkFig10Performance(b *testing.B) {
	f := benchFigures()
	for i := 0; i < b.N; i++ {
		logTable(b, f.Fig10())
	}
	var bumpGain, openGain, frGain []float64
	for _, w := range Workloads() {
		ref := f.Run(MechBaseClose, w).IPC()
		bumpGain = append(bumpGain, stats.Speedup(ref, f.Run(MechBuMP, w).IPC()))
		openGain = append(openGain, stats.Speedup(ref, f.Run(MechBaseOpen, w).IPC()))
		frGain = append(frGain, stats.Speedup(ref, f.Run(MechFullRegion, w).IPC()))
	}
	// Paper: BuMP +9% vs Base-close (+11% vs Base-open), Base-open -1-2%,
	// Full-region large losses.
	b.ReportMetric(100*stats.Mean(bumpGain), "%bumpSpeedup")
	b.ReportMetric(100*stats.Mean(openGain), "%openSpeedup")
	b.ReportMetric(100*stats.Mean(frGain), "%fullRegionSpeedup")
}

// BenchmarkFig11DesignSpace regenerates Figure 11: energy improvement
// across region sizes {512B,1KB,2KB} x thresholds {25,50,75,100}%.
func BenchmarkFig11DesignSpace(b *testing.B) {
	f := benchFigures()
	var t *stats.Table
	for i := 0; i < b.N; i++ {
		t = f.Fig11()
		logTable(b, t)
	}
	// Headline: the paper's chosen configuration (1KB at 50%) is the
	// best or near-best cell.
	_ = t
	var best float64
	for _, w := range Workloads() {
		base := f.Run(MechBaseOpen, w).EPATotal
		v := f.RunVariant(w, 10, 8).EPATotal
		best += 1 - v/base
	}
	b.ReportMetric(100*best/float64(len(Workloads())), "%gain1KB50")
}

// BenchmarkFig12OnChipOverheads regenerates Figure 12: BuMP's LLC and NOC
// traffic/energy overheads (paper: ~10-13%).
func BenchmarkFig12OnChipOverheads(b *testing.B) {
	f := benchFigures()
	for i := 0; i < b.N; i++ {
		logTable(b, f.Fig12())
	}
	var llc, noct []float64
	for _, w := range Workloads() {
		base := f.Run(MechBaseOpen, w)
		bm := f.Run(MechBuMP, w)
		llc = append(llc, (float64(bm.LLCTraffic())/float64(bm.Instructions))/
			(float64(base.LLCTraffic())/float64(base.Instructions)))
		noct = append(noct, (float64(bm.NOCTrafficBytes())/float64(bm.Instructions))/
			(float64(base.NOCTrafficBytes())/float64(base.Instructions)))
	}
	b.ReportMetric(100*(stats.Mean(llc)-1), "%llcTrafficOverhead")
	b.ReportMetric(100*(stats.Mean(noct)-1), "%nocTrafficOverhead")
}

// BenchmarkFig13Summary regenerates Figure 13: hit ratio and energy per
// access for all seven systems plus Ideal.
func BenchmarkFig13Summary(b *testing.B) {
	f := benchFigures()
	var t *stats.Table
	for i := 0; i < b.N; i++ {
		t = f.Fig13()
		logTable(b, t)
	}
	_ = t
	var hit [8]float64
	order := []Mechanism{MechBaseClose, MechBaseOpen, MechSMS, MechVWQ, MechSMSVWQ, MechFullRegion, MechBuMP}
	for i, m := range order {
		var hs []float64
		for _, w := range Workloads() {
			hs = append(hs, f.Run(m, w).RowHitRatio())
		}
		hit[i] = stats.Mean(hs)
	}
	// Paper: Base-open 21%, SMS 30%, VWQ 36%, SMS+VWQ 44%, BuMP 55%,
	// Ideal 77%.
	b.ReportMetric(100*hit[1], "%hitBaseOpen")
	b.ReportMetric(100*hit[2], "%hitSMS")
	b.ReportMetric(100*hit[3], "%hitVWQ")
	b.ReportMetric(100*hit[4], "%hitSMSVWQ")
	b.ReportMetric(100*hit[6], "%hitBuMP")
}

// BenchmarkTable4BuMPHitRatio regenerates Table IV: BuMP's per-workload
// row-buffer hit ratio (paper: 34-64%).
func BenchmarkTable4BuMPHitRatio(b *testing.B) {
	f := benchFigures()
	for i := 0; i < b.N; i++ {
		logTable(b, f.Table4())
	}
	var hits []float64
	for _, w := range Workloads() {
		hits = append(hits, f.Run(MechBuMP, w).RowHitRatio())
	}
	b.ReportMetric(100*stats.Mean(hits), "%bumpHit")
}

// BenchmarkSimulatorThroughput measures the raw simulation speed of the
// engine (events are the unit of work), for performance tracking of the
// simulator itself. It reports events/sec and allocs/event so the perf
// trajectory is machine-readable across PRs.
func BenchmarkSimulatorThroughput(b *testing.B) {
	w := WebSearch()
	var events uint64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig(MechBuMP, w)
		cfg.WarmupCycles = 100_000
		cfg.MeasureCycles = 400_000
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		events += res.Events
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	if events > 0 {
		eventsPerSec := float64(events) / b.Elapsed().Seconds()
		allocsPerEvent := float64(after.Mallocs-before.Mallocs) / float64(events)
		b.ReportMetric(eventsPerSec, "events/sec")
		b.ReportMetric(allocsPerEvent, "allocs/event")
		writeBenchJSON(b, eventsPerSec, allocsPerEvent, events)
	}
}

// BenchmarkForkSweep measures the checkpoint-tree sweep economics: a
// 16-point fairness-cap sweep with one mid-measurement cut, where every
// point restores the shared trunk and simulates only its branch tail.
// It reports trunk vs branch cycles simulated and the speedup over the
// equivalent 16 cold sequential runs, and records them as a
// machine-readable artifact when BENCH_JSON names a path.
func BenchmarkForkSweep(b *testing.B) {
	base := DefaultConfig(MechBuMP, WebSearch())
	base.WarmupCycles = 100_000
	base.MeasureCycles = 400_000
	cut := base.WarmupCycles + base.MeasureCycles/2
	const points = 16

	var st sim.WarmStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws := sim.NewWarmStore(8)
		for cap := 0; cap < points; cap++ {
			cfg := base
			cfg.MaxRowHitStreak = cap
			cfg.ForkAt = cut
			cfg.ForkCycles = []uint64{cut}
			if _, err := ws.Run(cfg); err != nil {
				b.Fatal(err)
			}
		}
		st = ws.Stats()
	}
	b.StopTimer()

	trunk := st.WarmupCyclesSimulated + st.TrunkCyclesSimulated
	branch := st.BranchCyclesSimulated
	cold := uint64(points) * (base.WarmupCycles + base.MeasureCycles)
	b.ReportMetric(float64(trunk), "trunkCycles")
	b.ReportMetric(float64(branch), "branchCycles")
	b.ReportMetric(float64(cold)/float64(trunk+branch), "xVsColdCycles")
	writeForkSweepBenchJSON(b, st, trunk, branch, cold)
}

// writeForkSweepBenchJSON records the trunk-vs-branch sweep ledger as a
// machine-readable artifact when BENCH_JSON names a path (CI uploads it
// per commit as BENCH_forksweep.json).
func writeForkSweepBenchJSON(b *testing.B, st sim.WarmStats, trunk, branch, cold uint64) {
	path := os.Getenv("BENCH_JSON")
	if path == "" {
		return
	}
	payload := map[string]any{
		"benchmark":               "ForkSweep",
		"iterations":              b.N,
		"trunk_cycles_simulated":  trunk,
		"branch_cycles_simulated": branch,
		"cold_equivalent_cycles":  cold,
		"cycle_speedup_vs_cold":   float64(cold) / float64(trunk+branch),
		"warm":                    st,
		"ns_per_op":               float64(b.Elapsed().Nanoseconds()) / float64(b.N),
		"gomaxprocs":              runtime.GOMAXPROCS(0),
	}
	data, err := json.MarshalIndent(payload, "", "  ")
	if err != nil {
		b.Fatalf("marshal bench json: %v", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		b.Fatalf("write %s: %v", path, err)
	}
	b.Logf("wrote %s", path)
}

// writeBenchJSON records the throughput metrics as a machine-readable
// artifact when BENCH_JSON names a path (CI uploads it per commit to
// track the perf trajectory across PRs).
func writeBenchJSON(b *testing.B, eventsPerSec, allocsPerEvent float64, events uint64) {
	path := os.Getenv("BENCH_JSON")
	if path == "" {
		return
	}
	payload := map[string]any{
		"benchmark":        "SimulatorThroughput",
		"iterations":       b.N,
		"events":           events,
		"events_per_sec":   eventsPerSec,
		"allocs_per_event": allocsPerEvent,
		"ns_per_op":        float64(b.Elapsed().Nanoseconds()) / float64(b.N),
		"gomaxprocs":       runtime.GOMAXPROCS(0),
	}
	data, err := json.MarshalIndent(payload, "", "  ")
	if err != nil {
		b.Fatalf("marshal bench json: %v", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		b.Fatalf("write %s: %v", path, err)
	}
	b.Logf("wrote %s", path)
}
