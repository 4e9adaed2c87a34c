// Ablation benchmarks for the design choices of the components listed in
// the "Repository layout" section of README.md, and for the scalability
// claims of the paper's Section VI. These go beyond the
// paper's figures: they vary one structural parameter at a time and
// report the metric that parameter is supposed to move.
package bump

import (
	"testing"

	"bump/internal/sim"
	"bump/internal/stats"
)

// ablationConfig returns a moderately sized run for ablation sweeps.
func ablationConfig(m Mechanism, w Workload) Config {
	cfg := DefaultConfig(m, w)
	cfg.WarmupCycles = 600_000
	cfg.MeasureCycles = 1_200_000
	return cfg
}

// ablationWarm shares warmup-end checkpoints across ablation runs:
// repeated identical configs across benchmarks reuse their warm state
// (bit-identical to cold runs) instead of re-simulating the warmup from
// cycle 0, and structurally distinct points (different RDTT sizes,
// window sizes, ...) keep their own warmups. BenchmarkAblationFairnessCap's
// capped points share one canonical (uncapped) warmup: the cap binds at
// the warmup boundary, cold or warm, which isolates the scheduler
// policy's effect instead of conflating it with a differently warmed
// cache.
var ablationWarm = sim.NewWarmStore(64)

func mustRun(b *testing.B, cfg Config) Result {
	b.Helper()
	res, err := ablationWarm.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkAblationRDTTScaling reproduces the Section V.B/VI claim: when
// the number of simultaneously active regions exceeds the RDTT, the
// tracking tables become the coverage bottleneck, and growing them
// from 256-entry toward 2048-entry tables recovers coverage (paper's
// Software Testing: 28% -> up to 44%). The sweep uses a Software Testing
// variant with even heavier object interleaving (the capacity-bound
// regime the paper describes: ~1000 simultaneously active regions), so
// RDTT capacity — not predictor training — is the binding constraint.
func BenchmarkAblationRDTTScaling(b *testing.B) {
	w := SoftwareTesting()
	w.Name = "software-testing-capacity-bound"
	w.OpenTasks = 64   // ~1024 active regions across the CMP
	w.PhaseTasks = 500 // near-stationary code/data mapping
	for i := 0; i < b.N; i++ {
		t := stats.NewTable("Ablation: RDTT size vs read coverage (software-testing, capacity-bound)",
			"RDTT entries", "read-coverage", "row-hit")
		var cov256, cov2048 float64
		for _, entries := range []int{128, 256, 512, 1024, 2048} {
			cfg := ablationConfig(MechBuMP, w)
			cfg.BuMP.TriggerEntries = entries
			cfg.BuMP.DensityEntries = entries
			res := mustRun(b, cfg)
			cov := res.ReadCoverage()
			t.AddRow(entries, 100*cov, 100*res.RowHitRatio())
			switch entries {
			case 256:
				cov256 = cov
			case 2048:
				cov2048 = cov
			}
		}
		if cov2048 <= cov256 {
			b.Log("warning: larger RDTT should raise capacity-bound coverage")
		}
		b.ReportMetric(100*cov256, "%cov256")
		b.ReportMetric(100*cov2048, "%cov2048")
		b.Logf("\n%s", t)
	}
}

// BenchmarkAblationBHTCapacity sweeps the bulk history table (Section
// VI's virtualisation discussion: more concurrent workloads need a
// larger BHT).
func BenchmarkAblationBHTCapacity(b *testing.B) {
	w := WebServing()
	for i := 0; i < b.N; i++ {
		t := stats.NewTable("Ablation: BHT entries vs read coverage (web-serving)",
			"BHT entries", "read-coverage", "overfetch")
		for _, entries := range []int{64, 256, 1024, 4096} {
			cfg := ablationConfig(MechBuMP, w)
			cfg.BuMP.BHTEntries = entries
			res := mustRun(b, cfg)
			t.AddRow(entries, 100*res.ReadCoverage(), 100*res.ReadOverfetch())
			if entries == 1024 {
				b.ReportMetric(100*res.ReadCoverage(), "%cov1024")
			}
		}
		b.Logf("\n%s", t)
	}
}

// BenchmarkAblationInterleaving runs BuMP on the block-interleaved
// mapping: bulk transfers then span banks/rows instead of filling one
// row, so the activation savings should largely disappear (Section
// IV.D's rationale for region-level interleaving).
func BenchmarkAblationInterleaving(b *testing.B) {
	w := WebSearch()
	for i := 0; i < b.N; i++ {
		region := mustRun(b, ablationConfig(MechBuMP, w))
		blockCfg := ablationConfig(MechBuMP, w)
		blockCfg.ForceBlockInterleave = true
		block := mustRun(b, blockCfg)
		b.ReportMetric(100*region.RowHitRatio(), "%hitRegionIL")
		b.ReportMetric(100*block.RowHitRatio(), "%hitBlockIL")
		b.ReportMetric(region.EPATotal*1e9, "nJRegionIL")
		b.ReportMetric(block.EPATotal*1e9, "nJBlockIL")
		if block.RowHitRatio() >= region.RowHitRatio() {
			b.Log("warning: block interleaving should hurt BuMP's row locality")
		}
	}
}

// BenchmarkAblationBuMPVWQ evaluates the paper's footnote extension:
// BuMP plus VWQ for the dirty evictions BuMP does not claim.
func BenchmarkAblationBuMPVWQ(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := stats.NewTable("Extension: BuMP vs BuMP+VWQ",
			"workload", "wcov-bump", "wcov-bump+vwq", "hit-bump", "hit-bump+vwq")
		var dw []float64
		for _, w := range Workloads() {
			bm := mustRun(b, ablationConfig(MechBuMP, w))
			bv := mustRun(b, ablationConfig(sim.BuMPVWQ, w))
			t.AddRow(w.Name, 100*bm.WriteCoverage(), 100*bv.WriteCoverage(),
				100*bm.RowHitRatio(), 100*bv.RowHitRatio())
			dw = append(dw, bv.WriteCoverage()-bm.WriteCoverage())
		}
		b.Logf("\n%s", t)
		b.ReportMetric(100*stats.Mean(dw), "%extraWriteCov")
	}
}

// BenchmarkAblationWindowSize sweeps the core's out-of-order window: BuMP
// gains shrink as the window grows (more latency already hidden), the
// paper's explanation for Media Streaming's small speedup.
func BenchmarkAblationWindowSize(b *testing.B) {
	w := WebSearch()
	for i := 0; i < b.N; i++ {
		t := stats.NewTable("Ablation: window size vs BuMP speedup (web-search)",
			"window", "base-IPC", "bump-IPC", "speedup")
		for _, win := range []int{16, 48, 128, 512} {
			bc := ablationConfig(MechBaseOpen, w)
			bc.WindowSize = win
			base := mustRun(b, bc)
			mc := ablationConfig(MechBuMP, w)
			mc.WindowSize = win
			bm := mustRun(b, mc)
			sp := stats.Speedup(base.IPC(), bm.IPC())
			t.AddRow(win, base.IPC(), bm.IPC(), 100*sp)
			if win == 48 {
				b.ReportMetric(100*sp, "%speedup48")
			}
		}
		b.Logf("\n%s", t)
	}
}
