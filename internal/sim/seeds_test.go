package sim

import (
	"testing"

	"bump/internal/workload"
)

func TestRunSeedsParallelAndOrdered(t *testing.T) {
	cfg := fastConfig(BaseOpen, workload.WebSearch())
	cfg.MeasureCycles = 300_000
	rs, err := RunSeeds(cfg, []int64{10, 20, 30})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 3 {
		t.Fatalf("results = %d", len(rs))
	}
	// Each seed must be a valid, distinct sample.
	for i, r := range rs {
		if r.MemoryAccesses() == 0 {
			t.Errorf("seed %d: no traffic", i)
		}
	}
	if rs[0].DRAM == rs[1].DRAM && rs[1].DRAM == rs[2].DRAM {
		t.Error("different seeds should differ")
	}
	// Determinism: rerunning a seed reproduces it exactly.
	again, err := RunSeeds(cfg, []int64{20})
	if err != nil {
		t.Fatal(err)
	}
	if again[0].DRAM != rs[1].DRAM {
		t.Error("seed 20 must reproduce exactly")
	}
}

func TestRunSeedsValidates(t *testing.T) {
	cfg := fastConfig(BaseOpen, workload.WebSearch())
	cfg.Cores = 0
	if _, err := RunSeeds(cfg, []int64{1}); err == nil {
		t.Error("invalid config must error")
	}
}

func TestAggregateResults(t *testing.T) {
	cfg := fastConfig(BuMP, workload.WebSearch())
	cfg.MeasureCycles = 300_000
	rs, err := RunSeeds(cfg, []int64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	a := AggregateResults(rs)
	if a.N != 4 {
		t.Errorf("N = %d", a.N)
	}
	if a.RowHitRatio <= 0 || a.IPC <= 0 || a.EPATotal <= 0 {
		t.Error("aggregate means must be positive")
	}
	if a.RowHitRatioCI < 0 || a.IPCCI < 0 {
		t.Error("confidence half-widths must be non-negative")
	}
	// Mean must lie within the per-seed extremes.
	min, max := rs[0].RowHitRatio(), rs[0].RowHitRatio()
	for _, r := range rs[1:] {
		if h := r.RowHitRatio(); h < min {
			min = h
		} else if h > max {
			max = h
		}
	}
	if a.RowHitRatio < min || a.RowHitRatio > max {
		t.Errorf("mean %.3f outside [%.3f, %.3f]", a.RowHitRatio, min, max)
	}
}
