package sim

import (
	"runtime"
	"testing"

	"bump/internal/workload"
)

// newFootprintLimit bounds what sim.New allocates for the paper's machine
// (Table II: 16 cores, 32 KB 2-way L1-Ds, a 4 MB 16-way LLC). The caches
// are struct-of-arrays, 17 bytes per line (tag, LRU stamp, flag byte),
// and tables grow with their live entries, so the machine needs about
// 1.6 MB. A fill queue pre-sized to its 65,536-entry capacity (2.4 MB)
// or an 8-byte field per line (0.6 MB) breaks the bound.
const newFootprintLimit = 2 << 20

func TestNewFootprint(t *testing.T) {
	for _, m := range Mechanisms() {
		cfg := DefaultConfig(m, workload.WebSearch())
		if _, err := New(cfg); err != nil { // settle one-time package state
			t.Fatal(err)
		}
		const calls = 4
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			if _, err := New(cfg); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		perCall := (after.TotalAlloc - before.TotalAlloc) / calls
		t.Logf("%s: %d bytes per New", m, perCall)
		if perCall > newFootprintLimit {
			t.Errorf("%s: New allocates %d bytes, limit %d", m, perCall, newFootprintLimit)
		}
	}
}

// BenchmarkNew times building the paper's machine with BuMP.
func BenchmarkNew(b *testing.B) {
	cfg := DefaultConfig(BuMP, workload.WebSearch())
	b.ReportAllocs()
	for b.Loop() {
		if _, err := New(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// checkpointGrowthLimit bounds how much a paper-machine checkpoint may
// grow from the 2.2M-cycle cut to the end of the measurement window.
// The load-latency distribution keeps one count per cycle value, so a
// checkpoint follows the machine's state, not the run's length; one that
// kept every sample grew by 0.55 MB over this stretch.
const checkpointGrowthLimit = 64 << 10

func TestCheckpointSizeFollowsState(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the paper machine for 3.4M cycles")
	}
	cfg := DefaultConfig(BuMP, workload.WebSearch())
	s := mustNewSys(t, cfg)
	sizeAt := func(cycle uint64) int {
		if err := s.runTo(cycle, Hooks{}); err != nil {
			t.Fatal(err)
		}
		return len(snapBytes(t, s))
	}
	cut := sizeAt(2_200_000)
	end := sizeAt(cfg.WarmupCycles + cfg.MeasureCycles)
	t.Logf("checkpoint at cycle 2,200,000: %d bytes; at the end of measurement: %d bytes", cut, end)
	if end-cut > checkpointGrowthLimit {
		t.Errorf("checkpoint grew by %d bytes over the measurement tail, limit %d", end-cut, checkpointGrowthLimit)
	}
}
