package sim

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"bump/internal/workload"
)

// newFootprintLimit bounds what sim.New allocates for the paper's machine
// (Table II: 16 cores, 32 KB 2-way L1-Ds, a 4 MB 16-way LLC). The caches
// are struct-of-arrays, 9 bytes per line (tag, flag byte) and one 8-byte
// recency word per set, and tables grow with their live entries, so the
// machine needs about 1.0 MB. A fill queue pre-sized to its 65,536-entry
// capacity (2.4 MB) or an 8-byte field per line, such as an LRU stamp
// (0.6 MB), breaks the bound.
const newFootprintLimit = 12 << 20 / 10

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

// warmupCheckpointLimit bounds the warmup-end checkpoint of the paper
// machine (BuMP, web-search, seed 1, 1M-cycle warmup), the checkpoint
// the benchmark's snapshot probe encodes and restores. A resident cache
// line encodes as its flag byte and block, and each set as one recency
// word; an 8-byte LRU stamp per line read 1.34 MB here.
const warmupCheckpointLimit = 850_000

func TestWarmupCheckpointSize(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the paper machine for 1M cycles")
	}
	cfg := DefaultConfig(BuMP, workload.WebSearch())
	cfg.Seed = 1
	cfg.WarmupCycles = 1_000_000
	s := mustNewSys(t, cfg)
	errWarm := errors.New("warm")
	if _, err := s.RunWithHooks(Hooks{AtWarmupEnd: func() error { return errWarm }}); !errors.Is(err, errWarm) {
		t.Fatalf("warmup: %v", err)
	}
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	t.Logf("warmup-end checkpoint: %d bytes", buf.Len())
	if buf.Len() > warmupCheckpointLimit {
		t.Errorf("warmup-end checkpoint is %d bytes, limit %d", buf.Len(), warmupCheckpointLimit)
	}
}
