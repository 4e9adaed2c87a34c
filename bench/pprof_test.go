package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"

	"bump/internal/sim"
	"bump/internal/workload"
)

// TestCPUSharesOfRealRun profiles a real simulation and checks that the
// attribution accounts for every sample and finds the simulator's
// busiest layers.
func TestCPUSharesOfRealRun(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	w, _ := workload.ByName("web-search")
	_, err := sim.RunOne(sim.DefaultConfig(sim.BuMP, w))
	pprof.StopCPUProfile()
	if err != nil {
		t.Fatal(err)
	}
	shares, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, s := range shares {
		sum += s
	}
	if math.Abs(sum-1) > 0.01 {
		t.Errorf("shares sum to %v, want 1±0.01: %v", sum, shares)
	}
	for _, l := range []string{"cache", "sim", "event"} {
		if shares["cpu."+l] <= 0 {
			t.Errorf("cpu.%s = %v, want > 0: %v", l, shares["cpu."+l], shares)
		}
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"bump/internal/cache.(*Cache).Lookup":                   "bump/internal/cache",
		"bump/internal/sim.(*System).llcAccess.func1":           "bump/internal/sim",
		"bump/internal/sim/difftest.Run":                        "bump/internal/sim/difftest",
		"runtime.mallocgc":                                      "runtime",
		"sync/atomic.(*Pointer[bump/internal/sim.System]).Load": "sync/atomic",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
