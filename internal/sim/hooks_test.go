package sim

import (
	"errors"
	"testing"

	"bump/internal/workload"
)

func TestRunWithHooksProgressAndEquivalence(t *testing.T) {
	cfg := fastConfig(BuMP, workload.WebSearch())
	plain, err := RunOne(cfg)
	if err != nil {
		t.Fatal(err)
	}

	var snaps []Progress
	hooked, err := RunOneWithHooks(cfg, Hooks{
		Interval: 50_000,
		Progress: func(p Progress) { snaps = append(snaps, p) },
	})
	if err != nil {
		t.Fatal(err)
	}
	// Chunked execution must not perturb the simulation.
	if hooked.DRAM != plain.DRAM || hooked.Counters != plain.Counters {
		t.Error("hooked run diverged from plain run")
	}
	total := cfg.WarmupCycles + cfg.MeasureCycles
	if len(snaps) != int(total/50_000) {
		t.Errorf("%d progress snapshots, want %d", len(snaps), total/50_000)
	}
	for i, p := range snaps {
		if p.TotalCycles != total {
			t.Errorf("snapshot %d total %d, want %d", i, p.TotalCycles, total)
		}
		if i > 0 && (p.Cycle <= snaps[i-1].Cycle || p.Events < snaps[i-1].Events) {
			t.Errorf("snapshot %d not monotonic", i)
		}
	}
	final := snaps[len(snaps)-1]
	if final.Cycle != total || !final.Measuring || final.Instructions == 0 {
		t.Errorf("final snapshot %+v", final)
	}
}

func TestRunWithHooksCancel(t *testing.T) {
	cfg := fastConfig(BuMP, workload.WebSearch())
	var polls int
	_, err := RunOneWithHooks(cfg, Hooks{
		Interval: 10_000,
		Cancel:   func() bool { polls++; return polls >= 3 },
	})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled run returned %v, want ErrCanceled", err)
	}
	if polls != 3 {
		t.Errorf("cancel polled %d times, want 3", polls)
	}
}
