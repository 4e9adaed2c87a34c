package sim

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"bump/internal/scenario"
	"bump/internal/workload"
)

// testSwapSpec: two tenants swapping data-serving and media-streaming on
// access-count boundaries small enough that a test window crosses many
// of them.
func testSwapSpec() scenario.Spec {
	return scenario.Spec{Name: "test-swap", Tenants: []scenario.Tenant{
		{Name: "a", Cores: scenario.CoreRange{First: 0, Last: 1}, Repeat: true, Phases: []scenario.Phase{
			{Preset: "data-serving", Accesses: 2000},
			{Preset: "media-streaming", Accesses: 1500},
		}},
		{Name: "b", Cores: scenario.CoreRange{First: 2, Last: 3}, Repeat: true, Phases: []scenario.Phase{
			{Preset: "media-streaming", Accesses: 1500},
			{Preset: "data-serving", Accesses: 2000},
		}},
	}}
}

// testBurstSpec mixes duration kinds: a non-repeating steady tenant with
// an open-ended tail, and a task-bounded bursty tenant with load ramps.
func testBurstSpec() scenario.Spec {
	return scenario.Spec{Name: "test-burst", Tenants: []scenario.Tenant{
		{Name: "steady", Cores: scenario.CoreRange{First: 0, Last: 2}, Phases: []scenario.Phase{
			{Preset: "web-search", Accesses: 2500},
			{Preset: "web-serving"},
		}},
		{Name: "burst", Cores: scenario.CoreRange{First: 3, Last: 3}, Repeat: true, Phases: []scenario.Phase{
			{Preset: "web-search", Tasks: 120},
			{Preset: "data-serving", Tasks: 60, WriteScale: 2, LoadScale: 1.5},
		}},
	}}
}

// smallScenarioConfig mirrors smallConfig for scenario-driven runs.
func smallScenarioConfig(m Mechanism, sc scenario.Spec, seed int64) Config {
	cfg := DefaultScenarioConfig(m, sc)
	cfg.Cores = 4
	cfg.L1Bytes = 16 << 10
	cfg.LLCBytes = 256 << 10
	cfg.Seed = seed
	cfg.WarmupCycles = 60_000
	cfg.MeasureCycles = 120_000
	return cfg
}

// TestScenarioSnapshotRestoreBitIdentical is the scenario acceptance
// test: a scenario run checkpointed at an arbitrary mid-phase cycle and
// restored produces bit-identical results — and bit-identical final
// machine state — to the uninterrupted run, across two scenarios and
// randomized split points in the warmup, at the boundary, and in the
// measurement window.
func TestScenarioSnapshotRestoreBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("differential snapshot test is not short")
	}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"bump/test-swap", smallScenarioConfig(BuMP, testSwapSpec(), 1)},
		{"sms+vwq/test-burst", smallScenarioConfig(SMSVWQ, testBurstSpec(), 2)},
	}
	rng := rand.New(rand.NewSource(1234))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			total := tc.cfg.WarmupCycles + tc.cfg.MeasureCycles

			ref := mustNewSys(t, tc.cfg)
			refRes, err := ref.RunWithHooks(Hooks{})
			if err != nil {
				t.Fatal(err)
			}
			refFinal := snapBytes(t, ref)

			splits := []uint64{
				uint64(rng.Int63n(int64(tc.cfg.WarmupCycles))),
				tc.cfg.WarmupCycles,
				tc.cfg.WarmupCycles + uint64(rng.Int63n(int64(tc.cfg.MeasureCycles-1))) + 1,
			}
			for _, split := range splits {
				if split >= total {
					split = total - 1
				}
				data := runSplit(t, tc.cfg, split, 1+uint64(rng.Int63n(5000)))

				restored := mustNewSys(t, tc.cfg)
				if err := restored.Restore(bytes.NewReader(data)); err != nil {
					t.Fatalf("split %d: restore: %v", split, err)
				}
				res, err := restored.RunWithHooks(Hooks{})
				if err != nil {
					t.Fatalf("split %d: continue: %v", split, err)
				}
				if !reflect.DeepEqual(res, refRes) {
					t.Fatalf("split %d: restored scenario result diverges:\n got %+v\nwant %+v", split, res, refRes)
				}
				if final := snapBytes(t, restored); !bytes.Equal(final, refFinal) {
					t.Fatalf("split %d: final machine state diverges from uninterrupted scenario run", split)
				}
			}
		})
	}
}

// TestScenarioRestoreRejectsSpecChanges: the structural digest covers
// the scenario spec, so a checkpoint can never restore under a modified
// scenario — a tweaked duration, ramp, preset or tenant layout.
func TestScenarioRestoreRejectsSpecChanges(t *testing.T) {
	cfg := smallScenarioConfig(BuMP, testSwapSpec(), 3)
	data := runSplit(t, cfg, cfg.WarmupCycles/2, 4096)

	variants := map[string]func(*scenario.Spec){
		"duration": func(s *scenario.Spec) { s.Tenants[0].Phases[0].Accesses = 2001 },
		"preset":   func(s *scenario.Spec) { s.Tenants[0].Phases[1].Preset = "web-search" },
		"ramp":     func(s *scenario.Spec) { s.Tenants[1].Phases[0].WorkScale = 1.25 },
		"layout": func(s *scenario.Spec) {
			s.Tenants[0].Cores.Last = 2
			s.Tenants[1].Cores.First = 3
		},
		"name": func(s *scenario.Spec) { s.Name = "renamed" },
	}
	for name, mutate := range variants {
		sc := testSwapSpec()
		mutate(&sc)
		bad := smallScenarioConfig(BuMP, sc, 3)
		s := mustNewSys(t, bad)
		if err := s.Restore(bytes.NewReader(data)); err == nil {
			t.Errorf("scenario variant %q accepted a foreign checkpoint", name)
		}
	}
	// The unmodified scenario still restores.
	s := mustNewSys(t, cfg)
	if err := s.Restore(bytes.NewReader(runSplit(t, cfg, cfg.WarmupCycles/2, 4096))); err != nil {
		t.Fatalf("identical scenario rejected: %v", err)
	}
}

// TestScenarioWarmSweepOneWarmup is the warmed-sweep acceptance for
// scenarios: a multi-point sweep over a measured parameter under a
// scenario simulates exactly one warmup, and the canonical point is
// bit-identical to its cold run.
func TestScenarioWarmSweepOneWarmup(t *testing.T) {
	cfg := smallScenarioConfig(BuMP, testSwapSpec(), 5)
	cold, err := RunOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWarmStore(4)
	const points = 5
	results := make([]Result, points)
	for i := 0; i < points; i++ {
		c := cfg
		c.MaxRowHitStreak = i
		if results[i], err = ws.Run(c); err != nil {
			t.Fatal(err)
		}
	}
	st := ws.Stats()
	if st.Misses != 1 || st.Hits != points-1 || st.Skipped != 0 {
		t.Fatalf("scenario warm sweep: %+v, want 1 miss / %d hits / 0 skipped", st, points-1)
	}
	if st.WarmupCyclesSimulated != cfg.WarmupCycles {
		t.Fatalf("simulated %d warmup cycles, want exactly one warmup (%d)", st.WarmupCyclesSimulated, cfg.WarmupCycles)
	}
	if !reflect.DeepEqual(results[0], cold) {
		t.Fatal("canonical scenario point diverges from cold run")
	}
}

// TestScenarioConfigValidation: the scenario/workload exclusivity rule,
// the core-range check, and the workload label.
func TestScenarioConfigValidation(t *testing.T) {
	cfg := smallScenarioConfig(BuMP, testSwapSpec(), 1)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("valid scenario config rejected: %v", err)
	}
	if got := cfg.WorkloadLabel(); got != "scenario:test-swap" {
		t.Errorf("WorkloadLabel = %q", got)
	}

	withWorkload := cfg
	withWorkload.Workload = workload.WebSearch()
	if withWorkload.Validate() == nil {
		t.Error("scenario config with a non-zero Workload accepted")
	}
	tooFewCores := cfg
	tooFewCores.Cores = 2 // spec claims cores 0-3
	if tooFewCores.Validate() == nil {
		t.Error("scenario exceeding the core count accepted")
	}

	// Scenario results are labelled with the scenario name.
	res, err := RunOne(Config{}) // invalid, must error not panic
	_ = res
	if err == nil {
		t.Error("zero config accepted")
	}
}
