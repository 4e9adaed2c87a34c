package service

import (
	"context"
	"net/http/httptest"
	"testing"

	"bump/internal/scenario"
)

// scenarioFixture is a scenario job with short windows: the built-in
// phase-swap resolved by name at submit time.
func scenarioFixture() JobSpec {
	return JobSpec{
		Scenario:      "phase-swap",
		Mechanism:     "bump",
		WarmupCycles:  20_000,
		MeasureCycles: 40_000,
	}
}

func TestScenarioSpecResolution(t *testing.T) {
	cfg, err := scenarioFixture().Config()
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.Scenario.Enabled() || cfg.Scenario.Name != "phase-swap" {
		t.Fatalf("scenario not resolved: %+v", cfg.Scenario)
	}
	if cfg.Workload.Name != "" {
		t.Errorf("scenario config carries workload %q", cfg.Workload.Name)
	}

	bad := scenarioFixture()
	bad.Workload = "web-search"
	if _, err := bad.Config(); err == nil {
		t.Error("workload+scenario spec accepted")
	}
	unknown := scenarioFixture()
	unknown.Scenario = "no-such"
	if _, err := unknown.Config(); err == nil {
		t.Error("unknown scenario resolved")
	}

	// An inline spec wins over (and works without) a name.
	inline := JobSpec{Mechanism: "bump", ScenarioSpec: scenario.DiurnalShift(16)}
	cfg, err = inline.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Scenario.Name != "diurnal-shift" {
		t.Fatalf("inline scenario not used: %+v", cfg.Scenario.Name)
	}
}

// TestScenarioHashing: the config hash covers the scenario spec
// canonically — equal scenarios hash equal (by name or inline), any
// field tweak separates, and scenarios never collide with stationary
// workloads.
func TestScenarioHashing(t *testing.T) {
	byName := mustHash(t, scenarioFixture())
	if byName != mustHash(t, scenarioFixture()) {
		t.Fatal("identical scenario specs hash differently")
	}

	// The same scenario submitted inline hashes identically to the
	// name-resolved one (both resolve to the same sim.Config), so
	// clients coalesce however they spell the scenario.
	inline := scenarioFixture()
	inline.Scenario = ""
	inline.ScenarioSpec = scenario.PhaseSwap(16)
	if mustHash(t, inline) != byName {
		t.Error("inline spec of the same scenario hashes differently from its name form")
	}

	tweaked := inline
	tweaked.ScenarioSpec.Tenants[0].Phases[0].Accesses++
	if mustHash(t, tweaked) == byName {
		t.Error("duration tweak did not change the hash")
	}
	ramped := scenarioFixture()
	ramped.Scenario = "diurnal-shift"
	if mustHash(t, ramped) == byName {
		t.Error("different scenarios hash equal")
	}
	wl := specFixture()
	wl.WarmupCycles = scenarioFixture().WarmupCycles
	wl.MeasureCycles = scenarioFixture().MeasureCycles
	if mustHash(t, wl) == byName {
		t.Error("scenario and workload configs hash equal")
	}
}

// TestScenarioWarmSweepThroughPool is the CLI acceptance path in
// miniature: sweep -scenario ... submits N points differing only
// in a measured parameter; the pool must simulate exactly one warmup.
func TestScenarioWarmSweepThroughPool(t *testing.T) {
	p := newTestPool(t, Options{Workers: 4, WarmStarts: true})
	const points = 4
	base := scenarioFixture()
	ids := make([]string, points)
	for i := 0; i < points; i++ {
		spec := base
		spec.MaxRowHitStreak = i
		st, err := p.Submit(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = st.ID
	}
	for _, id := range ids {
		st, err := p.Watch(context.Background(), id, nil)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateDone {
			t.Fatalf("job %s: %s (%s)", id, st.State, st.Error)
		}
	}
	st := p.Stats()
	if st.Warm.Misses != 1 || st.Warm.Hits != points-1 || st.Warm.Skipped != 0 {
		t.Fatalf("scenario warm sweep: %+v, want 1 miss / %d hits / 0 skipped", st.Warm, points-1)
	}
	if st.Warm.WarmupCyclesSimulated != base.WarmupCycles {
		t.Errorf("simulated %d warmup cycles, want exactly one (%d)", st.Warm.WarmupCyclesSimulated, base.WarmupCycles)
	}
}

// TestScenarioJobOverHTTP: an inline scenario spec survives the HTTP
// wire format end to end and coalesces with its duplicate.
func TestScenarioJobOverHTTP(t *testing.T) {
	p := newTestPool(t, Options{Workers: 2})
	srv := httptest.NewServer(NewHandler(p))
	defer srv.Close()
	client := NewClient(srv.URL)

	spec := JobSpec{
		Mechanism:     "bump",
		ScenarioSpec:  scenario.Consolidated(16),
		WarmupCycles:  15_000,
		MeasureCycles: 30_000,
	}
	st, err := client.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	fin, err := client.Watch(context.Background(), st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StateDone || fin.Result == nil {
		t.Fatalf("scenario job over HTTP: %s (%s)", fin.State, fin.Error)
	}
	if fin.Result.Workload != "scenario:consolidated" {
		t.Errorf("result labelled %q", fin.Result.Workload)
	}
	// A resubmission hits the result cache by config hash.
	again, err := client.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !again.State.Terminal() || !again.Cached {
		t.Errorf("duplicate scenario submission not served from cache: %+v", again.State)
	}
}
