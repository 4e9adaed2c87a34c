package scenario

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"bump/internal/workload"
)

// twoTenant is a small valid spec used across the tests.
func twoTenant() Spec {
	return Spec{Name: "t", Tenants: []Tenant{
		{Name: "a", Cores: CoreRange{0, 1}, Repeat: true, Phases: []Phase{
			{Preset: "data-serving", Accesses: 5000},
			{Preset: "media-streaming", Accesses: 5000},
		}},
		{Name: "b", Cores: CoreRange{2, 3}, Phases: []Phase{
			{Preset: "web-search", Accesses: 4000},
			{Preset: "web-serving"},
		}},
	}}
}

func TestScenarioSpecValidates(t *testing.T) {
	if err := twoTenant().Validate(4); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	// Spec-only validation (unknown core count).
	if err := twoTenant().Validate(0); err != nil {
		t.Fatalf("spec-only validation rejected: %v", err)
	}
}

func TestScenarioValidateRejects(t *testing.T) {
	cases := map[string]struct {
		mut   func(*Spec)
		cores int
	}{
		"no tenants":      {func(s *Spec) { s.Tenants = nil }, 4},
		"no name":         {func(s *Spec) { s.Name = "" }, 4},
		"unknown preset":  {func(s *Spec) { s.Tenants[0].Phases[0].Preset = "no-such" }, 4},
		"overlap":         {func(s *Spec) { s.Tenants[1].Cores.First = 1 }, 4},
		"gap":             {func(s *Spec) { s.Tenants[1].Cores.First = 3 }, 4},
		"range past end":  {func(s *Spec) { s.Tenants[1].Cores.Last = 4 }, 4},
		"inverted range":  {func(s *Spec) { s.Tenants[0].Cores = CoreRange{1, 0} }, 4},
		"no phases":       {func(s *Spec) { s.Tenants[0].Phases = nil }, 4},
		"both durations":  {func(s *Spec) { s.Tenants[0].Phases[0].Tasks = 10 }, 4},
		"repeat unbound":  {func(s *Spec) { s.Tenants[0].Phases[1].Accesses = 0 }, 4},
		"mid open-ended":  {func(s *Spec) { s.Tenants[1].Phases[0].Accesses = 0 }, 4},
		"final bounded":   {func(s *Spec) { s.Tenants[1].Phases[1].Accesses = 100 }, 4},
		"scale too big":   {func(s *Spec) { s.Tenants[0].Phases[0].LoadScale = 64 }, 4},
		"scale too small": {func(s *Spec) { s.Tenants[0].Phases[0].WorkScale = 0.01 }, 4},
		"preset and inline": {func(s *Spec) {
			s.Tenants[0].Phases[0].Inline = workload.WebSearch()
		}, 4},
		"bad resolved params": {func(s *Spec) {
			// Inline params that fail workload validation.
			s.Tenants[0].Phases[0].Preset = ""
			s.Tenants[0].Phases[0].Inline = workload.Params{Name: "broken"}
		}, 4},
	}
	for name, tc := range cases {
		s := twoTenant()
		tc.mut(&s)
		if err := s.Validate(tc.cores); err == nil {
			t.Errorf("%s: invalid spec accepted", name)
		}
	}
}

func TestScenarioPhaseRamps(t *testing.T) {
	base, _ := workload.ByName("web-serving")
	ph := Phase{Preset: "web-serving", LoadScale: 2, WorkScale: 0.5, WriteScale: 2}
	p, err := ph.Params()
	if err != nil {
		t.Fatal(err)
	}
	if p.OpenTasks != base.OpenTasks*2 {
		t.Errorf("OpenTasks %d, want %d", p.OpenTasks, base.OpenTasks*2)
	}
	if p.WorkMin != scaleInt(base.WorkMin, 0.5) || p.ChaseWorkMax != scaleInt(base.ChaseWorkMax, 0.5) {
		t.Error("WorkScale not applied to the work-gap bounds")
	}
	if p.WriteBurstWeight != base.WriteBurstWeight*2 || p.SparseWriteWeight != base.SparseWriteWeight*2 {
		t.Error("WriteScale not applied to the write weights")
	}
	if p.ScanWeight != base.ScanWeight || p.ChaseWeight != base.ChaseWeight {
		t.Error("WriteScale leaked into read weights")
	}

	// A hard downscale never zeroes a structural parameter.
	hard := Phase{Preset: "web-serving", LoadScale: 1.0 / 16}
	p, err = hard.Params()
	if err != nil {
		t.Fatal(err)
	}
	if p.OpenTasks < 1 {
		t.Errorf("LoadScale 1/16 produced OpenTasks %d", p.OpenTasks)
	}
}

func TestScenarioJSONRoundTrip(t *testing.T) {
	s := twoTenant()
	s.Tenants[0].Phases[0].LoadScale = 1.5
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	aj, _ := json.Marshal(s)
	bj, _ := json.Marshal(back)
	if string(aj) != string(bj) {
		t.Fatalf("round trip changed the spec:\n%s\nvs\n%s", aj, bj)
	}
	// Inline params stay out of the wire format when unused.
	if strings.Contains(string(data), "inline") {
		t.Errorf("preset-only spec serialised inline params:\n%s", data)
	}
}

func TestScenarioParseRejectsUnknownFields(t *testing.T) {
	if _, err := Parse([]byte(`{"name":"x","tenants":[],"typo":1}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := Parse([]byte(`{"name":"x","tenants":[]} trailing`)); err == nil {
		t.Fatal("trailing data accepted")
	}
}

func TestScenarioLibrary(t *testing.T) {
	names := Library()
	want := []string{"bursty-writer", "consolidated", "diurnal-shift", "phase-swap"}
	if len(names) != len(want) {
		t.Fatalf("library %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("library %v, want %v", names, want)
		}
	}
	// Every built-in validates at the paper's 16 cores and at the
	// 2-core test configurations.
	for _, cores := range []int{2, 16, 5} {
		for _, name := range names {
			sc, ok := ByName(name, cores)
			if !ok {
				t.Fatalf("ByName(%q) failed", name)
			}
			if sc.Name != name {
				t.Errorf("ByName(%q) returned %q", name, sc.Name)
			}
			if err := sc.Validate(cores); err != nil {
				t.Errorf("%s at %d cores: %v", name, cores, err)
			}
		}
	}
	if _, ok := ByName("no-such", 16); ok {
		t.Error("unknown scenario resolved")
	}
}

// TestScenarioResolve: the shared CLI resolution rule — built-in names
// win, other strings are spec file paths, and a typo reports the
// library rather than a bare file error.
func TestScenarioResolve(t *testing.T) {
	sc, err := Resolve("phase-swap", 8)
	if err != nil || sc.Name != "phase-swap" {
		t.Fatalf("built-in not resolved: %v", err)
	}
	sc, err = Resolve("../../testdata/scenarios/tidal-colocation.json", 16)
	if err != nil || sc.Name != "tidal-colocation" {
		t.Fatalf("spec file not resolved: %v", err)
	}
	_, err = Resolve("phase-sawp", 16)
	if err == nil {
		t.Fatal("typo resolved")
	}
	if !strings.Contains(err.Error(), "phase-swap") {
		t.Errorf("typo error does not name the library: %v", err)
	}
	if !Known("phase-swap") || Known("phase-sawp") {
		t.Error("Known misclassifies")
	}
}

// TestScenarioFilesLoad keeps the committed example spec files honest:
// they parse, validate at 16 cores, and the phase-swap reference file
// stays in sync with the built-in it documents.
func TestScenarioFilesLoad(t *testing.T) {
	dir := "../../testdata/scenarios"
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no committed scenario files")
	}
	for _, e := range entries {
		sc, err := Load(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Errorf("%s: %v", e.Name(), err)
			continue
		}
		if err := sc.Validate(16); err != nil {
			t.Errorf("%s: %v", e.Name(), err)
		}
	}
	ref, err := Load(filepath.Join(dir, "phase-swap-16.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, PhaseSwap(16)) {
		t.Error("phase-swap-16.json drifted from the built-in PhaseSwap(16)")
	}
}

func TestScenarioTimelineFor(t *testing.T) {
	s := twoTenant()
	tl, err := s.TimelineFor(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tl.Phases) != 2 || tl.Repeat {
		t.Fatalf("core 2 timeline %+v", tl)
	}
	if tl.Phases[0].Params.Name != "web-search" {
		t.Errorf("core 2 phase 0 runs %s", tl.Phases[0].Params.Name)
	}
	if _, err := s.TimelineFor(7); err == nil {
		t.Error("uncovered core resolved a timeline")
	}
}
