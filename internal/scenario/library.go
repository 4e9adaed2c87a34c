package scenario

import (
	"fmt"
	"sort"
	"strings"
)

// The built-in scenario library: the consolidation patterns the ROADMAP's
// "as many scenarios as you can imagine" axis starts from. Each builder
// takes the core count so the same scenario scales from the 2-core test
// configurations to the paper's 16-core CMP (and beyond).

// split halves the core range: [0, mid-1] and [mid, cores-1].
func split(cores int) int {
	mid := cores / 2
	if mid == 0 {
		mid = 1
	}
	return mid
}

// Consolidated is the basic colocation scenario: the front half of the
// cores serve a NoSQL store (data-serving) while the back half stream
// media — two stationary tenants with sharply different density profiles
// contending for the LLC, memory controllers and DRAM banks.
func Consolidated(cores int) Spec {
	if cores < 2 {
		return Spec{Name: "consolidated", Tenants: []Tenant{{
			Name: "data", Cores: CoreRange{0, cores - 1},
			Phases: []Phase{{Preset: "data-serving"}},
		}}}
	}
	mid := split(cores)
	return Spec{Name: "consolidated", Tenants: []Tenant{
		{Name: "data", Cores: CoreRange{0, mid - 1},
			Phases: []Phase{{Preset: "data-serving"}}},
		{Name: "media", Cores: CoreRange{mid, cores - 1},
			Phases: []Phase{{Preset: "media-streaming"}}},
	}}
}

// DiurnalShift models a web tier's daily load cycle on every core:
// trough (half the open tasks, longer compute gaps), shoulder (the
// preset as published), and peak (double load, compressed gaps),
// repeating. Predictors and row-buffer locality must survive the load
// swings rather than train once on a stationary mix.
func DiurnalShift(cores int) Spec {
	return Spec{Name: "diurnal-shift", Tenants: []Tenant{{
		Name: "web", Cores: CoreRange{0, cores - 1}, Repeat: true,
		Phases: []Phase{
			{Preset: "web-serving", Accesses: 60_000, LoadScale: 0.5, WorkScale: 1.5},
			{Preset: "web-serving", Accesses: 60_000},
			{Preset: "web-serving", Accesses: 60_000, LoadScale: 2, WorkScale: 0.6},
		},
	}}}
}

// PhaseSwap colocates data-serving and media-streaming and swaps the
// halves at every phase boundary: the access patterns each predictor
// trained on migrate to the other cores, stressing the code↔data
// correlation tables exactly where the paper's coverage bounds live
// (Figs. 5 and 8).
func PhaseSwap(cores int) Spec {
	if cores < 2 {
		return Spec{Name: "phase-swap", Tenants: []Tenant{{
			Name: "front", Cores: CoreRange{0, cores - 1}, Repeat: true,
			Phases: []Phase{
				{Preset: "data-serving", Accesses: 50_000},
				{Preset: "media-streaming", Accesses: 50_000},
			},
		}}}
	}
	mid := split(cores)
	return Spec{Name: "phase-swap", Tenants: []Tenant{
		{Name: "front", Cores: CoreRange{0, mid - 1}, Repeat: true,
			Phases: []Phase{
				{Preset: "data-serving", Accesses: 50_000},
				{Preset: "media-streaming", Accesses: 50_000},
			}},
		{Name: "back", Cores: CoreRange{mid, cores - 1}, Repeat: true,
			Phases: []Phase{
				{Preset: "media-streaming", Accesses: 50_000},
				{Preset: "data-serving", Accesses: 50_000},
			}},
	}}
}

// BurstyWriter keeps most cores on steady read-dominated web-search
// while one quarter of the CMP alternates (on task-count boundaries)
// between that background and short write-amplified data-serving bursts
// — the log-flush/compaction pattern that stresses the dirty-region
// table and eager-writeback paths.
func BurstyWriter(cores int) Spec {
	if cores < 2 {
		return Spec{Name: "bursty-writer", Tenants: []Tenant{{
			Name: "burst", Cores: CoreRange{0, cores - 1}, Repeat: true,
			Phases: []Phase{
				{Preset: "web-search", Tasks: 400},
				{Preset: "data-serving", Tasks: 120, WriteScale: 3, LoadScale: 1.5},
			},
		}}}
	}
	burst := cores / 4
	if burst == 0 {
		burst = 1
	}
	steadyLast := cores - burst - 1
	return Spec{Name: "bursty-writer", Tenants: []Tenant{
		{Name: "steady", Cores: CoreRange{0, steadyLast},
			Phases: []Phase{{Preset: "web-search"}}},
		{Name: "burst", Cores: CoreRange{steadyLast + 1, cores - 1}, Repeat: true,
			Phases: []Phase{
				{Preset: "web-search", Tasks: 400},
				{Preset: "data-serving", Tasks: 120, WriteScale: 3, LoadScale: 1.5},
			}},
	}}
}

// builtins maps library names to their builders.
var builtins = map[string]func(cores int) Spec{
	"consolidated":  Consolidated,
	"diurnal-shift": DiurnalShift,
	"phase-swap":    PhaseSwap,
	"bursty-writer": BurstyWriter,
}

// Library returns the built-in scenario names, sorted.
func Library() []string {
	names := make([]string, 0, len(builtins))
	for n := range builtins {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ByName builds a built-in scenario for the given core count.
func ByName(name string, cores int) (Spec, bool) {
	b, ok := builtins[name]
	if !ok {
		return Spec{}, false
	}
	return b(cores), true
}

// Known reports whether name is a built-in scenario (as opposed to a
// spec file path).
func Known(name string) bool {
	_, ok := builtins[name]
	return ok
}

// Resolve is the CLI-facing resolution rule shared by bumpsim, sweep
// and figures: a built-in scenario name wins, anything else is treated
// as a JSON spec file path. The error for a
// string that is neither names the library so a typoed built-in does
// not surface as a bare file-not-found.
func Resolve(nameOrPath string, cores int) (Spec, error) {
	if sc, ok := ByName(nameOrPath, cores); ok {
		return sc, nil
	}
	sc, err := Load(nameOrPath)
	if err != nil {
		return Spec{}, fmt.Errorf("scenario: %q is neither a known scenario name (have: %s) nor a readable spec file: %w",
			nameOrPath, strings.Join(Library(), ", "), err)
	}
	return sc, nil
}
