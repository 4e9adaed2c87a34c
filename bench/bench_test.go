package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is the part of ../BENCHMARK.json the harness must agree
// with.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesHarness checks that BENCHMARK.json lists the
// harness's workloads, metrics, units, directions, bounds and run length.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkFile
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, harness default %d", spec.RunSeconds, defaultSeconds)
	}
	var got, want []string
	for _, w := range spec.Workloads {
		got = append(got, w.Name+": "+w.Why)
	}
	for _, w := range workloads {
		want = append(want, w.name+": "+w.why)
	}
	assertSame(t, "workloads", got, want)

	got, want = nil, nil
	for _, m := range spec.EndToEnd {
		got = append(got, strings.Join([]string{m.Name, m.Unit, m.Better, fmt.Sprint(m.Bound)}, " "))
	}
	for _, d := range endToEnd {
		want = append(want, strings.Join([]string{d.name, d.unit, d.better, fmt.Sprint(d.bound)}, " "))
	}
	assertSame(t, "end_to_end", got, want)

	got, want = nil, nil
	for _, m := range spec.PerLayer {
		got = append(got, m.Name+" "+m.Unit+" "+m.Better)
	}
	for _, d := range perLayer {
		want = append(want, d.name+" "+d.unit+" "+d.better)
	}
	assertSame(t, "per_layer", got, want)
}

// TestSmoke runs all four workloads, untraced and traced, at tiny
// windows: every check passes, both sweeps produce the same results,
// and the emitted metric names are exactly those of BENCHMARK.json.
func TestSmoke(t *testing.T) {
	start := time.Now()
	digests := make(map[string]string)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			t0 := time.Now()
			res := runWorkload(w, runOpts{
				env:       env{seed: 3, scale: tinyScale, workdir: t.TempDir()},
				traced:    traced,
				setupReps: 1,
			})
			t.Logf("%s (traced %v): %v", w.name, traced, time.Since(t0))
			if !res.Correct {
				t.Fatalf("%s (traced %v): %d of %d checks failed: %v", w.name, traced, res.Failed, res.Attempted, res.Errors)
			}
			if !traced {
				digests[w.name] = res.Digest
				assertSame(t, w.name+" end-to-end", keys(res.EndToEnd), names(endToEnd))
				for name, m := range res.EndToEnd {
					if !(m.Value > 0) {
						t.Errorf("%s: %s = %v, want > 0", w.name, name, m.Value)
					}
				}
				continue
			}
			assertSame(t, w.name+" per-layer", keys(res.PerLayer), names(perLayer))
			var sum float64
			for name, m := range res.PerLayer {
				if strings.HasPrefix(name, "cpu.") {
					sum += m.Value
				}
			}
			// A tiny pass may finish before the profiler's first tick.
			if sum != 0 && math.Abs(sum-1) > 0.01 {
				t.Errorf("%s: cpu shares sum to %v", w.name, sum)
			}
			// sweep-pool runs the service package's pool, so only the
			// other fleet layers must be idle there.
			fleetLayers := []string{"wire", "cluster", "wal", "blob"}
			if !strings.HasPrefix(w.name, "sweep-") {
				fleetLayers = append(fleetLayers, "service")
			}
			if w.name != "sweep-fleet" {
				for _, l := range fleetLayers {
					if v := res.PerLayer["cpu."+l].Value; v != 0 {
						t.Errorf("%s: cpu.%s = %v, want 0 outside sweep-fleet", w.name, l, v)
					}
				}
			}
			if !strings.HasPrefix(w.name, "sweep-") {
				if v := res.PerLayer["cpu.snapshot"].Value; v != 0 {
					t.Errorf("%s: cpu.snapshot = %v, want 0 outside the sweeps", w.name, v)
				}
			}
		}
	}
	if digests["sweep-pool"] != digests["sweep-fleet"] {
		t.Errorf("sweep-fleet digest %s differs from sweep-pool digest %s", digests["sweep-fleet"], digests["sweep-pool"])
	}
	t.Logf("smoke run took %v", time.Since(start))
}

func assertSame(t *testing.T, what string, got, want []string) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s differ:\n got %q\nwant %q", what, got, want)
	}
}

// keys returns m's keys, sorted.
func keys[V any](m map[string]V) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// names returns the defined metric names, sorted.
func names(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.name)
	}
	sort.Strings(out)
	return out
}
