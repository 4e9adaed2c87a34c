package sim

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"

	"bump/internal/scenario"
	"bump/internal/workload"
)

// The golden-state regression corpus: canonical warmup-end checkpoints
// and full-run results for five seed configurations, committed under
// testdata/golden/. Any change that perturbs simulator state — event
// ordering, counter accounting, predictor behaviour, RNG consumption —
// fails this test loudly at the byte level, which is a far stronger
// drift guard than output-level determinism checks.
//
// To regenerate after an *intentional* behaviour or format change:
//
//	go test ./internal/sim -run TestGoldenState -update
//
// and bump snapshot.FormatVersion if the byte layout changed.
var updateGolden = flag.Bool("update", false, "regenerate the golden-state corpus")

const goldenDir = "../../testdata/golden"

type goldenCase struct {
	name string
	cfg  Config
}

func goldenCases() []goldenCase {
	return []goldenCase{
		{"bump-web-search", smallGolden(BuMP, workload.WebSearch(), 1)},
		{"sms-vwq-data-serving", smallGolden(SMSVWQ, workload.DataServing(), 2)},
		{"base-close-online-analytics", smallGolden(BaseClose, workload.OnlineAnalytics(), 3)},
		{"bump-scenario-swap", scenarioGolden(4)},
		{"base-open-profiled-web-serving", profiledConfig(smallGolden(BaseOpen, workload.WebServing(), 5))},
	}
}

// profiledConfig turns cfg into a characterisation run: no prefetcher,
// region-density profiler attached. The golden corpus thereby pins the
// profiler's counters and its checkpoint section.
func profiledConfig(cfg Config) Config {
	cfg.DisablePrefetcher = true
	cfg.Profile = true
	return cfg
}

// scenarioGolden drives the golden corpus' scenario entry: a two-core
// phase-swap with boundaries small enough that the warmup and
// measurement windows cross several of them, plus a task-bounded
// write-amplified phase on core 1.
func scenarioGolden(seed int64) Config {
	sc := scenario.Spec{Name: "golden-swap", Tenants: []scenario.Tenant{
		{Name: "swap", Cores: scenario.CoreRange{First: 0, Last: 0}, Repeat: true, Phases: []scenario.Phase{
			{Preset: "data-serving", Accesses: 1500},
			{Preset: "media-streaming", Accesses: 1000},
		}},
		{Name: "burst", Cores: scenario.CoreRange{First: 1, Last: 1}, Repeat: true, Phases: []scenario.Phase{
			{Preset: "web-search", Tasks: 80},
			{Preset: "data-serving", Tasks: 40, WriteScale: 2, LoadScale: 1.5},
		}},
	}}
	cfg := DefaultScenarioConfig(BuMP, sc)
	cfg.Cores = 2
	cfg.L1Bytes = 8 << 10
	cfg.LLCBytes = 128 << 10
	cfg.Seed = seed
	cfg.WarmupCycles = 40_000
	cfg.MeasureCycles = 80_000
	return cfg
}

// smallGolden keeps committed checkpoints small (a few hundred KB of
// state, tens of KB gzipped) while covering the predictor, SMS, VWQ,
// stride and close-row paths across the three cases.
func smallGolden(m Mechanism, w workload.Params, seed int64) Config {
	cfg := DefaultConfig(m, w)
	cfg.Cores = 2
	cfg.L1Bytes = 8 << 10
	cfg.LLCBytes = 128 << 10
	cfg.Seed = seed
	cfg.WarmupCycles = 40_000
	cfg.MeasureCycles = 80_000
	return cfg
}

// runGolden produces the case's warmup-end checkpoint and final result.
func runGolden(t *testing.T, cfg Config) ([]byte, Result) {
	t.Helper()
	s := mustNewSys(t, cfg)
	var ck bytes.Buffer
	res, err := s.RunWithHooks(Hooks{AtWarmupEnd: func() error { return s.Snapshot(&ck) }})
	if err != nil {
		t.Fatal(err)
	}
	return ck.Bytes(), res
}

func goldenPaths(name string) (snapPath, resultPath string) {
	return filepath.Join(goldenDir, name+".snap.gz"),
		filepath.Join(goldenDir, name+".result.json")
}

func marshalResult(t *testing.T, res Result) []byte {
	t.Helper()
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

func TestGoldenState(t *testing.T) {
	for _, gc := range goldenCases() {
		t.Run(gc.name, func(t *testing.T) {
			snap, res := runGolden(t, gc.cfg)
			resJSON := marshalResult(t, res)
			snapPath, resultPath := goldenPaths(gc.name)

			if *updateGolden {
				if err := os.MkdirAll(goldenDir, 0o755); err != nil {
					t.Fatal(err)
				}
				var gz bytes.Buffer
				zw, _ := gzip.NewWriterLevel(&gz, gzip.BestCompression)
				if _, err := zw.Write(snap); err != nil {
					t.Fatal(err)
				}
				if err := zw.Close(); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(snapPath, gz.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(resultPath, resJSON, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("regenerated %s (%d bytes state, %d gz)", gc.name, len(snap), gz.Len())
				return
			}

			wantSnap := readGoldenSnap(t, snapPath)
			if !bytes.Equal(snap, wantSnap) {
				t.Errorf("%s: warmup-end machine state diverges from the committed golden checkpoint (%d vs %d bytes).\n"+
					"This PR changed simulator state evolution. If intentional, regenerate with:\n"+
					"  go test ./internal/sim -run TestGoldenState -update\n"+
					"and bump snapshot.FormatVersion if the byte layout changed.",
					gc.name, len(snap), len(wantSnap))
			}
			wantJSON, err := os.ReadFile(resultPath)
			if err != nil {
				t.Fatalf("missing golden result (run with -update to create): %v", err)
			}
			if !bytes.Equal(resJSON, wantJSON) {
				t.Errorf("%s: full-run result diverges from the committed golden result.\ngot:\n%s\nwant:\n%s",
					gc.name, resJSON, wantJSON)
			}
		})
	}
}

// TestGoldenCheckpointsRestorable: the committed checkpoints must load
// into freshly built systems and resume to the committed results —
// guarding the decode path (not just the encode path) against drift.
func TestGoldenCheckpointsRestorable(t *testing.T) {
	if *updateGolden {
		t.Skip("regenerating")
	}
	for _, gc := range goldenCases() {
		t.Run(gc.name, func(t *testing.T) {
			snapPath, resultPath := goldenPaths(gc.name)
			snap := readGoldenSnap(t, snapPath)
			s := mustNewSys(t, gc.cfg)
			if err := s.Restore(bytes.NewReader(snap)); err != nil {
				t.Fatalf("committed checkpoint no longer restores: %v", err)
			}
			res, err := s.RunWithHooks(Hooks{})
			if err != nil {
				t.Fatal(err)
			}
			wantJSON, err := os.ReadFile(resultPath)
			if err != nil {
				t.Fatal(err)
			}
			if got := marshalResult(t, res); !bytes.Equal(got, wantJSON) {
				t.Errorf("restored run result diverges from committed golden result.\ngot:\n%s\nwant:\n%s", got, wantJSON)
			}
		})
	}
}

func readGoldenSnap(t *testing.T, path string) []byte {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("missing golden checkpoint (run with -update to create): %v", err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if err := zr.Close(); err != nil {
		t.Fatal(err)
	}
	return data
}

// TestGoldenCorpusCoversConfiguredMechanisms is a tripwire: if the
// golden cases rot (e.g. a mechanism rename), fail with a clear message
// rather than opaque file errors.
func TestGoldenCorpusCoversConfiguredMechanisms(t *testing.T) {
	seen := map[Mechanism]bool{}
	var profiled bool
	for _, gc := range goldenCases() {
		if err := gc.cfg.Validate(); err != nil {
			t.Fatalf("golden case %s invalid: %v", gc.name, err)
		}
		seen[gc.cfg.Mechanism] = true
		profiled = profiled || gc.cfg.Profile && gc.cfg.DisablePrefetcher
	}
	for _, m := range []Mechanism{BuMP, SMSVWQ, BaseClose, BaseOpen} {
		if !seen[m] {
			t.Errorf("golden corpus lost coverage of %s", m)
		}
	}
	if !profiled {
		t.Error("golden corpus lost its profiled, prefetcher-off characterisation run")
	}
}
