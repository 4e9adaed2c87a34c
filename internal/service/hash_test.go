package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"reflect"
	"testing"

	"bump/internal/sim"
	"bump/internal/workload"
)

func specFixture() JobSpec {
	return JobSpec{
		Workload:      "web-search",
		Mechanism:     "bump",
		WarmupCycles:  20_000,
		MeasureCycles: 50_000,
	}
}

func mustHash(t *testing.T, spec JobSpec) string {
	t.Helper()
	h, err := HashSpec(spec)
	if err != nil {
		t.Fatalf("HashSpec: %v", err)
	}
	return h
}

func TestHashDeterministic(t *testing.T) {
	a := mustHash(t, specFixture())
	b := mustHash(t, specFixture())
	if a != b {
		t.Fatalf("identical specs hash differently: %s vs %s", a, b)
	}
	if len(a) != 64 {
		t.Fatalf("hash length %d, want 64 hex chars", len(a))
	}
}

func TestHashSeparatesIdentityFields(t *testing.T) {
	base := mustHash(t, specFixture())
	mutations := map[string]func(*JobSpec){
		"workload":        func(s *JobSpec) { s.Workload = "data-serving" },
		"mechanism":       func(s *JobSpec) { s.Mechanism = "base-open" },
		"seed":            func(s *JobSpec) { s.Seed = 7 },
		"warmup":          func(s *JobSpec) { s.WarmupCycles = 30_000 },
		"measure":         func(s *JobSpec) { s.MeasureCycles = 60_000 },
		"region shift":    func(s *JobSpec) { s.RegionShift = 9 },
		"threshold":       func(s *JobSpec) { s.DensityThreshold = 4 },
		"row-hit streak":  func(s *JobSpec) { s.MaxRowHitStreak = 4 },
		"no prefetcher":   func(s *JobSpec) { s.DisablePrefetcher = true },
		"block interleam": func(s *JobSpec) { s.ForceBlockInterleave = true },
	}
	for name, mutate := range mutations {
		spec := specFixture()
		mutate(&spec)
		if mustHash(t, spec) == base {
			t.Errorf("%s change did not change the hash", name)
		}
	}
}

func TestHashIgnoresSchedulingFields(t *testing.T) {
	base := mustHash(t, specFixture())
	spec := specFixture()
	spec.Priority = 9
	spec.TimeoutMS = 1234
	spec.TraceID = "t-1"
	if mustHash(t, spec) != base {
		t.Error("priority/timeout/trace ID never reach sim.Config and must not change the hash")
	}
}

func TestHashCoversEveryConfigField(t *testing.T) {
	// The canonical encoder walks the config reflectively, so a freshly
	// added field is hashed automatically — but only if it is exported
	// and of an encodable kind. Hashing a default config exercises the
	// full walk and fails loudly on any regression.
	cfg := sim.DefaultConfig(sim.BuMP, workload.WebSearch())
	if _, err := Hash(cfg); err != nil {
		t.Fatalf("default config must be hashable: %v", err)
	}
}

func TestSpecConfigValidation(t *testing.T) {
	bad := specFixture()
	bad.Workload = "no-such-workload"
	if _, err := bad.Config(); err == nil {
		t.Error("unknown workload must fail")
	}
	bad = specFixture()
	bad.Mechanism = "no-such-mechanism"
	if _, err := bad.Config(); err == nil {
		t.Error("unknown mechanism must fail")
	}
	// Defaulted mechanism.
	def := specFixture()
	def.Mechanism = ""
	cfg, err := def.Config()
	if err != nil {
		t.Fatalf("empty mechanism must default: %v", err)
	}
	if cfg.Mechanism != sim.BuMP {
		t.Errorf("default mechanism = %v, want bump", cfg.Mechanism)
	}
}

// referenceCanonical is the fmt-based encoder Hash originally used,
// kept as the test oracle: the pooled allocation-free encoder must stay
// byte-identical to it. Hashes are cache keys — silent encoding drift
// would orphan every cached result without a hashVersion bump.
func referenceCanonical(w io.Writer, v reflect.Value, path string) error {
	switch v.Kind() {
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				return fmt.Errorf("service: unexported config field %s.%s", path, f.Name)
			}
			if err := referenceCanonical(w, v.Field(i), path+"."+f.Name); err != nil {
				return err
			}
		}
		return nil
	case reflect.Slice, reflect.Array:
		fmt.Fprintf(w, "%s.len=%d\n", path, v.Len())
		for i := 0; i < v.Len(); i++ {
			if err := referenceCanonical(w, v.Index(i), fmt.Sprintf("%s[%d]", path, i)); err != nil {
				return err
			}
		}
		return nil
	case reflect.Bool, reflect.String,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64:
		fmt.Fprintf(w, "%s=%v\n", path, v.Interface())
		return nil
	default:
		return fmt.Errorf("service: cannot canonically encode %s (kind %s)", path, v.Kind())
	}
}

func TestHashMatchesReferenceEncoding(t *testing.T) {
	specs := []JobSpec{
		specFixture(),
		{Workload: "data-serving", Mechanism: "base-open", WarmupCycles: 1, MeasureCycles: 2, Seed: 42, MaxRowHitStreak: 7},
		{Scenario: "consolidated", Mechanism: "bump", WarmupCycles: 1_000, MeasureCycles: 2_000},
	}
	for _, spec := range specs {
		cfg, err := spec.Config()
		if err != nil {
			t.Fatalf("spec %+v: %v", spec, err)
		}
		h := sha256.New()
		io.WriteString(h, hashVersion)
		if err := referenceCanonical(h, reflect.ValueOf(cfg), "cfg"); err != nil {
			t.Fatal(err)
		}
		want := hex.EncodeToString(h.Sum(nil))
		got, err := Hash(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("spec %+v: pooled encoder diverged from the reference encoding: %s != %s", spec, got, want)
		}
	}
}
