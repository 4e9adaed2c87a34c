package sim

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"bump/internal/workload"
)

// fuzzRestoreConfig is deliberately tiny: the fuzzer builds a fresh
// System per input. It is profiled, so the decoder under test reads the
// superset layout, the region-density profiler's section included.
func fuzzRestoreConfig() Config {
	cfg := DefaultConfig(BuMP, workload.WebSearch())
	cfg.Profile = true
	cfg.Cores = 1
	cfg.L1Bytes = 4 << 10
	cfg.LLCBytes = 64 << 10
	cfg.WarmupCycles = 1_500
	cfg.MeasureCycles = 2_500
	return cfg
}

// fuzzSeedSnapshot splits the run inside its measurement window, so the
// seed carries a non-empty load-latency distribution and the fuzzer
// starts from valid input to every decoder.
var fuzzSeedSnapshot = sync.OnceValue(func() []byte {
	cfg := fuzzRestoreConfig()
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	if _, err := s.RunWithHooks(Hooks{
		Interval: 250,
		Cancel:   func() bool { return s.Engine().Now() >= 2_500 },
	}); !errors.Is(err, ErrCanceled) {
		panic("fuzz seed run did not split")
	}
	if s.loadLatency.N() == 0 {
		panic("fuzz seed carries no load latencies")
	}
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
})

// FuzzSystemRestore drives the full multi-component decode path with
// arbitrary bytes: every input must either restore cleanly or return an
// error — never panic, hang, or allocate beyond the input's own size.
func FuzzSystemRestore(f *testing.F) {
	seed := fuzzSeedSnapshot()
	f.Add(seed)
	// Truncations of a valid snapshot probe every section boundary.
	f.Add(seed[:len(seed)/2])
	f.Add(seed[:len(seed)/4])
	f.Add([]byte{})
	cfg := fuzzRestoreConfig()
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Restore(bytes.NewReader(data)); err != nil {
			return // rejected: fine
		}
		// A snapshot that decodes fully must also resume and complete.
		if _, err := s.RunWithHooks(Hooks{}); err != nil {
			t.Fatalf("restored system failed to run: %v", err)
		}
	})
}
