package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"bump/internal/workload"
)

// smallConfig is a fast configuration for snapshot tests: fewer cores
// and smaller caches keep each run (and each checkpoint) small while
// still exercising every subsystem.
func smallConfig(m Mechanism, w workload.Params, seed int64) Config {
	cfg := DefaultConfig(m, w)
	cfg.Cores = 4
	cfg.L1Bytes = 16 << 10
	cfg.LLCBytes = 256 << 10
	cfg.Seed = seed
	cfg.WarmupCycles = 60_000
	cfg.MeasureCycles = 120_000
	return cfg
}

func mustNewSys(t *testing.T, cfg Config) *System {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// snapBytes serializes a system and returns the raw snapshot.
func snapBytes(t *testing.T, s *System) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// runSplit runs cfg until the engine clock reaches at least `split`
// (cancelling at the next hook interval), snapshots, and returns the
// checkpoint bytes.
func runSplit(t *testing.T, cfg Config, split, interval uint64) []byte {
	t.Helper()
	s := mustNewSys(t, cfg)
	_, err := s.RunWithHooks(Hooks{
		Interval: interval,
		Cancel:   func() bool { return s.Engine().Now() >= split },
	})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("split run finished without cancel (split=%d): %v", split, err)
	}
	return snapBytes(t, s)
}

// TestSnapshotRestoreBitIdentical is the randomized differential test:
// for a spread of mechanisms (covering the predictor, SMS, stride, VWQ
// and close-row paths) and random split points — mid-warmup, at the
// warmup boundary, and mid-measurement — a run that is checkpointed and
// restored across the split must produce the exact Result (stats,
// event counts) and the exact final machine state of an uninterrupted
// run.
func TestSnapshotRestoreBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("differential snapshot test is not short")
	}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"bump/web-search", smallConfig(BuMP, workload.WebSearch(), 1)},
		{"bump+vwq/data-serving", smallConfig(BuMPVWQ, workload.DataServing(), 2)},
		{"sms+vwq/web-serving", smallConfig(SMSVWQ, workload.WebServing(), 3)},
		{"base-close/media-streaming", smallConfig(BaseClose, workload.MediaStreaming(), 4)},
		{"base-open-profiled/online-analytics", profiledConfig(smallConfig(BaseOpen, workload.OnlineAnalytics(), 5))},
	}
	rng := rand.New(rand.NewSource(42))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			total := tc.cfg.WarmupCycles + tc.cfg.MeasureCycles

			// Reference: uninterrupted run, then its final state.
			ref := mustNewSys(t, tc.cfg)
			refRes, err := ref.RunWithHooks(Hooks{})
			if err != nil {
				t.Fatal(err)
			}
			refFinal := snapBytes(t, ref)

			splits := []uint64{
				uint64(rng.Int63n(int64(tc.cfg.WarmupCycles))), // mid-warmup
				tc.cfg.WarmupCycles,                            // boundary
				tc.cfg.WarmupCycles + uint64(rng.Int63n(int64(tc.cfg.MeasureCycles-1))) + 1, // mid-measurement
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
					t.Fatalf("split %d: restored result diverges from uninterrupted run:\n got %+v\nwant %+v", split, res, refRes)
				}
				if final := snapBytes(t, restored); !bytes.Equal(final, refFinal) {
					t.Fatalf("split %d: final machine state diverges from uninterrupted run", split)
				}
			}
		})
	}
}

// TestSnapshotCanonicalBytes: snapshotting, restoring, and snapshotting
// again yields identical bytes (pool layouts and map orders never leak).
func TestSnapshotCanonicalBytes(t *testing.T) {
	cfg := smallConfig(BuMP, workload.OnlineAnalytics(), 7)
	data := runSplit(t, cfg, cfg.WarmupCycles, 4096)
	s := mustNewSys(t, cfg)
	if err := s.Restore(bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	if again := snapBytes(t, s); !bytes.Equal(again, data) {
		t.Fatal("restore + re-snapshot changed the canonical bytes")
	}
}

// TestRestoreAcceptsMeasuredParamChanges: MeasureCycles and
// MaxRowHitStreak are measured parameters — a warm checkpoint restores
// into configs differing only in them (the warmed-sweep contract).
func TestRestoreAcceptsMeasuredParamChanges(t *testing.T) {
	cfg := smallConfig(BuMP, workload.WebSearch(), 9)
	data := runSplit(t, cfg, cfg.WarmupCycles, 4096)

	swept := cfg
	swept.MeasureCycles = 90_000
	swept.MaxRowHitStreak = 8
	s := mustNewSys(t, swept)
	if err := s.Restore(bytes.NewReader(data)); err != nil {
		t.Fatalf("measured-param variant rejected: %v", err)
	}
	if _, err := s.RunWithHooks(Hooks{}); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreRejectsStructuralMismatch: any structural difference —
// seed, mechanism, cache geometry, warmup window — must be rejected.
func TestRestoreRejectsStructuralMismatch(t *testing.T) {
	cfg := smallConfig(BuMP, workload.WebSearch(), 9)
	data := runSplit(t, cfg, cfg.WarmupCycles/2, 4096)

	variants := map[string]func(*Config){
		"seed":      func(c *Config) { c.Seed = 10 },
		"mechanism": func(c *Config) { c.Mechanism = BaseOpen },
		"llc":       func(c *Config) { c.LLCBytes = 512 << 10 },
		"warmup":    func(c *Config) { c.WarmupCycles = 50_000 },
		"threshold": func(c *Config) { c.BuMP.DensityThreshold = 4 },
		"profile":   func(c *Config) { c.Profile = true },
	}
	for name, mutate := range variants {
		bad := cfg
		mutate(&bad)
		s := mustNewSys(t, bad)
		if err := s.Restore(bytes.NewReader(data)); err == nil {
			t.Errorf("structural variant %q accepted", name)
		}
	}
}

// TestRestoreRejectsDifferentStreamContent: the structural digest
// covers the parameters each stream is built from, not the sequence the
// generator draws from them, so the per-stream fingerprint must stop a
// checkpoint saved under one access sequence from silently resuming
// under another.
func TestRestoreRejectsDifferentStreamContent(t *testing.T) {
	cfg := smallConfig(BaseOpen, workload.WebSearch(), 1)
	data := runSplit(t, cfg, cfg.WarmupCycles/2, 4096)

	// The same config restores fine...
	if err := mustNewSys(t, cfg).Restore(bytes.NewReader(data)); err != nil {
		t.Fatalf("same config rejected: %v", err)
	}
	// ...but a core whose stream draws another sequence must be
	// rejected, not silently resumed. Swapping the stream in place
	// leaves the config, and so the structural digest, unchanged.
	other := mustNewSys(t, cfg)
	gen, err := workload.NewGenerator(cfg.Workload, workload.CoreSeed(cfg.Seed+1, 0))
	if err != nil {
		t.Fatal(err)
	}
	other.cores[0].stream = gen
	if err := other.Restore(bytes.NewReader(data)); err == nil {
		t.Fatal("checkpoint restored under a different access sequence")
	}
}

func TestRestoreRequiresFreshSystem(t *testing.T) {
	cfg := smallConfig(BuMP, workload.WebSearch(), 3)
	data := runSplit(t, cfg, cfg.WarmupCycles/2, 4096)
	s := mustNewSys(t, cfg)
	if _, err := s.RunWithHooks(Hooks{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Restore(bytes.NewReader(data)); err == nil {
		t.Fatal("restore into a used system accepted")
	}
}

// TestWarmStoreSharesOneWarmup: N configurations differing only in a
// measured parameter simulate exactly one warmup between them.
func TestWarmStoreSharesOneWarmup(t *testing.T) {
	cfg := smallConfig(BuMP, workload.WebSearch(), 5)
	ws := NewWarmStore(4)
	const points = 6
	for i := 0; i < points; i++ {
		c := cfg
		c.MaxRowHitStreak = i
		if _, err := ws.Run(c); err != nil {
			t.Fatal(err)
		}
	}
	st := ws.Stats()
	if st.Misses != 1 || st.Hits != points-1 {
		t.Fatalf("warm store: %d misses / %d hits, want 1 / %d", st.Misses, st.Hits, points-1)
	}
	if st.WarmupCyclesSimulated != cfg.WarmupCycles {
		t.Fatalf("simulated %d warmup cycles, want exactly one warmup (%d)", st.WarmupCyclesSimulated, cfg.WarmupCycles)
	}
	if st.WarmupCyclesReused != (points-1)*cfg.WarmupCycles {
		t.Fatalf("reused %d warmup cycles, want %d", st.WarmupCyclesReused, (points-1)*cfg.WarmupCycles)
	}
}

// TestWarmStoreIdenticalConfigBitIdentical: a run through the warm
// store matches the cold run of the same configuration byte for byte,
// both on the pass that builds the trunk checkpoints and on the pass
// that restores them — for a stationary workload, a scenario, a
// checkpoint-tree fork (MaxRowHitStreak bound mid-measurement at one
// cut), and streak caps bound at the warmup boundary (ForkAt 0).
func TestWarmStoreIdenticalConfigBitIdentical(t *testing.T) {
	fork := smallConfig(BaseClose, workload.WebSearch(), 8)
	fork.MaxRowHitStreak = 4
	fork.ForkAt = fork.WarmupCycles + fork.MeasureCycles/4
	fork.ForkCycles = []uint64{fork.ForkAt}
	type warmCase struct {
		name string
		cfg  Config
	}
	cases := []warmCase{
		{"stationary/bump+vwq-web-serving", smallConfig(BuMPVWQ, workload.WebServing(), 6)},
		{"scenario/sms+vwq-test-burst", smallScenarioConfig(SMSVWQ, testBurstSpec(), 7)},
		{"fork/base-close-web-search", fork},
	}
	for _, m := range []Mechanism{BuMP, BaseOpen, SMSVWQ} {
		for _, streak := range []int{1, 2, 7} {
			cfg := smallConfig(m, workload.DataServing(), 9)
			cfg.MaxRowHitStreak = streak
			cases = append(cases, warmCase{fmt.Sprintf("warmup-bound/%s-data-serving/streak%d", m, streak), cfg})
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			coldRes, err := RunOne(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := marshalResult(t, coldRes)
			ws := NewWarmStore(4)
			for _, pass := range []string{"build", "restore"} {
				res, err := ws.Run(tc.cfg)
				if err != nil {
					t.Fatalf("%s pass: %v", pass, err)
				}
				if got := marshalResult(t, res); !bytes.Equal(got, want) {
					t.Fatalf("%s pass diverges from the cold run.\ngot:\n%s\nwant:\n%s", pass, got, want)
				}
			}
			st := ws.Stats()
			restores := st.Hits
			if tc.cfg.ForkAt > 0 {
				restores = st.ForkHits
			}
			if st.Misses != 1 || restores != 1 {
				t.Fatalf("warm store stats %+v, want one warmup built and one restore of the run's node", st)
			}
		})
	}
}

// TestWarmStoreOrderIndependent: warmed-sweep results are a function of
// each point's configuration only — never of which point happened to
// warm first. Two stores visiting the same points in opposite orders
// must agree point-for-point (the warmup is always simulated under the
// canonical warm configuration, so the leader's own measured parameters
// cannot leak into the shared checkpoint).
func TestWarmStoreOrderIndependent(t *testing.T) {
	cfg := smallConfig(BuMP, workload.DataServing(), 11)
	caps := []int{5, 0, 9}

	runOrder := func(order []int) map[int]Result {
		ws := NewWarmStore(4)
		out := make(map[int]Result, len(order))
		for _, c := range order {
			pt := cfg
			pt.MaxRowHitStreak = c
			res, err := ws.Run(pt)
			if err != nil {
				t.Fatal(err)
			}
			out[c] = res
		}
		return out
	}
	fwd := runOrder(caps)
	rev := runOrder([]int{9, 0, 5})
	for _, c := range caps {
		if !reflect.DeepEqual(fwd[c], rev[c]) {
			t.Fatalf("cap %d: result depends on sweep order", c)
		}
	}

	// The zero-measured-param point is additionally bit-identical to
	// its cold run.
	cold, err := RunOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fwd[0], cold) {
		t.Fatal("canonical point diverges from cold run")
	}
}

// TestWarmStoreConcurrentInPlaceRestore: eight runs restore one stored
// checkpoint-tree node at once, each decoding the store's bytes in
// place. Every run must match its cold run, and the stored bytes must
// come out unchanged.
func TestWarmStoreConcurrentInPlaceRestore(t *testing.T) {
	cfg := smallConfig(BuMP, workload.WebSearch(), 13)
	cfg.ForkAt = cfg.WarmupCycles + cfg.MeasureCycles/4
	cfg.ForkCycles = []uint64{cfg.ForkAt}
	const points = 8
	pts := make([]Config, points)
	want := make([][]byte, points)
	for i := range pts {
		pts[i] = cfg
		pts[i].MaxRowHitStreak = i + 1
		res, err := RunOne(pts[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = marshalResult(t, res)
	}

	ws := NewWarmStore(4)
	if _, err := ws.Run(cfg); err != nil { // builds the root and the node
		t.Fatal(err)
	}
	key, _ := ForkNodeKey(cfg, cfg.ForkAt)
	ws.mu.Lock()
	node := ws.entries[key]
	ws.mu.Unlock()
	if node == nil {
		t.Fatal("the node at ForkAt was not stored")
	}
	sum := sha256.Sum256(node)

	start := make(chan struct{})
	got := make([][]byte, points)
	errs := make([]error, points)
	var wg sync.WaitGroup
	for i := range pts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			res, err := ws.Run(pts[i])
			if err != nil {
				errs[i] = err
				return
			}
			got[i], errs[i] = json.MarshalIndent(res, "", "  ")
		}()
	}
	close(start)
	wg.Wait()
	for i := range pts {
		if errs[i] != nil {
			t.Fatalf("point %d: %v", i, errs[i])
		}
		if !bytes.Equal(append(got[i], '\n'), want[i]) {
			t.Errorf("point %d (streak %d) diverges from its cold run", i, pts[i].MaxRowHitStreak)
		}
	}
	if st := ws.Stats(); st.ForkHits != points || st.ForkMisses != 1 {
		t.Errorf("warm store stats %+v, want %d fork hits on one built node", st, points)
	}
	if sha256.Sum256(node) != sum {
		t.Fatal("concurrent restores modified the stored checkpoint bytes")
	}
}

// TestWarmStoreSkipsZeroWarmup: a run without a warmup window has no
// warmup-end state to share, so it bypasses the store and counts as
// skipped.
func TestWarmStoreSkipsZeroWarmup(t *testing.T) {
	cfg := smallConfig(BaseOpen, workload.WebSearch(), 2)
	cfg.WarmupCycles = 0
	ws := NewWarmStore(2)
	if _, err := ws.Run(cfg); err != nil {
		t.Fatal(err)
	}
	if st := ws.Stats(); st.Skipped != 1 || st.Misses != 0 {
		t.Fatalf("zero-warmup run not skipped: %+v", st)
	}
}
