package sim

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"bump/internal/workload"
)

// TestForkRestoreConformance is the fork restore-point conformance
// test: a run stepped by runTo to randomized mid-measurement cuts,
// snapshotted there and restored into a fresh system must finish with
// the exact Result and the exact final machine state of an
// uninterrupted run — across a stationary workload and a multi-tenant
// scenario. One trunk run captures all cuts and must itself finish
// identically; each cut then replays its tail independently.
func TestForkRestoreConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("differential fork test is not short")
	}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"stationary/bump-web-search", smallConfig(BuMP, workload.WebSearch(), 21)},
		{"stationary/sms-vwq-data-serving", smallConfig(SMSVWQ, workload.DataServing(), 22)},
		{"scenario/bump-test-swap", smallScenarioConfig(BuMP, testSwapSpec(), 23)},
	}
	rng := rand.New(rand.NewSource(4242))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			total := tc.cfg.WarmupCycles + tc.cfg.MeasureCycles

			ref := mustNewSys(t, tc.cfg)
			refRes, err := ref.RunWithHooks(Hooks{})
			if err != nil {
				t.Fatal(err)
			}
			refFinal := snapBytes(t, ref)

			cutSet := map[uint64]struct{}{}
			for len(cutSet) < 3 {
				cutSet[tc.cfg.WarmupCycles+1+uint64(rng.Int63n(int64(tc.cfg.MeasureCycles-1)))] = struct{}{}
			}
			cuts := make([]uint64, 0, len(cutSet))
			for c := range cutSet {
				cuts = append(cuts, c)
			}
			sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })

			snaps := make(map[uint64][]byte, len(cuts))
			trunk := mustNewSys(t, tc.cfg)
			for _, cut := range cuts {
				if err := trunk.runTo(cut, Hooks{}); err != nil {
					t.Fatal(err)
				}
				snaps[cut] = snapBytes(t, trunk)
			}
			trunkRes, err := trunk.RunWithHooks(Hooks{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(trunkRes, refRes) {
				t.Fatalf("trunk stepped through its cuts diverges from the uninterrupted run:\n got %+v\nwant %+v", trunkRes, refRes)
			}

			for _, cut := range cuts {
				if cut >= total {
					t.Fatalf("generated cut %d outside measurement window", cut)
				}
				restored := mustNewSys(t, tc.cfg)
				if err := restored.Restore(bytes.NewReader(snaps[cut])); err != nil {
					t.Fatalf("cut %d: restore: %v", cut, err)
				}
				res, err := restored.RunWithHooks(Hooks{})
				if err != nil {
					t.Fatalf("cut %d: continue: %v", cut, err)
				}
				if !reflect.DeepEqual(res, refRes) {
					t.Fatalf("cut %d: restored result diverges from uninterrupted run:\n got %+v\nwant %+v", cut, res, refRes)
				}
				if final := snapBytes(t, restored); !bytes.Equal(final, refFinal) {
					t.Fatalf("cut %d: final machine state diverges from uninterrupted run", cut)
				}
			}
		})
	}
}

// TestForkSweepOneTrunkManyBranches is the checkpoint-tree acceptance
// test: a 16-point late-binding fairness sweep with one mid-measurement
// cut simulates exactly one warmup, extends the trunk to the cut
// exactly once, and runs sixteen branch tails each shorter than the
// full measurement window — and every point is byte-identical to its
// own cold sequential run.
func TestForkSweepOneTrunkManyBranches(t *testing.T) {
	if testing.Short() {
		t.Skip("differential fork test is not short")
	}
	cfg := smallConfig(BuMP, workload.WebSearch(), 31)
	total := cfg.WarmupCycles + cfg.MeasureCycles
	cut := cfg.WarmupCycles + cfg.MeasureCycles/2

	ws := NewWarmStore(8)
	const points = 16
	for i := 0; i < points; i++ {
		pt := cfg
		pt.MaxRowHitStreak = i
		pt.ForkAt = cut
		pt.ForkCycles = []uint64{cut}

		res, err := ws.Run(pt)
		if err != nil {
			t.Fatalf("point %d: %v", i, err)
		}
		cold, err := RunOne(pt)
		if err != nil {
			t.Fatalf("point %d cold: %v", i, err)
		}
		if !reflect.DeepEqual(res, cold) {
			t.Fatalf("point %d: forked result diverges from cold sequential run:\n got %+v\nwant %+v", i, res, cold)
		}
	}

	st := ws.Stats()
	if st.Misses != 1 || st.ForkMisses != 1 {
		t.Fatalf("tree built %d roots / %d nodes, want exactly 1 / 1 (stats %+v)", st.Misses, st.ForkMisses, st)
	}
	if st.WarmupCyclesSimulated != cfg.WarmupCycles {
		t.Fatalf("simulated %d warmup cycles, want exactly one warmup (%d)", st.WarmupCyclesSimulated, cfg.WarmupCycles)
	}
	if st.TrunkCyclesSimulated != cut-cfg.WarmupCycles {
		t.Fatalf("simulated %d trunk cycles, want exactly one extension (%d)", st.TrunkCyclesSimulated, cut-cfg.WarmupCycles)
	}
	if want := uint64(points) * (total - cut); st.BranchCyclesSimulated != want {
		t.Fatalf("simulated %d branch cycles, want %d (16 tails)", st.BranchCyclesSimulated, want)
	}
	if st.BranchCyclesSimulated/points >= cfg.MeasureCycles {
		t.Fatalf("branch tails (%d cycles each) are not shorter than the measurement window (%d)",
			st.BranchCyclesSimulated/points, cfg.MeasureCycles)
	}
	if st.Hits != points-1 || st.ForkHits != points-1 {
		t.Fatalf("%d hits / %d fork hits, want %d / %d", st.Hits, st.ForkHits, points-1, points-1)
	}
	if want := uint64(points-1) * (cut - cfg.WarmupCycles); st.ForkCyclesReused != want {
		t.Fatalf("reused %d fork cycles, want %d", st.ForkCyclesReused, want)
	}
}

// TestRestoreChecksTrajectory: a checkpoint cut past its bind cycle
// restores only into a configuration whose measured parameters followed
// the same trajectory; one cut at the bind cycle is still the canonical
// trunk and restores into any cap.
func TestRestoreChecksTrajectory(t *testing.T) {
	cfg := smallConfig(BuMP, workload.WebSearch(), 12)
	cfg.MaxRowHitStreak = 4
	bind := cfg.BindCycle()
	for _, tc := range []struct {
		cut uint64
		cap int
		ok  bool
	}{
		{bind, 9, true},
		{bind + 1_000, 4, true},
		{bind + 1_000, 9, false},
		{bind + 1_000, 0, false},
	} {
		s := mustNewSys(t, cfg)
		if err := s.runTo(tc.cut, Hooks{}); err != nil {
			t.Fatal(err)
		}
		into := cfg
		into.MaxRowHitStreak = tc.cap
		err := mustNewSys(t, into).Restore(bytes.NewReader(snapBytes(t, s)))
		if (err == nil) != tc.ok {
			t.Errorf("cut %d into cap %d: restore error %v, want success %v", tc.cut, tc.cap, err, tc.ok)
		}
	}
}

// forkFakeBackend is an in-memory WarmBackend whose entries can be
// corrupted out of band, for poisoning-recovery tests.
type forkFakeBackend struct {
	mu      sync.Mutex
	m       map[string][]byte
	deletes int
}

func newForkFakeBackend() *forkFakeBackend {
	return &forkFakeBackend{m: make(map[string][]byte)}
}

func (b *forkFakeBackend) Get(key string) ([]byte, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	data, ok := b.m[key]
	return data, ok
}

func (b *forkFakeBackend) Put(key string, data []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.m[key] = append([]byte(nil), data...)
	return nil
}

func (b *forkFakeBackend) Delete(key string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.m, key)
	b.deletes++
}

// TestWarmStorePoisonedCheckpointRecovers is the key-poisoning
// regression test: a cached checkpoint whose restore fails must be
// evicted from the memory tier AND the backend, the run must fall
// through to re-warm as leader, and the hit counter must reflect only
// successful restores. Before the fix, the corrupt entry was never
// evicted (every future run of the key failed forever) and Hits was
// charged before the restore was attempted.
func TestWarmStorePoisonedCheckpointRecovers(t *testing.T) {
	cfg := smallConfig(BuMP, workload.WebSearch(), 41)
	backend := newForkFakeBackend()

	// Seed the backend with a valid checkpoint, then corrupt it.
	seed := NewWarmStoreBacked(4, backend)
	if _, err := seed.Run(cfg); err != nil {
		t.Fatal(err)
	}
	key, ok := WarmKey(cfg)
	if !ok {
		t.Fatal("config not warm-cacheable")
	}
	good, ok := backend.Get(key)
	if !ok {
		t.Fatal("leader did not spill its checkpoint to the backend")
	}
	bad := append([]byte(nil), good...)
	for i := len(bad) / 2; i < len(bad); i++ {
		bad[i] ^= 0xff
	}
	if err := backend.Put(key, bad); err != nil {
		t.Fatal(err)
	}

	// A fresh store (cold memory tier) promotes the poisoned bytes,
	// fails the restore, evicts both tiers, and re-warms as leader.
	ws := NewWarmStoreBacked(4, backend)
	res, err := ws.Run(cfg)
	if err != nil {
		t.Fatalf("poisoned checkpoint not recovered: %v", err)
	}
	cold, err := RunOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, cold) {
		t.Fatal("recovered run diverges from cold run")
	}
	st := ws.Stats()
	if st.Evicted != 1 {
		t.Fatalf("evicted %d entries, want 1", st.Evicted)
	}
	if st.Hits != 0 || st.Misses != 1 {
		t.Fatalf("%d hits / %d misses after recovery, want 0 / 1 (a failed restore is not a hit)", st.Hits, st.Misses)
	}
	if backend.deletes != 1 {
		t.Fatalf("backend saw %d deletes, want 1 (poisoned bytes must not outlive the process)", backend.deletes)
	}

	// The re-warmed checkpoint replaced the poisoned one: the next run
	// is a plain hit, from both tiers' perspective.
	repaired, ok := backend.Get(key)
	if !ok || bytes.Equal(repaired, bad) {
		t.Fatal("backend still serves the poisoned bytes")
	}
	next := cfg
	next.MaxRowHitStreak = 2
	if _, err := ws.Run(next); err != nil {
		t.Fatal(err)
	}
	if st := ws.Stats(); st.Hits != 1 {
		t.Fatalf("post-recovery run: %d hits, want 1", st.Hits)
	}
}
