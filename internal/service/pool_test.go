package service

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"bump/internal/blob"
	"bump/internal/sim"
	"bump/internal/snapshot"
)

// longSpec is big enough that it cannot finish before the test reacts
// (cancel, timeout, priority checks) even on a fast machine.
func longSpec() JobSpec {
	s := specFixture()
	s.MeasureCycles = 200_000_000
	return s
}

func newTestPool(t *testing.T, opts Options) *Pool {
	t.Helper()
	if opts.ProgressInterval == 0 {
		opts.ProgressInterval = 5_000 // frequent cancel polls keep shutdown fast
	}
	p := NewPool(opts)
	t.Cleanup(p.Close)
	return p
}

// runSpec submits spec and blocks for its result.
func runSpec(ctx context.Context, p *Pool, spec JobSpec) (sim.Result, error) {
	st, err := p.Submit(ctx, spec)
	if err != nil {
		return sim.Result{}, err
	}
	if st, err = p.Watch(ctx, st.ID, nil); err != nil {
		return sim.Result{}, err
	}
	if st.State != StateDone {
		return sim.Result{}, fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	return *st.Result, nil
}

func TestSubmitRunAndResult(t *testing.T) {
	p := newTestPool(t, Options{Workers: 2})
	res, err := runSpec(context.Background(), p, specFixture())
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 || res.Instructions == 0 {
		t.Fatalf("empty result: %+v", res)
	}
	// The pool's result matches a direct sim run of the same config.
	cfg, err := specFixture().Config()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := sim.RunOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.DRAM != direct.DRAM || res.Counters != direct.Counters {
		t.Error("pooled run result diverges from direct sim.RunOne")
	}
}

func TestDuplicateSubmissionsCoalesceToOneExecution(t *testing.T) {
	p := newTestPool(t, Options{Workers: 4})
	const clients = 16
	var wg sync.WaitGroup
	results := make([]sim.Result, clients)
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = runSpec(context.Background(), p, specFixture())
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	for i := 1; i < clients; i++ {
		if results[i].DRAM != results[0].DRAM || results[i].Counters != results[0].Counters {
			t.Fatalf("client %d saw a different result", i)
		}
	}
	if st := p.Stats(); st.Executions != 1 {
		t.Fatalf("%d executions for %d identical submissions, want exactly 1 (coalesced+cached)", st.Executions, clients)
	}
}

func TestCachedResultReturnsWithoutRerun(t *testing.T) {
	p := newTestPool(t, Options{Workers: 1})
	if _, err := runSpec(context.Background(), p, specFixture()); err != nil {
		t.Fatal(err)
	}
	st, err := p.Submit(context.Background(), specFixture())
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || !st.Cached || st.Result == nil {
		t.Fatalf("resubmission after completion: state=%s cached=%v", st.State, st.Cached)
	}
	if stats := p.Stats(); stats.Executions != 1 {
		t.Fatalf("cache hit triggered a re-run: %d executions", stats.Executions)
	}
}

func TestPriorityOrdersQueue(t *testing.T) {
	ctx := context.Background()
	p := newTestPool(t, Options{Workers: 1})
	// Occupy the single worker so the next two jobs queue up.
	blocker, err := p.Submit(ctx, longSpec())
	if err != nil {
		t.Fatal(err)
	}
	low := specFixture()
	low.Seed = 2
	lowSt, err := p.Submit(ctx, low)
	if err != nil {
		t.Fatal(err)
	}
	high := specFixture()
	high.Seed = 3
	high.Priority = 10
	highSt, err := p.Submit(ctx, high)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Cancel(ctx, blocker.ID); err != nil {
		t.Fatalf("cancel blocker: %v", err)
	}
	// The single worker runs the two queued jobs one after the other, so
	// while the high-priority job, submitted second, makes progress, the
	// low-priority one must still be queued.
	var lowWhileHigh State
	var once sync.Once
	st, err := p.Watch(ctx, highSt.ID, func(sim.Progress) {
		once.Do(func() {
			st, _ := p.Job(ctx, lowSt.ID)
			lowWhileHigh = st.State
		})
	})
	if err != nil || st.State != StateDone {
		t.Fatalf("high-priority job: state %v err %v", st.State, err)
	}
	if lowWhileHigh != StateQueued {
		t.Errorf("low-priority job was %q while the high-priority one ran, want queued", lowWhileHigh)
	}
	if st, err := p.Watch(ctx, lowSt.ID, nil); err != nil || st.State != StateDone {
		t.Fatalf("low-priority job: state %v err %v", st.State, err)
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	ctx := context.Background()
	p := newTestPool(t, Options{Workers: 1})
	running, err := p.Submit(ctx, longSpec())
	if err != nil {
		t.Fatal(err)
	}
	queued := longSpec()
	queued.Seed = 2
	queuedSt, err := p.Submit(ctx, queued)
	if err != nil {
		t.Fatal(err)
	}

	st, err := p.Cancel(ctx, queuedSt.ID)
	if err != nil {
		t.Fatalf("cancel queued job: %v", err)
	}
	if st.State != StateCanceled {
		t.Fatalf("queued job state %s after cancel", st.State)
	}

	if _, err := p.Cancel(ctx, running.ID); err != nil {
		t.Fatalf("cancel running job: %v", err)
	}
	final, err := p.Watch(ctx, running.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateCanceled {
		t.Fatalf("running job state %s after cancel", final.State)
	}
	if _, err := p.Cancel(ctx, running.ID); !errors.Is(err, ErrTerminal) {
		t.Errorf("cancel of a terminal job: %v, want ErrTerminal", err)
	}
	if _, err := p.Cancel(ctx, "j-missing"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("cancel of an unknown job: %v, want ErrUnknownJob", err)
	}
}

func TestJobTimeoutFails(t *testing.T) {
	ctx := context.Background()
	p := newTestPool(t, Options{Workers: 1})
	spec := longSpec()
	spec.TimeoutMS = 50
	st, err := p.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	final, err := p.Watch(ctx, st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateFailed || final.Error == "" {
		t.Fatalf("timed-out job: state=%s error=%q", final.State, final.Error)
	}
}

func TestCancelFreesWorkerForNextJob(t *testing.T) {
	ctx := context.Background()
	p := newTestPool(t, Options{Workers: 1})
	running, err := p.Submit(ctx, longSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Cancel(ctx, running.ID); err != nil {
		t.Fatal(err)
	}
	// The worker must come back and execute a fresh job.
	if _, err := runSpec(ctx, p, specFixture()); err != nil {
		t.Fatalf("run after cancel: %v", err)
	}
}

// TestWatchStreamsProgressAndReturnsVerdict: Watch relays progress in
// cycle order and returns the terminal status; a watch of a terminal
// job returns its verdict at once, and one of a job retention has
// already dropped answers ErrUnknownJob.
func TestWatchStreamsProgressAndReturnsVerdict(t *testing.T) {
	ctx := context.Background()
	p := newTestPool(t, Options{Workers: 1, ProgressInterval: 1_000, RetainJobs: 1})
	st, err := p.Submit(ctx, specFixture())
	if err != nil {
		t.Fatal(err)
	}
	var events int
	var last sim.Progress
	final, err := p.Watch(ctx, st.ID, func(pr sim.Progress) {
		if pr.Cycle < last.Cycle {
			t.Errorf("progress went backwards: %d after %d", pr.Cycle, last.Cycle)
		}
		last = pr
		events++
	})
	if err != nil {
		t.Fatal(err)
	}
	if events == 0 {
		t.Error("no progress events before completion")
	}
	if final.State != StateDone || final.Result == nil {
		t.Fatalf("watch returned state %s (result %v)", final.State, final.Result != nil)
	}
	again, err := p.Watch(ctx, st.ID, func(sim.Progress) { t.Error("progress from a terminal job") })
	if err != nil || again.State != StateDone {
		t.Fatalf("watch of a terminal job: %v %s", err, again.State)
	}

	next := specFixture()
	next.Seed = 2
	if _, err := runSpec(ctx, p, next); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Watch(ctx, st.ID, nil); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("watch of a dropped job: %v, want ErrUnknownJob", err)
	}
}

func TestPoolCloseCancelsEverything(t *testing.T) {
	p := NewPool(Options{Workers: 1, ProgressInterval: 5_000})
	ctx := context.Background()
	running, _ := p.Submit(ctx, longSpec())
	queued := longSpec()
	queued.Seed = 2
	queuedSt, _ := p.Submit(ctx, queued)
	done := make(chan struct{})
	go func() { p.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Close did not return")
	}
	for _, id := range []string{running.ID, queuedSt.ID} {
		st, err := p.Job(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if !st.State.Terminal() {
			t.Errorf("job %s state %s after Close", id, st.State)
		}
	}
	if _, err := p.Submit(ctx, specFixture()); !errors.Is(err, ErrClosed) {
		t.Errorf("Submit after Close: %v, want ErrClosed", err)
	}
}

// TestWarmSweepReusesCheckpoint is the warmed-sweep acceptance test: a
// 16-point sweep over a measured parameter (the FR-FCFS row-hit streak
// cap) through a warm-started pool must simulate exactly one warmup and
// restore the shared checkpoint for the other fifteen points —
// measurably less total simulated work than sixteen cold runs.
func TestWarmSweepReusesCheckpoint(t *testing.T) {
	p := newTestPool(t, Options{Workers: 4, WarmStarts: true})
	const points = 16
	base := specFixture()

	ids := make([]string, points)
	for i := 0; i < points; i++ {
		spec := base
		spec.MaxRowHitStreak = i // measured param: 0 (off), 1..15
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
	if st.Executions != points {
		t.Fatalf("%d executions for %d distinct configs, want %d", st.Executions, points, points)
	}
	coldWarmup := uint64(points) * base.WarmupCycles
	if st.Warm.WarmupCyclesSimulated >= coldWarmup {
		t.Fatalf("warmed sweep simulated %d warmup cycles, no better than %d cold", st.Warm.WarmupCyclesSimulated, coldWarmup)
	}
	if st.Warm.WarmupCyclesSimulated != base.WarmupCycles {
		t.Errorf("simulated %d warmup cycles, want exactly one shared warmup (%d)", st.Warm.WarmupCyclesSimulated, base.WarmupCycles)
	}
	if st.Warm.Misses != 1 || st.Warm.Hits != points-1 {
		t.Errorf("warm store %d misses / %d hits, want 1 / %d", st.Warm.Misses, st.Warm.Hits, points-1)
	}
	if st.Warm.WarmupCyclesReused != (points-1)*base.WarmupCycles {
		t.Errorf("reused %d warmup cycles, want %d", st.Warm.WarmupCyclesReused, (points-1)*base.WarmupCycles)
	}
}

// TestRestartedPoolRestoresFromBlobStore: a pool backed by a blob
// directory spills its warm checkpoint there, so a fresh pool reopened
// on the same directory (a bumpd restarted with the same -warm-dir)
// restores the warmup instead of simulating it, and answers exactly as
// one warm pool running the whole sweep does. A checkpoint of an older
// snapshot format (a store written by an earlier build) fails its
// restore, is deleted from the store, and is re-warmed exactly once.
func TestRestartedPoolRestoresFromBlobStore(t *testing.T) {
	ctx := context.Background()
	point := func(streak int) JobSpec {
		s := specFixture()
		s.MaxRowHitStreak = streak
		return s
	}
	cfg, err := point(0).Config()
	if err != nil {
		t.Fatal(err)
	}
	key, _ := sim.WarmKey(cfg)

	ref := newTestPool(t, Options{Workers: 1, WarmStarts: true})
	want, err := runSpec(ctx, ref, point(1))
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name      string
		version   uint16 // the stored checkpoint's format version
		hits      uint64 // warm ledger of the restarted pool
		misses    uint64
		evictions uint64
	}{
		{"current format", snapshot.FormatVersion, 1, 0, 0},
		{"older format", snapshot.FormatVersion - 1, 0, 1, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			bs, err := blob.Open(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			first := NewPool(Options{Workers: 1, WarmBackend: bs, ProgressInterval: 5_000})
			if _, err := runSpec(ctx, first, point(0)); err != nil {
				t.Fatal(err)
			}
			first.Close()
			bs.Close()

			// The container's format version is its bytes 8-9.
			path := filepath.Join(dir, key)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			binary.LittleEndian.PutUint16(data[8:], tc.version)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}

			reopened, err := blob.Open(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(reopened.Close)
			restarted := newTestPool(t, Options{Workers: 1, WarmBackend: reopened})
			got, err := runSpec(ctx, restarted, point(1))
			if err != nil {
				t.Fatal(err)
			}
			st := restarted.Stats().Warm
			if st.Hits != tc.hits || st.Misses != tc.misses || st.Evicted != tc.evictions {
				t.Fatalf("restarted pool: %d hits, %d misses, %d evicted; want %d, %d, %d",
					st.Hits, st.Misses, st.Evicted, tc.hits, tc.misses, tc.evictions)
			}
			if want := tc.misses * cfg.WarmupCycles; st.WarmupCyclesSimulated != want {
				t.Fatalf("restarted pool simulated %d warmup cycles, want %d", st.WarmupCyclesSimulated, want)
			}
			stored, ok := reopened.Get(key)
			if !ok {
				t.Fatal("blob store lost the warm checkpoint")
			}
			if v := binary.LittleEndian.Uint16(stored[8:]); v != snapshot.FormatVersion {
				t.Fatalf("blob store serves a format-%d checkpoint, want %d", v, snapshot.FormatVersion)
			}
			gotJSON, err := json.Marshal(got)
			if err != nil {
				t.Fatal(err)
			}
			if string(gotJSON) != string(wantJSON) {
				t.Error("restored run diverges from a single warm pool's result")
			}
		})
	}
}

// TestWarmPoolMatchesColdResult: enabling warm starts never changes a
// job's answer. A pool with warm starts and one without report the same
// hash and byte-identical Result JSON, for a plain spec and for a
// streak cap with ForkAt 0, which binds at the warmup boundary in both.
// (Bit-identity of the restore path itself is pinned by internal/sim's
// TestWarmStoreIdenticalConfigBitIdentical and the randomized
// differential test.)
func TestWarmPoolMatchesColdResult(t *testing.T) {
	ctx := context.Background()
	warm := newTestPool(t, Options{Workers: 1, WarmStarts: true})
	cold := newTestPool(t, Options{Workers: 1})
	capped := specFixture()
	capped.MaxRowHitStreak = 3
	for _, spec := range []JobSpec{specFixture(), capped} {
		var hashes, results [2]string
		for i, p := range []*Pool{warm, cold} {
			st, err := p.Submit(ctx, spec)
			if err != nil {
				t.Fatal(err)
			}
			if st, err = p.Watch(ctx, st.ID, nil); err != nil || st.State != StateDone {
				t.Fatalf("streak %d: job ended %s (%v %s)", spec.MaxRowHitStreak, st.State, err, st.Error)
			}
			data, err := json.Marshal(st.Result)
			if err != nil {
				t.Fatal(err)
			}
			hashes[i], results[i] = st.Hash, string(data)
		}
		if hashes[0] != hashes[1] {
			t.Errorf("streak %d: warm pool hash %s, cold pool hash %s", spec.MaxRowHitStreak, hashes[0], hashes[1])
		}
		if results[0] != results[1] {
			t.Errorf("streak %d: warm-pool result diverges from the cold pool's", spec.MaxRowHitStreak)
		}
	}
	if st := warm.Stats().Warm; st.Misses != 1 || st.Hits != 1 {
		t.Errorf("warm pool: %d misses / %d hits, want the capped job restoring the plain job's warmup", st.Misses, st.Hits)
	}
}

func TestRetentionEvictsOldTerminalJobs(t *testing.T) {
	p := newTestPool(t, Options{Workers: 1, RetainJobs: 2})
	var ids []string
	for seed := int64(1); seed <= 3; seed++ {
		spec := specFixture()
		spec.Seed = seed
		st, err := p.Submit(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Watch(context.Background(), st.ID, nil); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	if _, err := p.Job(context.Background(), ids[0]); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("oldest terminal job must be evicted, got %v", err)
	}
	if _, err := p.Job(context.Background(), ids[2]); err != nil {
		t.Errorf("newest terminal job must be retained: %v", err)
	}
}
