package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"bump/internal/blob"
	"bump/internal/sim"
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
	st, err := p.Submit(spec)
	if err != nil {
		return sim.Result{}, err
	}
	if st, err = p.Wait(ctx, st.ID); err != nil {
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
	st, err := p.Submit(specFixture())
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
	p := newTestPool(t, Options{Workers: 1})
	// Occupy the single worker so the next two jobs queue up.
	blocker, err := p.Submit(longSpec())
	if err != nil {
		t.Fatal(err)
	}
	low := specFixture()
	low.Seed = 2
	lowSt, err := p.Submit(low)
	if err != nil {
		t.Fatal(err)
	}
	high := specFixture()
	high.Seed = 3
	high.Priority = 10
	highSt, err := p.Submit(high)
	if err != nil {
		t.Fatal(err)
	}
	// Watch both queued jobs; the single worker runs them serially, so
	// whichever signals first (progress event or stream closure) is the
	// one the queue scheduled first.
	chLow, cancelLow, err := p.Subscribe(lowSt.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer cancelLow()
	chHigh, cancelHigh, err := p.Subscribe(highSt.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer cancelHigh()
	if !p.Cancel(blocker.ID) {
		t.Fatal("cancel blocker")
	}
	// The high-priority job, submitted second, must run first.
	select {
	case <-chHigh:
	case <-chLow:
		t.Error("low-priority job ran before the high-priority one")
	}
	for _, id := range []string{highSt.ID, lowSt.ID} {
		if st, err := p.Wait(context.Background(), id); err != nil || st.State != StateDone {
			t.Fatalf("job %s: state %v err %v", id, st.State, err)
		}
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	p := newTestPool(t, Options{Workers: 1})
	running, err := p.Submit(longSpec())
	if err != nil {
		t.Fatal(err)
	}
	queued := longSpec()
	queued.Seed = 2
	queuedSt, err := p.Submit(queued)
	if err != nil {
		t.Fatal(err)
	}

	if !p.Cancel(queuedSt.ID) {
		t.Fatal("cancel queued job")
	}
	st, _ := p.Job(queuedSt.ID)
	if st.State != StateCanceled {
		t.Fatalf("queued job state %s after cancel", st.State)
	}

	if !p.Cancel(running.ID) {
		t.Fatal("cancel running job")
	}
	final, err := p.Wait(context.Background(), running.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateCanceled {
		t.Fatalf("running job state %s after cancel", final.State)
	}
	if p.Cancel(running.ID) {
		t.Error("cancel of a terminal job must report false")
	}
}

func TestJobTimeoutFails(t *testing.T) {
	p := newTestPool(t, Options{Workers: 1})
	spec := longSpec()
	spec.TimeoutMS = 50
	st, err := p.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	final, err := p.Wait(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateFailed || final.Error == "" {
		t.Fatalf("timed-out job: state=%s error=%q", final.State, final.Error)
	}
}

func TestCancelFreesWorkerForNextJob(t *testing.T) {
	p := newTestPool(t, Options{Workers: 1})
	running, err := p.Submit(longSpec())
	if err != nil {
		t.Fatal(err)
	}
	p.Cancel(running.ID)
	// The worker must come back and execute a fresh job.
	if _, err := runSpec(context.Background(), p, specFixture()); err != nil {
		t.Fatalf("run after cancel: %v", err)
	}
}

func TestSubscribeStreamsProgressAndCloses(t *testing.T) {
	p := newTestPool(t, Options{Workers: 1, ProgressInterval: 1_000})
	st, err := p.Submit(specFixture())
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel, err := p.Subscribe(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	var events int
	var last sim.Progress
	for pr := range ch {
		if pr.Cycle < last.Cycle {
			t.Errorf("progress went backwards: %d after %d", pr.Cycle, last.Cycle)
		}
		last = pr
		events++
	}
	if events == 0 {
		t.Error("no progress events before completion")
	}
	final, err := p.Job(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("job state %s after stream closed", final.State)
	}
	// Subscribing to a terminal job yields an already-closed channel.
	ch2, cancel2, err := p.Subscribe(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel2()
	if _, open := <-ch2; open {
		t.Error("subscription to terminal job must start closed")
	}
}

func TestPoolCloseCancelsEverything(t *testing.T) {
	p := NewPool(Options{Workers: 1, ProgressInterval: 5_000})
	running, _ := p.Submit(longSpec())
	queued := longSpec()
	queued.Seed = 2
	queuedSt, _ := p.Submit(queued)
	done := make(chan struct{})
	go func() { p.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Close did not return")
	}
	for _, id := range []string{running.ID, queuedSt.ID} {
		st, err := p.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if !st.State.Terminal() {
			t.Errorf("job %s state %s after Close", id, st.State)
		}
	}
	if _, err := p.Submit(specFixture()); !errors.Is(err, ErrClosed) {
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
		st, err := p.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = st.ID
	}
	for _, id := range ids {
		st, err := p.Wait(context.Background(), id)
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
// one warm pool running the whole sweep does.
func TestRestartedPoolRestoresFromBlobStore(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	point := func(streak int) JobSpec {
		s := specFixture()
		s.MaxRowHitStreak = streak
		return s
	}

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
	if st := restarted.Stats().Warm; st.Hits != 1 || st.WarmupCyclesSimulated != 0 {
		t.Fatalf("restarted pool: %d warm hits, %d warmup cycles simulated; want 1 hit and none", st.Hits, st.WarmupCyclesSimulated)
	}

	ref := newTestPool(t, Options{Workers: 1, WarmStarts: true})
	want, err := runSpec(ctx, ref, point(1))
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotJSON) != string(wantJSON) {
		t.Error("restored run diverges from a single warm pool's result")
	}
}

// TestWarmPoolMatchesColdResult: enabling warm starts never changes a
// job's answer. (Bit-identity of the restore path itself is pinned by
// internal/sim's TestWarmStoreIdenticalConfigBitIdentical and the
// randomized differential test.)
func TestWarmPoolMatchesColdResult(t *testing.T) {
	warm := newTestPool(t, Options{Workers: 1, WarmStarts: true})
	spec := specFixture()
	res, err := runSpec(context.Background(), warm, spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	cold, err := sim.RunOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.DRAM != cold.DRAM || res.Counters != cold.Counters || res.Cycles != cold.Cycles {
		t.Fatal("warm-pool run diverges from cold sim run for an identical config")
	}
}

func TestRetentionEvictsOldTerminalJobs(t *testing.T) {
	p := newTestPool(t, Options{Workers: 1, RetainJobs: 2})
	var ids []string
	for seed := int64(1); seed <= 3; seed++ {
		spec := specFixture()
		spec.Seed = seed
		st, err := p.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Wait(context.Background(), st.ID); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	if _, err := p.Job(ids[0]); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("oldest terminal job must be evicted, got %v", err)
	}
	if _, err := p.Job(ids[2]); err != nil {
		t.Errorf("newest terminal job must be retained: %v", err)
	}
}
