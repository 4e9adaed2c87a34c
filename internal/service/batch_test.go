package service

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"bump/internal/sim"
)

// recordingBackend records the specs submitted to it, in order, and
// answers every watch with done. It runs nothing.
type recordingBackend struct {
	Backend // the methods RunBatch does not call stay nil
	mu      sync.Mutex
	got     []JobSpec
}

func (b *recordingBackend) Submit(_ context.Context, spec JobSpec) (JobStatus, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.got = append(b.got, spec)
	return JobStatus{ID: fmt.Sprintf("r%d", len(b.got)), State: StateQueued}, nil
}

func (b *recordingBackend) Watch(_ context.Context, id string, _ func(sim.Progress)) (JobStatus, error) {
	return JobStatus{ID: id, State: StateDone}, nil
}

// TestRunBatchSubmitsInCallerOrder: RunBatch submits a batch in the
// caller's order, a point forked past the warmup boundary ahead of the
// root-cut point whose trunk it extends included (the warm store builds
// each node once, whoever asks first), and reports every point under
// its own index.
func TestRunBatchSubmitsInCallerOrder(t *testing.T) {
	base := JobSpec{Workload: "web-search", Mechanism: "bump",
		WarmupCycles: 60_000, MeasureCycles: 120_000}
	deep := base
	deep.MaxRowHitStreak = 3
	deep.ForkAt = 120_000
	deep.ForkCycles = []uint64{120_000}
	deep2 := deep
	deep2.MaxRowHitStreak = 7
	specs := []JobSpec{deep, base, deep2}

	rec := &recordingBackend{}
	res, err := RunBatch(context.Background(), rec, BatchSpec{Specs: specs}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec.got, specs) {
		streaks := make([]int, len(rec.got))
		for i, s := range rec.got {
			streaks[i] = s.MaxRowHitStreak
		}
		t.Fatalf("submitted streak caps %v, want the caller's order [3 0 7]", streaks)
	}
	for i, pt := range res.Points {
		if id := fmt.Sprintf("r%d", i+1); pt.Index != i || pt.Status.ID != id {
			t.Errorf("point %d: index %d, job %s; want job %s", i, pt.Index, pt.Status.ID, id)
		}
	}
}

// TestRejectedBatchRunsNothing: an empty batch, an oversized one and one
// holding an unresolvable point are all rejected before any point is
// submitted, so the valid points of a rejected batch never execute.
func TestRejectedBatchRunsNothing(t *testing.T) {
	p := newTestPool(t, Options{Workers: 1})
	bad := specFixture()
	bad.Workload = "no-such-workload"
	for name, spec := range map[string]BatchSpec{
		"invalid point": {Specs: []JobSpec{specFixture(), bad}},
		"empty":         {},
		"oversized":     {Specs: make([]JobSpec, MaxBatchPoints+1)},
	} {
		if _, err := p.Batch(context.Background(), spec, nil); err == nil {
			t.Errorf("%s batch accepted", name)
		}
	}
	if st := p.Stats(); st.Executions != 0 || st.Queued != 0 {
		t.Errorf("rejected batches left %d executions and %d queued jobs, want none", st.Executions, st.Queued)
	}
}
