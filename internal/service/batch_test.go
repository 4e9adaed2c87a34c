package service

import (
	"context"
	"reflect"
	"testing"
)

// TestPlanBatchGroupsByAncestor: submission order groups points by
// their checkpoint-tree ancestor, shallower restore cuts first within a
// structural family, with user priority still the leading key.
func TestPlanBatchGroupsByAncestor(t *testing.T) {
	base := JobSpec{Workload: "web-search", Mechanism: "bump",
		WarmupCycles: 60_000, MeasureCycles: 120_000}
	deep := base
	deep.MaxRowHitStreak = 3
	deep.ForkAt = 120_000
	deep.ForkCycles = []uint64{120_000}
	deep2 := deep
	deep2.MaxRowHitStreak = 7
	plan := func(spec BatchSpec) []int {
		cfgs, err := spec.configs()
		if err != nil {
			t.Fatal(err)
		}
		return planBatch(spec, cfgs)
	}

	got := plan(BatchSpec{Specs: []JobSpec{deep, base, deep2}})
	// Root-cut point (base, index 1) leads its family; the two deep
	// forks follow in submission order.
	want := []int{1, 0, 2}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("planBatch order %v, want %v", got, want)
	}

	// Priority outranks grouping: a high-priority deep fork jumps the
	// whole family.
	urgent := deep
	urgent.Priority = 5
	got = plan(BatchSpec{Specs: []JobSpec{deep, base, urgent}})
	want = []int{2, 1, 0}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("planBatch priority order %v, want %v", got, want)
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
