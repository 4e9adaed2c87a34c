package service

import (
	"context"
	"fmt"
	"sync"
)

// BatchSpec is the wire format of POST /v1/batch: a whole sweep in one
// request. Points are independent jobs; identical specs coalesce to one
// execution exactly as they would submitted separately.
type BatchSpec struct {
	Specs []JobSpec `json:"specs"`
}

// BatchPoint is one completed point of a batch: its index in the
// submitted spec slice, the worker that served it (cluster mode), and
// the terminal job payload.
type BatchPoint struct {
	Index  int        `json:"index"`
	Worker string     `json:"worker,omitempty"`
	Status JobPayload `json:"status"`
}

// BatchResult aggregates a batch run. Points is ordered by submission
// index — position i is Specs[i]'s outcome — regardless of completion
// order. Failed counts points that did not reach StateDone.
type BatchResult struct {
	Points []BatchPoint `json:"points"`
	Failed int          `json:"failed"`
}

// Results unwraps the per-point run results in submission order,
// failing on the first point that did not complete (naming the worker
// that served it, when known).
func (r BatchResult) Results() ([]JobPayload, error) {
	out := make([]JobPayload, len(r.Points))
	for i, pt := range r.Points {
		if pt.Status.State != StateDone || pt.Status.Result == nil {
			where := ""
			if pt.Worker != "" {
				where = " on " + pt.Worker
			}
			return nil, fmt.Errorf("service: batch point %d%s %s: %s", pt.Index, where, pt.Status.State, pt.Status.Error)
		}
		out[i] = pt.Status
	}
	return out, nil
}

// MaxBatchPoints bounds one batch request (a 16-core design-grid sweep
// is ~72 points; this leaves two orders of magnitude of headroom while
// keeping a malformed request from exhausting memory).
const MaxBatchPoints = 4096

// Validate rejects a batch that cannot run as a whole: an empty one, one
// over MaxBatchPoints, or one with a point whose spec does not resolve
// to a configuration. RunBatch and the POST /v1/batch handler check it
// before submitting anything, so a rejected batch executes no point.
func (b BatchSpec) Validate() error {
	if len(b.Specs) == 0 {
		return fmt.Errorf("service: empty batch")
	}
	if len(b.Specs) > MaxBatchPoints {
		return fmt.Errorf("service: batch of %d points exceeds the %d-point limit", len(b.Specs), MaxBatchPoints)
	}
	for i, s := range b.Specs {
		if _, err := s.Config(); err != nil {
			return fmt.Errorf("service: batch point %d: %w", i, err)
		}
	}
	return nil
}

// RunBatch executes every point of a batch on b: it validates the
// batch, submits every point in the caller's order, then follows each
// through b.Watch, invoking onPoint (which may be nil) from a single
// goroutine at a time as each point completes. It returns the aggregate
// in submission order. Duplicate specs within the batch coalesce like
// any concurrent submissions, and points that share a checkpoint-tree
// node share its one build through the warm store's single-flight,
// whichever is submitted first. A canceled ctx abandons the watches
// (submitted jobs run on — they may be coalesced with other clients'
// submissions) and returns with the unfinished points marked failed.
func RunBatch(ctx context.Context, b Backend, spec BatchSpec, onPoint func(BatchPoint)) (BatchResult, error) {
	if err := spec.Validate(); err != nil {
		return BatchResult{}, err
	}

	res := BatchResult{Points: make([]BatchPoint, len(spec.Specs))}
	// Submit everything up front so the backend sees the whole sweep
	// (coalescing duplicates), then watch per point concurrently.
	ids := make([]string, len(spec.Specs))
	for i, ps := range spec.Specs {
		st, err := b.Submit(ctx, ps)
		if err != nil {
			return BatchResult{}, fmt.Errorf("service: batch point %d: %w", i, err)
		}
		ids[i] = st.ID
	}

	var mu sync.Mutex // serializes onPoint and res updates
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := b.Watch(ctx, ids[i], nil)
			if err != nil {
				st = JobStatus{ID: ids[i], State: StateFailed, Error: err.Error()}
			}
			pt := BatchPoint{Index: i, Status: PayloadFor(st)}
			mu.Lock()
			defer mu.Unlock()
			res.Points[i] = pt
			if st.State != StateDone {
				res.Failed++
			}
			if onPoint != nil {
				onPoint(pt)
			}
		}(i)
	}
	wg.Wait()
	return res, ctx.Err()
}
