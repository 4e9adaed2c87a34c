package service

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"bump/internal/sim"
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
	_, err := b.configs()
	return err
}

// configs is Validate returning every point's resolved configuration.
func (b BatchSpec) configs() ([]sim.Config, error) {
	if len(b.Specs) == 0 {
		return nil, fmt.Errorf("service: empty batch")
	}
	if len(b.Specs) > MaxBatchPoints {
		return nil, fmt.Errorf("service: batch of %d points exceeds the %d-point limit", len(b.Specs), MaxBatchPoints)
	}
	cfgs := make([]sim.Config, len(b.Specs))
	for i, s := range b.Specs {
		cfg, err := s.Config()
		if err != nil {
			return nil, fmt.Errorf("service: batch point %d: %w", i, err)
		}
		cfgs[i] = cfg
	}
	return cfgs, nil
}

// planBatch returns the submission order for a batch whose points
// resolved to cfgs: points are grouped by the checkpoint-tree ancestor
// they restore — the structural warm key plus the restore cut — with
// shallower cuts first within a structural family. A sweep whose points
// fork from a shared trunk is therefore dispatched trunk-prefix first:
// the single-flight warm store sees the shallow builders lead and the
// branches park as waiters, instead of an arbitrary point racing to
// rebuild an ancestor another point is already simulating. The result
// is a permutation of spec indices; per-point results are still
// reported by original index.
func planBatch(spec BatchSpec, cfgs []sim.Config) []int {
	type pt struct {
		idx int
		key string // structural warm key
		cut uint64 // restore cut: the bind cycle
		pri int    // user priority, preserved as the leading sort key
	}
	pts := make([]pt, len(cfgs))
	for i, cfg := range cfgs {
		// Every resolved config has a warm key: a zero warmup selects
		// the default window.
		key, _ := sim.WarmKey(cfg)
		pts[i] = pt{idx: i, key: key, cut: cfg.BindCycle(), pri: spec.Specs[i].Priority}
	}
	sort.SliceStable(pts, func(a, b int) bool {
		pa, pb := pts[a], pts[b]
		if pa.pri != pb.pri {
			return pa.pri > pb.pri
		}
		if pa.key != pb.key {
			return pa.key < pb.key
		}
		return pa.cut < pb.cut
	})
	order := make([]int, len(pts))
	for i, p := range pts {
		order[i] = p.idx
	}
	return order
}

// RunBatch executes every point of a batch on b: it validates the
// batch, submits every point in planBatch order, then follows each
// through b.Watch, invoking onPoint (which may be nil) from a single
// goroutine at a time as each point completes. It returns the aggregate
// in submission order. Duplicate specs within the batch coalesce like
// any concurrent submissions. A canceled ctx abandons the watches
// (submitted jobs run on — they may be coalesced with other clients'
// submissions) and returns with the unfinished points marked failed.
func RunBatch(ctx context.Context, b Backend, spec BatchSpec, onPoint func(BatchPoint)) (BatchResult, error) {
	cfgs, err := spec.configs()
	if err != nil {
		return BatchResult{}, err
	}

	res := BatchResult{Points: make([]BatchPoint, len(spec.Specs))}
	// Submit everything up front so the backend sees the whole sweep
	// (coalescing duplicates), then watch per point concurrently.
	// Submission order groups points by shared checkpoint-tree ancestor
	// (see planBatch); results stay indexed by the caller's order.
	ids := make([]string, len(spec.Specs))
	for _, i := range planBatch(spec, cfgs) {
		st, err := b.Submit(ctx, spec.Specs[i])
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
