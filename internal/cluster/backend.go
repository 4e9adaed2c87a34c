package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"bump/internal/obs"
	"bump/internal/service"
	"bump/internal/sim"
)

// This file is the coordinator's service.Backend — the /v1 job API
// that service.MountJobs serves over HTTP and service.NewWireHandler
// over the wire protocol — plus the checkpoint transfer machinery
// (prefetch-on-failover and background replication).

var _ service.Backend = (*Coordinator)(nil)

// coerceAPIError maps a worker-call failure onto an APIError: API
// errors pass through with the worker's code, transport failures
// become 502.
func coerceAPIError(err error) error {
	var apiErr *service.APIError
	if errors.As(err, &apiErr) {
		return err
	}
	return &service.APIError{Code: http.StatusBadGateway, Message: err.Error()}
}

// unknownJob is the Backend error for an ID the store does not hold.
func unknownJob(id string) error {
	return fmt.Errorf("%w %s", service.ErrUnknownJob, id)
}

// Submit routes a spec to its affinity worker (failing over on submit
// errors), records the job durably under a coordinator-minted ID, and
// spawns its driver. The answer is the worker's status under that ID —
// the same queued/cached semantics as a single worker — and the ID is
// persisted before the caller sees it, so it stays answerable across a
// coordinator restart.
func (c *Coordinator) Submit(ctx context.Context, spec service.JobSpec) (service.JobStatus, error) {
	key, _, err := RouteKey(spec)
	if err != nil {
		return service.JobStatus{}, &service.APIError{Code: http.StatusBadRequest, Message: err.Error()}
	}
	// Mint the fleet-wide trace ID before placement so the worker's
	// spans share it; the coordinator ID does not exist yet, so the
	// route span is recorded retroactively below (spans carry explicit
	// start/end times).
	if c.tracer != nil && spec.TraceID == "" {
		spec.TraceID = obs.NewTraceID()
	}
	routeT0 := time.Now()
	st, wk, err := c.place(ctx, key, spec, nil)
	switch {
	case errors.Is(err, ErrNoWorkers):
		return service.JobStatus{}, &service.APIError{Code: http.StatusServiceUnavailable, Message: err.Error()}
	case err != nil:
		return service.JobStatus{}, coerceAPIError(err)
	}
	id := c.store.NextJobID()
	if c.tracer != nil {
		c.tracer.Begin(id, spec.TraceID)
		c.noteKeyJob(key, id)
		c.span(id, "route", routeT0, time.Now(),
			obs.SpanArg{Key: "worker", Val: wk.ID},
			obs.SpanArg{Key: "key", Val: key})
	}
	rec := JobRecord{ID: id, Spec: spec, Key: key, Hash: st.Hash, State: st.State}
	if st.State.Terminal() {
		applyStatus(&rec, st)
		rec.Worker = wk.ID
		if err := c.store.PutJob(rec); err != nil {
			return service.JobStatus{}, &service.APIError{Code: http.StatusInternalServerError, Message: err.Error()}
		}
		c.retireJob(id)
		st.ID = id
		return st, nil
	}
	rec.Worker, rec.Local = wk.ID, st.ID
	if err := c.store.PutJob(rec); err != nil {
		return service.JobStatus{}, &service.APIError{Code: http.StatusInternalServerError, Message: err.Error()}
	}
	c.mu.Lock()
	c.inflight[wk.ID]++
	c.mu.Unlock()
	c.wg.Add(1)
	go c.drive(id)
	st.ID = id
	return st, nil
}

// Job answers a status query: live from the assigned worker when
// reachable, from the store otherwise (the driver is re-routing behind
// the scenes).
func (c *Coordinator) Job(ctx context.Context, id string) (service.JobStatus, error) {
	rec, ok := c.store.Job(id)
	if !ok {
		return service.JobStatus{}, unknownJob(id)
	}
	if !rec.State.Terminal() && rec.Worker != "" {
		if wk, okw := c.reg.Worker(rec.Worker); okw {
			if st, err := wk.Client.Job(ctx, rec.Local); err == nil {
				st.ID = rec.ID
				return st, nil
			}
		}
	}
	return statusFromRecord(rec), nil
}

// Cancel aborts a job: a placed one on its worker, an unplaced one in
// the store, where its driver sees the terminal record and stands down.
func (c *Coordinator) Cancel(ctx context.Context, id string) (service.JobStatus, error) {
	rec, ok := c.store.Job(id)
	switch {
	case !ok:
		return service.JobStatus{}, unknownJob(id)
	case rec.State.Terminal():
		return service.JobStatus{}, fmt.Errorf("%w: %s", service.ErrTerminal, id)
	}
	if rec.Worker != "" {
		if wk, okw := c.reg.Worker(rec.Worker); okw {
			st, err := wk.Client.Cancel(ctx, rec.Local)
			if err != nil {
				return service.JobStatus{}, coerceAPIError(err)
			}
			st.ID = rec.ID
			return st, nil
		}
	}
	rec.State = service.StateCanceled
	if err := c.store.PutJob(rec); err != nil {
		return service.JobStatus{}, &service.APIError{Code: http.StatusInternalServerError, Message: err.Error()}
	}
	return statusFromRecord(rec), nil
}

// Watch follows a job to its terminal state, relaying its worker's
// progress. A job mid-failover (unplaced, or its worker just died) is
// re-polled on the retry cadence rather than erroring: the driver is
// re-placing it, and the watch resumes on the new worker. A failed
// worker watch strikes the worker, as a failed wait does.
func (c *Coordinator) Watch(ctx context.Context, id string, onProgress func(sim.Progress)) (service.JobStatus, error) {
	for {
		rec, ok := c.store.Job(id)
		if !ok {
			return service.JobStatus{}, unknownJob(id)
		}
		if rec.State.Terminal() {
			return statusFromRecord(rec), nil
		}
		if wk, okw := c.reg.Worker(rec.Worker); okw && rec.Worker != "" {
			st, err := wk.Client.Watch(ctx, rec.Local, onProgress)
			if err == nil {
				st.ID = rec.ID
				return st, nil
			}
			if ctx.Err() == nil {
				c.reg.ReportFailure(wk.ID, err)
			}
		}
		select {
		case <-ctx.Done():
			return service.JobStatus{}, ctx.Err()
		case <-c.ctx.Done():
			return service.JobStatus{}, c.ctx.Err()
		case <-time.After(c.opts.RetryInterval):
		}
	}
}

// ResultByHash looks a cached result up across the admitted fleet: the
// affinity worker cannot be derived from the hash alone (hashes cover
// measured parameters, warm keys do not), so admitted workers are asked
// in turn.
func (c *Coordinator) ResultByHash(ctx context.Context, hash string) (sim.Result, bool, error) {
	for _, wk := range c.reg.Workers() {
		if !c.reg.Up(wk.ID) {
			continue
		}
		res, ok, err := wk.Client.ResultByHash(ctx, hash)
		if err != nil || !ok {
			continue
		}
		return res, true, nil
	}
	return sim.Result{}, false, nil
}

// ---- Checkpoint transfer ----------------------------------------------

// prefetchTimeout bounds one checkpoint transfer ahead of a submit —
// generous against warm checkpoints of tens of MB, small against the
// warmup simulation the transfer replaces.
const prefetchTimeout = 15 * time.Second

// defaultReplicaTargets is how many leading routable ring successors
// ReplicateOnce keeps supplied per digest when Options.Replicas is
// unset: the second is exactly the failover target if the first (the
// affinity owner) dies.
const defaultReplicaTargets = 2

// replicateMemo is how long a (worker, digest) replication attempt is
// remembered before it may be retried.
const replicateMemo = 30 * time.Second

// prefetchCheckpoint runs before each placement: if the picked worker
// does not hold key's warm checkpoint but an admitted peer does, ask
// the worker to fetch it before the spec lands — a failover placement
// then restores the warmup instead of re-simulating it. Best-effort:
// any failure just means the worker warms up the slow way.
func (c *Coordinator) prefetchCheckpoint(ctx context.Context, w *Worker, key string) {
	if c.reg.Holds(w.ID, key) {
		return
	}
	sources := c.reg.HoldersOf(key, w.ID)
	if len(sources) == 0 {
		return
	}
	fctx, cancel := context.WithTimeout(ctx, prefetchTimeout)
	defer cancel()
	t0 := time.Now()
	if ok, err := w.Client.FetchCheckpoint(fctx, key, sources); err == nil && ok {
		c.reg.MarkHolds(w.ID, key)
		c.spanForKey(key, "checkpoint.prefetch", t0, time.Now(),
			obs.SpanArg{Key: "worker", Val: w.ID},
			obs.SpanArg{Key: "digest", Val: key})
	}
}

// ReplicateOnce pushes every advertised warm-checkpoint digest —
// warmup-end roots and mid-measurement checkpoint-tree nodes are
// indistinguishable here, both being content-addressed blobs — onto the
// first Options.Replicas routable workers of its ring sequence, so the
// digest's failover target already holds the warm state before the
// owner dies. Returns the number of successful transfers.
func (c *Coordinator) ReplicateOnce(ctx context.Context) int {
	fetched := 0
	now := time.Now()
	for _, key := range c.reg.CheckpointKeys() {
		placed := 0
		for _, url := range c.reg.Ring().Sequence(key) {
			if placed >= c.opts.Replicas {
				break
			}
			w, ok := c.reg.WorkerByURL(url)
			if !ok || !c.reg.Routable(w.ID) {
				continue
			}
			placed++
			if c.reg.Holds(w.ID, key) {
				continue
			}
			memo := w.ID + "\x00" + key
			c.mu.Lock()
			last, tried := c.replicated[memo]
			if !tried || now.Sub(last) >= replicateMemo {
				c.replicated[memo] = now
				tried = false
			}
			c.mu.Unlock()
			if tried {
				continue
			}
			sources := c.reg.HoldersOf(key, w.ID)
			if len(sources) == 0 {
				continue
			}
			fctx, cancel := context.WithTimeout(ctx, prefetchTimeout)
			t0 := time.Now()
			ok2, err := w.Client.FetchCheckpoint(fctx, key, sources)
			cancel()
			if err == nil && ok2 {
				c.reg.MarkHolds(w.ID, key)
				c.spanForKey(key, "checkpoint.replicate", t0, time.Now(),
					obs.SpanArg{Key: "worker", Val: w.ID},
					obs.SpanArg{Key: "digest", Val: key})
				fetched++
			}
		}
	}
	return fetched
}

// replicateLoop runs ReplicateOnce on the probe cadence, so a fresh
// checkpoint is replicated to its failover target within roughly one
// probe round of first being advertised.
func (c *Coordinator) replicateLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.reg.opts.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-c.ctx.Done():
			return
		case <-t.C:
			c.ReplicateOnce(c.ctx)
		}
	}
}
