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
// over the wire protocol.

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
		c.span(id, "route", routeT0, time.Now(),
			obs.SpanArg{Key: "worker", Val: wk.ID},
			obs.SpanArg{Key: "key", Val: key})
	}
	rec := JobRecord{ID: id, Spec: spec, Key: key, Hash: st.Hash, State: st.State}
	if st.State.Terminal() {
		applyStatus(&rec, st)
		rec.Worker = wk.URL
		if err := c.store.PutJob(rec); err != nil {
			return service.JobStatus{}, &service.APIError{Code: http.StatusInternalServerError, Message: err.Error()}
		}
		c.retireJob(id)
		st.ID = id
		return st, nil
	}
	rec.Worker, rec.Local = wk.URL, st.ID
	if err := c.store.PutJob(rec); err != nil {
		return service.JobStatus{}, &service.APIError{Code: http.StatusInternalServerError, Message: err.Error()}
	}
	c.spawn(id)
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
// A job whose worker job another unfinished job follows too (the
// worker's pool coalesced their identical specs) is canceled in the
// store alone, so the other runs on; its driver is ended at once.
func (c *Coordinator) Cancel(ctx context.Context, id string) (service.JobStatus, error) {
	rec, wk, err := c.cancelRecord(id)
	switch {
	case err != nil:
		return service.JobStatus{}, err
	case wk == nil:
		return statusFromRecord(rec), nil
	}
	st, err := wk.Client.Cancel(ctx, rec.Local)
	if err != nil {
		return service.JobStatus{}, coerceAPIError(err)
	}
	st.ID = rec.ID
	return st, nil
}

// cancelRecord returns the worker Cancel must forward to, or else
// stores the job canceled and, if the job is placed, ends its driver.
// An unplaced job's driver is left to finish its placement, so that it
// learns the worker job to cancel. cancelRecord runs under c.mu: of two
// jobs sharing one worker job and canceled at once, the second sees the
// first canceled and forwards.
func (c *Coordinator) cancelRecord(id string) (JobRecord, *Worker, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rec, ok := c.store.Job(id)
	switch {
	case !ok:
		return rec, nil, unknownJob(id)
	case rec.State.Terminal():
		return rec, nil, fmt.Errorf("%w: %s", service.ErrTerminal, id)
	}
	if wk, ok := c.reg.Worker(rec.Worker); ok && !c.sharedLocal(id, rec.Worker, rec.Local) {
		return rec, wk, nil
	}
	rec.State = service.StateCanceled
	if err := c.store.PutJob(rec); errors.Is(err, service.ErrTerminal) {
		return rec, nil, err
	} else if err != nil {
		return rec, nil, &service.APIError{Code: http.StatusInternalServerError, Message: err.Error()}
	}
	if stop, ok := c.stops[id]; ok && rec.Local != "" {
		stop()
	}
	return rec, nil, nil
}

// sharedLocal reports whether an unfinished job other than id follows
// the worker job local on worker.
func (c *Coordinator) sharedLocal(id, worker, local string) bool {
	for _, j := range c.store.Jobs() {
		if local != "" && j.ID != id && !j.State.Terminal() && j.Worker == worker && j.Local == local {
			return true
		}
	}
	return false
}

// Watch follows a job to its terminal state through its driver: it
// relays the progress the driver's follow of the worker sees, across
// failovers, and returns the terminal record once the driver has
// persisted it. A job no driver carries is answered from its record:
// terminal, or unfinished because the coordinator has closed.
func (c *Coordinator) Watch(ctx context.Context, id string, onProgress func(sim.Progress)) (service.JobStatus, error) {
	// Buffered so the driver's relay never waits on this watcher.
	ch := make(chan sim.Progress, 16)
	c.mu.Lock()
	subs, tracked := c.tracks[id]
	if tracked {
		subs[ch] = struct{}{}
	}
	c.mu.Unlock()
	if tracked {
		defer func() {
			c.mu.Lock()
			delete(c.tracks[id], ch)
			c.mu.Unlock()
		}()
	loop:
		for {
			select {
			case <-ctx.Done():
				return service.JobStatus{}, ctx.Err()
			case pr, open := <-ch:
				if !open {
					break loop
				}
				if onProgress != nil {
					onProgress(pr)
				}
			}
		}
	}
	rec, ok := c.store.Job(id)
	switch {
	case !ok:
		return service.JobStatus{}, unknownJob(id)
	case !rec.State.Terminal():
		return service.JobStatus{}, &service.APIError{Code: http.StatusServiceUnavailable,
			Message: fmt.Sprintf("cluster: coordinator closed before job %s ended", id)}
	}
	return statusFromRecord(rec), nil
}

// ResultByHash looks a cached result up across the admitted fleet: the
// affinity worker cannot be derived from the hash alone (hashes cover
// measured parameters, warm keys do not), so admitted workers are asked
// in turn.
func (c *Coordinator) ResultByHash(ctx context.Context, hash string) (sim.Result, bool, error) {
	for _, wk := range c.reg.Workers() {
		if !c.reg.Up(wk.URL) {
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
