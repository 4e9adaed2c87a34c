package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"bump/internal/service"
	"bump/internal/sim"
)

// RouteKey returns a spec's affinity key. Warm-cacheable configurations
// key by sim.WarmKey — the structural digest shared by every point of a
// measured-parameter sweep — so the whole sweep pins to one worker and
// its WarmStore simulates the warmup once. Everything else keys by the
// full config hash, which still pins duplicate submissions (and their
// result-cache hits) to one worker. warm reports which case applied.
func RouteKey(spec service.JobSpec) (key string, warm bool, err error) {
	cfg, err := spec.Config()
	if err != nil {
		return "", false, err
	}
	if wk, ok := sim.WarmKey(cfg); ok {
		return wk, true, nil
	}
	hash, err := service.Hash(cfg)
	if err != nil {
		return "", false, err
	}
	return hash, false, nil
}

// ErrNoWorkers is returned when no admitted worker remains to try.
var ErrNoWorkers = errors.New("cluster: no healthy workers")

// pick returns the first up, untried worker in the key's preference
// sequence (the ring and tried are both keyed by worker URL), so a down
// worker's warm-affinity keys remap to its ring successors here.
func (c *Coordinator) pick(key string, tried map[string]bool) (*Worker, bool) {
	for _, url := range c.reg.Ring().Sequence(key) {
		if !tried[url] && c.reg.Up(url) {
			return c.reg.Worker(url)
		}
	}
	return nil, false
}

// clientFault reports whether an error is the caller's own fault (bad
// spec → 4xx), where failing over to another worker would only repeat
// the rejection. Worker-side trouble (transport errors, 5xx, a lost job
// ID after a restart → 404) stays retryable.
func clientFault(err error) bool {
	var apiErr *service.APIError
	if !errors.As(err, &apiErr) {
		return false
	}
	return apiErr.Code == http.StatusBadRequest
}

// place submits a spec down the key's preference sequence: consistent-
// hash placement by affinity key, each worker-side submit failure
// striking the worker (counting toward ejection) and moving down the
// ring. tried accumulates struck worker URLs so a caller retrying after
// a later failure (e.g. a lost watch) never resubmits to a worker it
// already gave up on; pass nil to start fresh. The returned status
// carries the worker-local job ID. Re-execution on the next worker is
// safe because results are a deterministic function of the
// configuration, and a worker that lacks the key's warm checkpoint
// simulates the warmup once.
func (c *Coordinator) place(ctx context.Context, key string, spec service.JobSpec, tried map[string]bool) (service.JobStatus, *Worker, error) {
	if tried == nil {
		tried = make(map[string]bool)
	}
	var lastErr error
	for {
		if err := ctx.Err(); err != nil {
			return service.JobStatus{}, nil, err
		}
		w, ok := c.pick(key, tried)
		if !ok {
			if lastErr != nil {
				return service.JobStatus{}, nil, fmt.Errorf("cluster: all workers failed, last: %w", lastErr)
			}
			return service.JobStatus{}, nil, ErrNoWorkers
		}
		st, err := w.Client.Submit(ctx, spec)
		switch {
		case err == nil:
			return st, w, nil
		case ctx.Err() != nil:
			return service.JobStatus{}, nil, ctx.Err()
		case clientFault(err):
			return service.JobStatus{}, nil, err
		}
		// Worker-side failure: strike it, move down the sequence.
		c.reg.ReportFailure(w.URL, err)
		tried[w.URL] = true
		lastErr = err
	}
}
