package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"bump/internal/sim"
)

// Backend is the /v1 job API. Both daemons serve one: bumpd a local
// Pool (NewPoolWireBackend), bumpctl the cluster Coordinator. MountJobs
// serves any Backend over HTTP and NewWireHandler over the binary wire
// protocol, with one error-to-status mapping (errStatus), so the four
// daemon × transport pairs answer alike. *Client is a Backend too, over
// whichever transport it negotiates, which lets a caller hold a local
// pool, a remote server or an embedded coordinator behind one value.
type Backend interface {
	// Submit queues a spec, joins an in-flight job with the same config
	// hash, or answers from the result cache with a status born done.
	Submit(ctx context.Context, spec JobSpec) (JobStatus, error)
	// Job returns a job's current status.
	Job(ctx context.Context, id string) (JobStatus, error)
	// Cancel aborts a queued or running job; ErrTerminal once it is
	// done, failed or canceled.
	Cancel(ctx context.Context, id string) (JobStatus, error)
	// Watch delivers progress snapshots to onProgress (serialized, may
	// be nil, never called after return) and returns the terminal
	// status.
	Watch(ctx context.Context, id string, onProgress func(sim.Progress)) (JobStatus, error)
	// ResultByHash looks a cached result up by config hash; ok=false
	// means none is held, which is not an error.
	ResultByHash(ctx context.Context, hash string) (sim.Result, bool, error)
	// Batch runs a whole sweep, delivering completions to onPoint
	// (serialized, may be nil), and returns the aggregate in submission
	// order.
	Batch(ctx context.Context, spec BatchSpec, onPoint func(BatchPoint)) (BatchResult, error)
}

var _ Backend = (*Client)(nil)

// errStatus maps a Backend error to the HTTP status both transports
// report: an *APIError keeps its code, the pool's sentinel errors map
// to 503/404/409, and anything else is the caller's fault (400).
func errStatus(err error) int {
	var apiErr *APIError
	switch {
	case errors.As(err, &apiErr):
		return apiErr.Code
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrUnknownJob):
		return http.StatusNotFound
	case errors.Is(err, ErrTerminal):
		return http.StatusConflict
	default:
		return http.StatusBadRequest
	}
}

// errMessage is the message sent with errStatus's code: an *APIError's
// own message (its code and worker travel separately), else the error
// text.
func errMessage(err error) string {
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		return apiErr.Message
	}
	return err.Error()
}

// poolBackend adapts a local Pool to Backend.
type poolBackend struct {
	p *Pool
}

// NewPoolWireBackend returns the Backend of a local Pool: bumpd serves
// it over HTTP (NewHandlerInfo) and over the wire protocol
// (NewWireHandler), and cmd/sweep runs in-process sweeps through it.
func NewPoolWireBackend(p *Pool) Backend { return poolBackend{p: p} }

func (b poolBackend) Submit(_ context.Context, spec JobSpec) (JobStatus, error) {
	return b.p.Submit(spec)
}

func (b poolBackend) Job(_ context.Context, id string) (JobStatus, error) {
	return b.p.Job(id)
}

func (b poolBackend) Cancel(_ context.Context, id string) (JobStatus, error) {
	if _, err := b.p.Job(id); err != nil {
		return JobStatus{}, err
	}
	if !b.p.Cancel(id) {
		return JobStatus{}, fmt.Errorf("%w: %s", ErrTerminal, id)
	}
	return b.p.Job(id)
}

func (b poolBackend) Watch(ctx context.Context, id string, onProgress func(sim.Progress)) (JobStatus, error) {
	ch, cancel, err := b.p.Subscribe(id)
	if err != nil {
		return JobStatus{}, err
	}
	defer cancel()
	for {
		select {
		case <-ctx.Done():
			return JobStatus{}, ctx.Err()
		case pr, ok := <-ch:
			if !ok {
				return b.p.Job(id)
			}
			if onProgress != nil {
				onProgress(pr)
			}
		}
	}
}

func (b poolBackend) ResultByHash(_ context.Context, hash string) (sim.Result, bool, error) {
	res, ok := b.p.ResultByHash(hash)
	return res, ok, nil
}

func (b poolBackend) Batch(ctx context.Context, spec BatchSpec, onPoint func(BatchPoint)) (BatchResult, error) {
	return RunBatch(ctx, b.p, spec, onPoint)
}
