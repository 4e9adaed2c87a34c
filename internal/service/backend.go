package service

import (
	"context"
	"errors"
	"net/http"

	"bump/internal/sim"
)

// Backend is the /v1 job API. Both daemons serve one: bumpd a local
// *Pool, bumpctl the cluster Coordinator. MountJobs serves any Backend
// over HTTP and NewWireHandler over the binary wire protocol, with one
// error-to-status mapping (errStatus), so the four daemon × transport
// pairs answer alike. *Client is a Backend too, over
// whichever transport it negotiates, which lets a caller hold a local
// pool or a remote server behind one value.
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
	// order. The Pool and the Coordinator run RunBatch over themselves.
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

// NewPoolWireBackend returns p itself: a *Pool is the Backend of a
// local pool. It remains for callers written before Pool implemented
// Backend.
func NewPoolWireBackend(p *Pool) Backend { return p }
