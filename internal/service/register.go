package service

import (
	"context"
	"encoding/json"
	"net/http"
	"time"
)

// RegisterRequest is a worker's heartbeat self-registration, posted to
// a coordinator's POST /v1/cluster/register: URL is the worker's
// advertised base URL (how the coordinator should reach it), and the
// embedded HealthPayload is the same self-description its /v1/healthz
// serves, so a heartbeat and a probe admit a worker alike.
type RegisterRequest struct {
	URL string `json:"url"`
	HealthPayload
}

// RegisterResponse echoes the coordinator's view of the worker: its
// assigned registry ID, health/admission state and lifecycle.
type RegisterResponse struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	Lifecycle string `json:"lifecycle"`
}

// Register posts one heartbeat self-registration to the coordinator
// behind this client.
func (c *Client) Register(ctx context.Context, req RegisterRequest) (RegisterResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return RegisterResponse{}, err
	}
	var resp RegisterResponse
	if err := c.doJSON(ctx, http.MethodPost, c.base+"/v1/cluster/register", body, &resp); err != nil {
		return RegisterResponse{}, err
	}
	return resp, nil
}

// Heartbeat registers req immediately and then re-registers it every
// interval until ctx is canceled. Failures are reported to report (may
// be nil) and retried on the next tick — a worker outliving a
// coordinator restart re-joins the fresh coordinator by just continuing
// to beat.
func (c *Client) Heartbeat(ctx context.Context, req RegisterRequest, interval time.Duration, report func(RegisterResponse, error)) {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	beat := func() {
		resp, err := c.Register(ctx, req)
		if report != nil && ctx.Err() == nil {
			report(resp, err)
		}
	}
	beat()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			beat()
		}
	}
}
