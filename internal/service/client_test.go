package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"bump/internal/chaos/faultserver"
)

// faultServer runs a fault-injecting handler (see
// internal/chaos/faultserver, shared with the cluster tests) and
// returns a client pointed at it.
func faultServer(t *testing.T, h faultserver.Handler) *Client {
	t.Helper()
	return NewClient(faultserver.New(t, h).URL)
}

func TestClientNonJSONErrorBody(t *testing.T) {
	c := faultServer(t, faultserver.NonJSON500())
	_, err := c.Job(context.Background(), "j1")
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("want APIError, got %v", err)
	}
	if apiErr.Code != http.StatusInternalServerError {
		t.Errorf("code %d, want 500", apiErr.Code)
	}
	if apiErr.Worker != c.Base() {
		t.Errorf("worker %q, want %q", apiErr.Worker, c.Base())
	}
	// The HTML body must not leak into the message; the HTTP status is
	// the fallback.
	if !strings.Contains(apiErr.Message, "500") {
		t.Errorf("message %q does not carry the status", apiErr.Message)
	}
}

func TestClientJSONErrorBody(t *testing.T) {
	c := faultServer(t, faultserver.JSONError(http.StatusNotFound, "no such job"))
	_, err := c.Job(context.Background(), "j1")
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Code != 404 || apiErr.Message != "no such job" {
		t.Fatalf("got %v, want 404 'no such job'", err)
	}
	if !strings.Contains(apiErr.Error(), c.Base()) {
		t.Errorf("error string %q does not identify the worker", apiErr.Error())
	}
}

func TestClientGarbage200Body(t *testing.T) {
	c := faultServer(t, faultserver.Garbage200())
	if _, err := c.Job(context.Background(), "j1"); err == nil || !strings.Contains(err.Error(), "decode") {
		t.Fatalf("garbage 200 body must fail decoding, got %v", err)
	}
}

// TestClientHungServer: a server that accepts and never answers must
// not block calls past RequestTimeout; a Watch that cannot even open
// its stream is bounded the same way.
func TestClientHungServer(t *testing.T) {
	c := faultServer(t, faultserver.Hung())
	c.RequestTimeout = 50 * time.Millisecond

	for name, call := range map[string]func() error{
		"Job":    func() error { _, err := c.Job(context.Background(), "j1"); return err },
		"Submit": func() error { _, err := c.Submit(context.Background(), JobSpec{Mechanism: "bump"}); return err },
		"Health": func() error { _, err := c.Health(context.Background()); return err },
		"Watch":  func() error { _, err := c.Watch(context.Background(), "j1", nil); return err },
	} {
		start := time.Now()
		err := call()
		if err == nil {
			t.Fatalf("%s against a hung server must fail", name)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("%s blocked %s despite a 50ms request timeout", name, elapsed)
		}
	}
}

func TestClientCanceledContext(t *testing.T) {
	c := faultServer(t, func(w http.ResponseWriter, r *http.Request, stop <-chan struct{}) {
		fmt.Fprint(w, `{}`)
	})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Job(ctx, "j1"); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled context: %v", err)
	}
	if _, err := c.Submit(ctx, JobSpec{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled context: %v", err)
	}
}

// TestClientSlowSSE: an events stream that dribbles forever is
// abandoned cleanly when the caller's context expires, delivering the
// events received so far.
func TestClientSlowSSE(t *testing.T) {
	c := faultServer(t, faultserver.SlowSSE(20*time.Millisecond))
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	var got int
	err := c.Events(ctx, "j1", func(ev Event) error {
		if ev.Name == "progress" {
			got++
		}
		return nil
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("slow stream: %v", err)
	}
	if got == 0 {
		t.Error("no events delivered before abandoning the slow stream")
	}
}

// TestClientSSEConnectTimeout: a server that hangs before sending SSE
// headers is bounded by RequestTimeout even though streams have no
// overall deadline.
func TestClientSSEConnectTimeout(t *testing.T) {
	c := faultServer(t, faultserver.Hung())
	c.RequestTimeout = 50 * time.Millisecond
	start := time.Now()
	err := c.Events(context.Background(), "j1", func(Event) error { return nil })
	if err == nil {
		t.Fatal("hung SSE connect must fail")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("SSE connect ignored the request timeout")
	}
}

// TestClientEventsCallbackError: fn's error aborts the stream and
// propagates.
func TestClientEventsCallbackError(t *testing.T) {
	c := faultServer(t, func(w http.ResponseWriter, r *http.Request, stop <-chan struct{}) {
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprint(w, "event: progress\ndata: {}\n\n")
	})
	sentinel := errors.New("stop")
	if err := c.Events(context.Background(), "j1", func(Event) error { return sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("callback error not propagated: %v", err)
	}
}

// TestClientStreamErrorEvent: an `error` event on a stream that has
// already started carries the server's status and message, and Watch
// and Batch both return them as an *APIError naming the server.
func TestClientStreamErrorEvent(t *testing.T) {
	c := faultServer(t, func(w http.ResponseWriter, r *http.Request, stop <-chan struct{}) {
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprint(w, "event: progress\ndata: {}\n\n")
		fmt.Fprint(w, "event: error\ndata: {\"error\":\"cluster: no healthy workers\",\"code\":503}\n\n")
	})
	c.DisableWire = true
	_, watchErr := c.Watch(context.Background(), "j1", nil)
	_, batchErr := c.Batch(context.Background(), BatchSpec{Specs: []JobSpec{specFixture()}}, nil)
	for name, err := range map[string]error{"watch": watchErr, "batch": batchErr} {
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.Code != http.StatusServiceUnavailable ||
			apiErr.Message != "cluster: no healthy workers" || apiErr.Worker != c.Base() {
			t.Errorf("%s: %v, want a 503 APIError with the server's message", name, err)
		}
	}
}

// TestClientAgainstRealServer exercises the happy path of the new
// client surface (Cancel, Events, Batch) against a live pool handler.
func TestClientAgainstRealServer(t *testing.T) {
	srv, _ := newTestServer(t, Options{Workers: 2})
	c := NewClient(srv.URL)

	// Batch: points stream in and the aggregate is ordered.
	specs := []JobSpec{specFixture(), specFixture(), specFixture()}
	specs[1].Seed = 2
	specs[2].Seed = 3
	var streamed int
	res, err := c.Batch(context.Background(), BatchSpec{Specs: specs}, func(BatchPoint) { streamed++ })
	if err != nil {
		t.Fatal(err)
	}
	if streamed != len(specs) || res.Failed != 0 || len(res.Points) != len(specs) {
		t.Fatalf("batch: streamed=%d failed=%d points=%d", streamed, res.Failed, len(res.Points))
	}
	for i, pt := range res.Points {
		if pt.Index != i || pt.Status.Result == nil {
			t.Fatalf("point %d misordered or missing result", i)
		}
	}
	payloads, err := res.Results()
	if err != nil || len(payloads) != len(specs) {
		t.Fatalf("Results(): %v", err)
	}

	// Events on a fresh long job, then Cancel it mid-stream.
	long := longSpec()
	st, err := c.Submit(context.Background(), long)
	if err != nil {
		t.Fatal(err)
	}
	sawTerminal := ""
	done := make(chan error, 1)
	go func() {
		done <- c.Events(context.Background(), st.ID, func(ev Event) error {
			if ev.Terminal() {
				sawTerminal = ev.Name
			}
			return nil
		})
	}()
	time.Sleep(20 * time.Millisecond)
	if _, err := c.Cancel(context.Background(), st.ID); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if sawTerminal != string(StateCanceled) {
		t.Fatalf("terminal event %q, want canceled", sawTerminal)
	}

	// Empty batch is rejected.
	if _, err := c.Batch(context.Background(), BatchSpec{}, nil); err == nil {
		t.Fatal("empty batch must be rejected")
	}
}
