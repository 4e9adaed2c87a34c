// Package chaos provides controllable network-fault injection for
// cluster tests: a reverse proxy whose link can be cut, restored,
// slowed or stalled at runtime, standing between a coordinator and a
// worker. Imports only the standard library so it can never cycle with
// the packages under test.
package chaos

import (
	"context"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Proxy forwards HTTP traffic to a target, with runtime-switchable
// faults: Drop severs every new connection at the TCP level (a dead
// host, not a polite 5xx), Delay adds fixed latency to each request,
// and Stall freezes the link with its sockets open (a hung host).
type Proxy struct {
	srv   *httptest.Server
	drop  atomic.Bool
	delay atomic.Int64 // nanoseconds

	mu     sync.Mutex
	resume chan struct{} // non-nil while stalled; Stall(false) closes it
}

// NewProxy starts a proxy in front of target (a base URL).
func NewProxy(t testing.TB, target string) *Proxy {
	t.Helper()
	u, err := url.Parse(target)
	if err != nil {
		t.Fatalf("chaos: bad proxy target %q: %v", target, err)
	}
	p := &Proxy{}
	rp := httputil.NewSingleHostReverseProxy(u)
	rp.ErrorHandler = func(w http.ResponseWriter, r *http.Request, err error) {
		w.WriteHeader(http.StatusBadGateway)
	}
	p.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if p.wait(r.Context()) != nil {
			return
		}
		if d := time.Duration(p.delay.Load()); d > 0 {
			select {
			case <-time.After(d):
			case <-r.Context().Done():
				return
			}
		}
		if p.drop.Load() {
			// Sever the connection without a response: indistinguishable
			// from a host that died.
			if hj, ok := w.(http.Hijacker); ok {
				if conn, _, err := hj.Hijack(); err == nil {
					conn.Close()
					return
				}
			}
			panic(http.ErrAbortHandler)
		}
		rp.ServeHTTP(stallWriter{w, p, r.Context()}, r)
	}))
	t.Cleanup(p.srv.Close)
	return p
}

// URL is the proxy's front address — hand this to the component whose
// link should be faultable.
func (p *Proxy) URL() string { return p.srv.URL }

// Drop cuts (true) or restores (false) the link.
func (p *Proxy) Drop(on bool) { p.drop.Store(on) }

// Delay sets the per-request added latency (0 restores full speed).
func (p *Proxy) Delay(d time.Duration) { p.delay.Store(int64(d)) }

// Stall freezes (true) or thaws (false) the link without closing it:
// while stalled, new requests and the body writes of responses already
// streaming wait, as if the host hung with its sockets open. A waiting
// request gives up only when its client disconnects.
func (p *Proxy) Stall(on bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	switch {
	case on && p.resume == nil:
		p.resume = make(chan struct{})
	case !on && p.resume != nil:
		close(p.resume)
		p.resume = nil
	}
}

// wait blocks while the link is stalled, until it thaws or ctx ends.
func (p *Proxy) wait(ctx context.Context) error {
	p.mu.Lock()
	resume := p.resume
	p.mu.Unlock()
	if resume == nil {
		return nil
	}
	select {
	case <-resume:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// stallWriter holds each response body write while the link is
// stalled.
type stallWriter struct {
	http.ResponseWriter
	p   *Proxy
	ctx context.Context
}

func (w stallWriter) Write(b []byte) (int, error) {
	if err := w.p.wait(w.ctx); err != nil {
		return 0, err
	}
	return w.ResponseWriter.Write(b)
}

// Unwrap lets the reverse proxy flush streamed responses through the
// wrapper.
func (w stallWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }
