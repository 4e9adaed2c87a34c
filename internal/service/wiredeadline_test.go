package service

import (
	"context"
	"net"
	"net/http/httptest"
	"testing"
	"time"

	"bump/internal/wire"
)

// TestWireConnReusableAfterSlowCall is the deadline-leak regression
// test: a unary wire call arms an absolute request deadline on its
// connection; if that deadline rides the conn back into the pool, any
// reuse after it expires fails its IO — and the failure is masked by a
// silent redial (the reused-conn retry), visible only as Dials > 1. A
// pooled conn must remain usable across an idle gap longer than the
// request timeout, on the same dial.
func TestWireConnReusableAfterSlowCall(t *testing.T) {
	pool := NewPool(Options{Workers: 2})
	defer pool.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ws := wire.Serve(l, NewWireHandler(pool))
	defer ws.Close()
	srv := httptest.NewServer(NewHandlerInfo(pool, ServerInfo{WireAddr: l.Addr().String()}))
	defer srv.Close()

	spec := JobSpec{Workload: "web-search", Mechanism: "bump", WarmupCycles: 1_000, MeasureCycles: 2_000}
	c := NewClient(srv.URL)
	c.RequestTimeout = 250 * time.Millisecond
	defer c.Close()

	ctx := context.Background()
	if _, err := c.Submit(ctx, spec); err != nil {
		t.Fatal(err)
	}
	if c.WireStats().Calls == 0 {
		t.Fatal("client did not negotiate onto the wire path")
	}

	// Idle past the first call's absolute deadline before reusing.
	time.Sleep(2 * c.RequestTimeout)

	if _, err := c.Submit(ctx, spec); err != nil {
		t.Fatal(err)
	}
	st := c.WireStats()
	if st.Fallbacks != 0 {
		t.Fatalf("wire client fell back to JSON %d times", st.Fallbacks)
	}
	if st.Dials != 1 || st.Reuses < 1 {
		t.Fatalf("dials=%d reuses=%d; the idle gap must reuse the pooled conn, not redial around a stale deadline", st.Dials, st.Reuses)
	}
}
