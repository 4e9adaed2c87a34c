package chaos

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestChaosProxyDropDelayRestore: the proxy passes traffic through
// verbatim, severs it at the TCP level under Drop, adds fixed latency
// under Delay, holds requests without an answer under Stall, and
// recovers fully when the faults are lifted.
func TestChaosProxyDropDelayRestore(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "pong")
	}))
	t.Cleanup(backend.Close)
	px := NewProxy(t, backend.URL)

	get := func() (string, error) {
		resp, err := http.Get(px.URL() + "/ping")
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		return string(b), err
	}

	if body, err := get(); err != nil || body != "pong" {
		t.Fatalf("pass-through: %q %v", body, err)
	}

	px.Drop(true)
	if _, err := get(); err == nil {
		t.Fatal("dropped link answered a request")
	}

	px.Drop(false)
	px.Delay(30 * time.Millisecond)
	start := time.Now()
	if body, err := get(); err != nil || body != "pong" {
		t.Fatalf("delayed link: %q %v", body, err)
	}
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Fatalf("request took %s, want >= 30ms of injected latency", elapsed)
	}

	px.Delay(0)
	if body, err := get(); err != nil || body != "pong" {
		t.Fatalf("restored link: %q %v", body, err)
	}

	// A stalled link answers nothing until it thaws; the request that
	// waited then completes.
	px.Stall(true)
	type answer struct {
		body string
		err  error
	}
	got := make(chan answer, 1)
	go func() {
		body, err := get()
		got <- answer{body, err}
	}()
	select {
	case a := <-got:
		t.Fatalf("stalled link answered: %q %v", a.body, a.err)
	case <-time.After(50 * time.Millisecond):
	}
	px.Stall(false)
	if a := <-got; a.err != nil || a.body != "pong" {
		t.Fatalf("thawed link: %q %v", a.body, a.err)
	}
}
