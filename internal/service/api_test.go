package service

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func newTestServer(t *testing.T, opts Options) (*httptest.Server, *Pool) {
	t.Helper()
	if opts.ProgressInterval == 0 {
		opts.ProgressInterval = 2_000
	}
	p := NewPool(opts)
	srv := httptest.NewServer(NewHandler(p))
	t.Cleanup(func() {
		srv.Close()
		p.Close()
	})
	return srv, p
}

// sseEvent is one parsed Server-Sent Event.
type sseEvent struct {
	name string
	data string
}

// readSSE consumes an event stream until it ends, returning the events.
func readSSE(t *testing.T, url string) []sseEvent {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %s", url, resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q, want text/event-stream", ct)
	}
	var events []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if cur.name != "" {
				events = append(events, cur)
			}
			cur = sseEvent{}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("read SSE: %v", err)
	}
	return events
}

// TestAPISessionSubmitPollStreamResult is the acceptance-criteria
// session: submit → SSE progress stream → terminal event → poll →
// cached resubmission → result-by-hash.
func TestAPISessionSubmitPollStreamResult(t *testing.T) {
	srv, pool := newTestServer(t, Options{Workers: 1})
	client := NewClient(srv.URL)

	// Submit: big enough that the SSE subscription attaches mid-run.
	spec := specFixture()
	spec.MeasureCycles = 2_000_000
	st, err := client.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.Hash == "" || st.State.Terminal() {
		t.Fatalf("fresh submission: %+v", st)
	}

	// Stream progress until the terminal event.
	events := readSSE(t, srv.URL+"/v1/jobs/"+st.ID+"/events")
	if len(events) == 0 {
		t.Fatal("empty SSE stream")
	}
	var progress int
	for _, ev := range events[:len(events)-1] {
		if ev.name != "progress" {
			t.Errorf("unexpected mid-stream event %q", ev.name)
		}
		progress++
	}
	if progress == 0 {
		t.Error("no progress events before the terminal event")
	}
	last := events[len(events)-1]
	if last.name != string(StateDone) {
		t.Fatalf("terminal event %q, want %q", last.name, StateDone)
	}
	if !strings.Contains(last.data, `"row_hit_ratio"`) {
		t.Error("terminal event payload missing derived metrics")
	}

	// Watch to the end: done with result and metrics.
	final, err := client.Watch(context.Background(), st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone || final.Result == nil {
		t.Fatalf("final state %s, result=%v", final.State, final.Result != nil)
	}
	if final.Result.Cycles != spec.MeasureCycles {
		t.Errorf("result cycles %d, want %d", final.Result.Cycles, spec.MeasureCycles)
	}

	// Resubmission of the same config: HTTP 200, served from cache.
	resub, err := client.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if resub.State != StateDone || !resub.Cached {
		t.Fatalf("resubmission state=%s cached=%v", resub.State, resub.Cached)
	}
	if resub.Hash != st.Hash {
		t.Errorf("hash changed across submissions: %s vs %s", resub.Hash, st.Hash)
	}

	// Result by hash.
	res, ok, err := client.ResultByHash(context.Background(), st.Hash)
	if err != nil || !ok {
		t.Fatalf("ResultByHash: ok=%v err=%v", ok, err)
	}
	if res.Cycles != final.Result.Cycles || res.Instructions != final.Result.Instructions {
		t.Error("hash lookup returned a different result")
	}

	// SSE on a terminal job: terminal event only.
	tail := readSSE(t, srv.URL+"/v1/jobs/"+st.ID+"/events")
	if len(tail) != 1 || tail[0].name != string(StateDone) {
		t.Fatalf("terminal-job stream: %+v", tail)
	}

	// The whole session cost exactly one execution.
	if n := pool.Stats().Executions; n != 1 {
		t.Errorf("executions %d (want 1)", n)
	}
	h, err := client.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Errorf("health %q", h.Status)
	}
}

func TestAPIErrorPaths(t *testing.T) {
	srv, _ := newTestServer(t, Options{Workers: 1})
	client := NewClient(srv.URL)

	// Malformed and invalid specs.
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: %d, want 400", resp.StatusCode)
	}
	if _, err := client.Submit(context.Background(), JobSpec{Workload: "nope"}); err == nil {
		t.Error("unknown workload must be rejected")
	}

	// Unknown job and hash.
	if _, err := client.Job(context.Background(), "j-missing"); err == nil {
		t.Error("unknown job must 404")
	}
	if _, ok, err := client.ResultByHash(context.Background(), "deadbeef"); err != nil || ok {
		t.Errorf("unknown hash: ok=%v err=%v", ok, err)
	}
	resp, err = http.Get(srv.URL + "/v1/jobs/j-missing/events")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("events for unknown job: %d, want 404", resp.StatusCode)
	}
}

func TestAPICancelEndpoint(t *testing.T) {
	srv, _ := newTestServer(t, Options{Workers: 1})
	client := NewClient(srv.URL)
	st, err := client.Submit(context.Background(), longSpec())
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %d, want 200", resp.StatusCode)
	}
	final, err := client.Watch(context.Background(), st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateCanceled {
		t.Errorf("state %s after cancel, want canceled", final.State)
	}
}

// TestConcurrentAPISubmissions hammers the API from many goroutines
// with a mix of duplicate and distinct configs (run under -race in CI).
func TestConcurrentAPISubmissions(t *testing.T) {
	srv, pool := newTestServer(t, Options{Workers: 4})
	client := NewClient(srv.URL)

	const clients = 12
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		go func(i int) {
			spec := specFixture()
			spec.Seed = int64(i%3 + 1) // 3 distinct configs, 4 submitters each
			st, err := client.Submit(context.Background(), spec)
			if err == nil {
				st, err = client.Watch(context.Background(), st.ID, nil)
			}
			if err == nil && st.State != StateDone {
				err = fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
			}
			errs <- err
		}(i)
	}
	for i := 0; i < clients; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if st := pool.Stats(); st.Executions != 3 {
		t.Errorf("%d executions for 3 distinct configs, want 3", st.Executions)
	}
}
