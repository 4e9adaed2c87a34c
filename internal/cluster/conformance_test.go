package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bump/internal/scenario"
	"bump/internal/service"
	"bump/internal/sim"
	"bump/internal/snapshot"
	"bump/internal/wire"
)

// jobAPI drives the /v1 job routes of one daemon over one transport,
// reporting each answer as an HTTP status plus the JSON payload a
// client sees (nil on errors).
type jobAPI interface {
	submit(t *testing.T, spec service.JobSpec) (int, []byte)
	job(t *testing.T, id string) (int, []byte)
	cancel(t *testing.T, id string) (int, []byte)
	// watch follows a job to its terminal payload, counting progress
	// snapshots on the way and calling onProgress (if not nil) on each.
	watch(t *testing.T, id string, onProgress func()) (progress, code int, payload []byte)
	result(t *testing.T, hash string) (int, []byte)
	// batch runs a sweep, streaming its points, and reports the
	// aggregate, or {"error": message} when the batch is refused.
	batch(t *testing.T, spec service.BatchSpec) (int, []byte)
}

// httpAPI speaks raw HTTP, so the statuses are the ones on the wire.
type httpAPI struct{ base string }

func (a httpAPI) do(t *testing.T, method, path string, body []byte) (*http.Response, []byte) {
	t.Helper()
	return a.doAccept(t, method, path, body, "")
}

// doAccept is do with an Accept header (none when accept is empty).
func (a httpAPI) doAccept(t *testing.T, method, path string, body []byte, accept string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, a.base+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	return resp, data
}

func (a httpAPI) submit(t *testing.T, spec service.JobSpec) (int, []byte) {
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, data := a.do(t, http.MethodPost, "/v1/jobs", body)
	return resp.StatusCode, data
}

func (a httpAPI) job(t *testing.T, id string) (int, []byte) {
	resp, data := a.do(t, http.MethodGet, "/v1/jobs/"+id, nil)
	return resp.StatusCode, data
}

func (a httpAPI) cancel(t *testing.T, id string) (int, []byte) {
	resp, data := a.do(t, http.MethodDelete, "/v1/jobs/"+id, nil)
	return resp.StatusCode, data
}

func (a httpAPI) result(t *testing.T, hash string) (int, []byte) {
	resp, data := a.do(t, http.MethodGet, "/v1/results/"+hash, nil)
	return resp.StatusCode, data
}

// watch reads the event stream as it arrives, so onProgress runs while
// the job does.
func (a httpAPI) watch(t *testing.T, id string, onProgress func()) (int, int, []byte) {
	resp, err := http.Get(a.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatalf("GET events of %s: %v", id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, resp.StatusCode, nil
	}
	var progress int
	var name, last string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			name = strings.TrimPrefix(line, "event: ")
			if name == "progress" {
				progress++
				if onProgress != nil {
					onProgress()
				}
			}
		case strings.HasPrefix(line, "data: ") && name != "progress":
			last = strings.TrimPrefix(line, "data: ")
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("events of %s: %v", id, err)
	}
	if !service.State(name).Terminal() {
		t.Fatalf("event stream for %s ended on %q, not a terminal event", id, name)
	}
	var p service.JobPayload
	if err := json.Unmarshal([]byte(last), &p); err != nil || string(p.State) != name {
		t.Fatalf("terminal event %q carries state %q (%v)", name, p.State, err)
	}
	return progress, http.StatusOK, []byte(last)
}

// batch posts the sweep asking for an event stream: a refused batch
// answers its status at once; an accepted one streams one `point` event
// per point and ends on the `batch` aggregate.
func (a httpAPI) batch(t *testing.T, spec service.BatchSpec) (int, []byte) {
	resp, data := a.doAccept(t, http.MethodPost, "/v1/batch", mustJSON(t, spec), "text/event-stream")
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, data
	}
	var points int
	var name, last string
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			name = strings.TrimPrefix(line, "event: ")
			if name == "point" {
				points++
			}
		case strings.HasPrefix(line, "data: "):
			last = strings.TrimPrefix(line, "data: ")
		}
	}
	if name != "batch" {
		t.Errorf("batch stream ended on %q (%s), not the aggregate", name, last)
		return resp.StatusCode, nil
	}
	if points != len(spec.Specs) {
		t.Errorf("batch stream sent %d point events for %d points", points, len(spec.Specs))
	}
	return resp.StatusCode, []byte(last)
}

// clientAPI goes through service.Client over the wire protocol (Cancel,
// which has no wire frame, rides HTTP). Successes are reported with the
// status the HTTP route would answer, errors with the code they carry.
type clientAPI struct{ c *service.Client }

func errCode(t *testing.T, err error) int {
	t.Helper()
	code, _ := errPayload(t, err)
	return code
}

// errPayload reports an API error as the HTTP route would: its code
// and an {"error": message} body.
func errPayload(t *testing.T, err error) (int, []byte) {
	t.Helper()
	var apiErr *service.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("transport failure: %v", err)
	}
	return apiErr.Code, mustJSON(t, map[string]string{"error": apiErr.Message})
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// clientStatus reports a client call's outcome: the error's code, or
// ok with the payload the HTTP route would have sent.
func clientStatus(t *testing.T, st service.JobStatus, err error, ok int) (int, []byte) {
	t.Helper()
	if err != nil {
		return errPayload(t, err)
	}
	return ok, mustJSON(t, service.PayloadFor(st))
}

func (a clientAPI) submit(t *testing.T, spec service.JobSpec) (int, []byte) {
	st, err := a.c.Submit(context.Background(), spec)
	ok := http.StatusAccepted
	if st.State.Terminal() {
		ok = http.StatusOK
	}
	return clientStatus(t, st, err, ok)
}

func (a clientAPI) job(t *testing.T, id string) (int, []byte) {
	st, err := a.c.Job(context.Background(), id)
	return clientStatus(t, st, err, http.StatusOK)
}

func (a clientAPI) cancel(t *testing.T, id string) (int, []byte) {
	st, err := a.c.Cancel(context.Background(), id)
	return clientStatus(t, st, err, http.StatusOK)
}

func (a clientAPI) watch(t *testing.T, id string, onProgress func()) (int, int, []byte) {
	var progress int
	st, err := a.c.Watch(context.Background(), id, func(sim.Progress) {
		progress++
		if onProgress != nil {
			onProgress()
		}
	})
	code, payload := clientStatus(t, st, err, http.StatusOK)
	return progress, code, payload
}

func (a clientAPI) result(t *testing.T, hash string) (int, []byte) {
	res, ok, err := a.c.ResultByHash(context.Background(), hash)
	switch {
	case err != nil:
		return errCode(t, err), nil
	case !ok:
		return http.StatusNotFound, nil
	}
	return http.StatusOK, mustJSON(t, service.ResultPayload{Hash: hash, Result: res, Metrics: service.MetricsFor(res)})
}

func (a clientAPI) batch(t *testing.T, spec service.BatchSpec) (int, []byte) {
	var points int
	res, err := a.c.Batch(context.Background(), spec, func(service.BatchPoint) { points++ })
	if err != nil {
		return errPayload(t, err)
	}
	if points != len(spec.Specs) {
		t.Errorf("batch delivered %d points for %d", points, len(spec.Specs))
	}
	return http.StatusOK, mustJSON(t, res)
}

// batchView keeps what every daemon must agree on in a batch aggregate:
// each point's position, hash, state, cached flag and result, but not
// its job ID or worker.
func batchView(t *testing.T, payload []byte) []byte {
	t.Helper()
	var res service.BatchResult
	if err := json.Unmarshal(payload, &res); err != nil || res.Points == nil {
		return payload
	}
	type view struct {
		Index  int           `json:"index"`
		Hash   string        `json:"hash"`
		State  service.State `json:"state"`
		Cached bool          `json:"cached"`
		Result *sim.Result   `json:"result"`
	}
	points := make([]view, len(res.Points))
	for i, pt := range res.Points {
		st := pt.Status
		points[i] = view{pt.Index, st.Hash, st.State, st.Cached, st.Result}
	}
	return mustJSON(t, map[string]any{"points": points, "failed": res.Failed})
}

// conformanceStep is one answer of the script: its status and the
// payload fields compared across daemons and transports (IDs aside).
type conformanceStep struct {
	name    string
	code    int
	payload string
}

// conformanceScript runs the job-API script against one daemon over
// one transport and returns its transcript.
func conformanceScript(t *testing.T, api jobAPI) []conformanceStep {
	var steps []conformanceStep
	record := func(name string, code int, payload []byte, keep ...string) map[string]any {
		fields := map[string]any{}
		if payload != nil {
			if err := json.Unmarshal(payload, &fields); err != nil {
				t.Fatalf("%s: payload %q: %v", name, payload, err)
			}
		}
		kept := map[string]any{}
		for _, k := range keep {
			if v, ok := fields[k]; ok {
				kept[k] = v
			}
		}
		steps = append(steps, conformanceStep{name, code, string(mustJSON(t, kept))})
		return fields
	}

	short := sweepSpec("web-search", 0)
	short.MeasureCycles = 400_000 // long enough to watch progress events
	long := sweepSpec("data-serving", 0)
	long.MeasureCycles = 200_000_000 // canceled long before it ends

	code, body := api.submit(t, short)
	sub := record("submit", code, body, "hash", "state", "cached", "spec")
	id, _ := sub["id"].(string)
	hash, _ := sub["hash"].(string)
	code, body = api.job(t, id)
	record("status", code, body, "hash", "spec")
	progress, code, body := api.watch(t, id, nil)
	if progress == 0 {
		t.Error("watch: no progress snapshot before the terminal payload")
	}
	record("watch", code, body, "hash", "state", "cached", "spec", "result", "metrics", "error")
	code, body = api.submit(t, short)
	record("resubmit", code, body, "hash", "state", "cached", "spec", "result", "metrics")
	code, body = api.result(t, hash)
	record("result", code, body, "hash", "result", "metrics")
	code, _ = api.result(t, strings.Repeat("0", 64))
	record("result-unknown", code, nil)

	code, _ = api.job(t, "j-missing")
	record("status-unknown", code, nil)
	code, _ = api.cancel(t, "j-missing")
	record("cancel-unknown", code, nil)
	_, code, _ = api.watch(t, "j-missing", nil)
	record("watch-unknown", code, nil)

	// DELETE the long job once its first progress event shows it
	// running: the answer is its state at that moment, running, and its
	// watch ends canceled at the next progress interval.
	code, body = api.submit(t, long)
	lid, _ := record("submit-long", code, body, "hash", "state", "spec")["id"].(string)
	var canceled bool
	var cancelCode int
	var cancelBody []byte
	_, code, body = api.watch(t, lid, func() {
		if !canceled {
			canceled = true
			cancelCode, cancelBody = api.cancel(t, lid)
		}
	})
	if !canceled {
		t.Fatal("watch: the long job ended before its first progress event")
	}
	if st := record("cancel", cancelCode, cancelBody, "hash", "state", "spec")["state"]; st != string(service.StateRunning) {
		t.Errorf("cancel of a running job answered state %v, want %s", st, service.StateRunning)
	}
	if st := record("watch-canceled", code, body, "hash", "state", "spec")["state"]; st != string(service.StateCanceled) {
		t.Errorf("watch of the canceled job ended %v, want %s", st, service.StateCanceled)
	}
	code, _ = api.cancel(t, lid)
	record("cancel-canceled", code, nil)
	code, _ = api.cancel(t, id)
	record("cancel-done", code, nil)

	// A sweep of a fresh point and the short one again, born done.
	fresh := sweepSpec("media-streaming", 0)
	code, body = api.batch(t, service.BatchSpec{Specs: []service.JobSpec{fresh, short}})
	record("batch", code, batchView(t, body), "points", "failed")
	code, body = api.batch(t, service.BatchSpec{})
	record("batch-empty", code, body, "error")
	unknown := fresh
	unknown.Workload = "no-such-workload"
	code, body = api.batch(t, service.BatchSpec{Specs: []service.JobSpec{fresh, unknown}})
	record("batch-invalid", code, body, "error")

	// A custom scenario travels inline; a scenario name means a
	// built-in, so naming the custom one is refused.
	sc, err := scenario.Load("../../testdata/scenarios/tidal-colocation.json")
	if err != nil {
		t.Fatal(err)
	}
	inline := sweepSpec("", 0)
	inline.ScenarioSpec = sc
	code, body = api.submit(t, inline)
	record("submit-inline-scenario", code, body, "hash", "state", "spec")
	named := sweepSpec("", 0)
	named.Scenario = sc.Name
	code, body = api.submit(t, named)
	record("submit-unknown-scenario", code, body, "error")

	// A negative streak cap is refused before anything runs.
	negative := sweepSpec("web-search", 0)
	negative.MaxRowHitStreak = -3
	code, body = api.submit(t, negative)
	record("submit-negative-streak", code, body, "error")
	return steps
}

// assertHealthz checks that a daemon's GET /v1/healthz is its
// self-description and nothing more: the body decodes into
// HealthPayload with unknown fields disallowed.
func assertHealthz(t *testing.T, base string) {
	t.Helper()
	resp, data := httpAPI{base: base}.do(t, http.MethodGet, "/v1/healthz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var h service.HealthPayload
	if err := dec.Decode(&h); err != nil {
		t.Fatalf("healthz %s: %v", data, err)
	}
	if h.Status != "ok" || h.Version != snapshot.FormatVersion || h.WireAddr == "" {
		t.Errorf("healthz: %+v", h)
	}
}

// serveCoordinator puts a coordinator behind HTTP and a wire listener
// advertised in its health, as bumpctl does, returning the base URL.
func serveCoordinator(t *testing.T, coord *Coordinator) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ws := wire.Serve(l, service.NewWireHandler(coord))
	t.Cleanup(ws.Close)
	coord.SetWireAddr(l.Addr().String())
	front := httptest.NewServer(coord.Handler())
	t.Cleanup(front.Close)
	return front.URL
}

// TestJobAPIConformance runs one job-API script against bumpd and
// bumpctl, each over HTTP and over the wire protocol: every status and
// every compared payload field must agree across the four, batches
// and scenarios included (a refused batch, a job naming a scenario
// that is not built in, and a job with a negative streak cap are each a
// 400 with one message everywhere), and
// each daemon's /v1/healthz carries only the HealthPayload fields. A failover
// row then kills the worker running a watched coordinator job: the
// watch must still end in done over both protocols.
func TestJobAPIConformance(t *testing.T) {
	opts := service.Options{Workers: 1}
	daemons := []struct {
		name  string
		start func(t *testing.T) string
	}{
		{"bumpd", func(t *testing.T) string { return newWireFleet(t, 1, opts)[0].srv.URL }},
		{"bumpctl", func(t *testing.T) string {
			return serveCoordinator(t, newTestCoordinator(t, newWireFleet(t, 2, opts)))
		}},
	}
	want := map[string]int{
		"submit": 202, "status": 200, "watch": 200, "resubmit": 200,
		"result": 200, "result-unknown": 404,
		"status-unknown": 404, "cancel-unknown": 404, "watch-unknown": 404,
		"submit-long": 202, "cancel": 200, "watch-canceled": 200,
		"cancel-canceled": 409, "cancel-done": 409,
		"batch": 200, "batch-empty": 400, "batch-invalid": 400,
		"submit-inline-scenario": 202, "submit-unknown-scenario": 400,
		"submit-negative-streak": 400,
	}
	var refName string
	var ref []conformanceStep
	for _, d := range daemons {
		for _, proto := range []string{"http", "wire"} {
			name := d.name + "/" + proto
			t.Run(name, func(t *testing.T) {
				url := d.start(t)
				assertHealthz(t, url)
				var api jobAPI = httpAPI{base: url}
				var client *service.Client
				if proto == "wire" {
					client = service.NewClient(url)
					t.Cleanup(client.Close)
					api = clientAPI{c: client}
				}
				steps := conformanceScript(t, api)
				if client != nil {
					if ws := client.WireStats(); ws.Calls == 0 || ws.Fallbacks != 0 {
						t.Errorf("wire row did not stay on the wire protocol: %+v", ws)
					}
				}
				for _, s := range steps {
					if s.code != want[s.name] {
						t.Errorf("%s: status %d, want %d", s.name, s.code, want[s.name])
					}
				}
				if ref == nil {
					refName, ref = name, steps
					return
				}
				for i, s := range steps {
					if s != ref[i] {
						t.Errorf("%s diverges from %s:\n got  %d %s\n want %d %s", s.name, refName, s.code, s.payload, ref[i].code, ref[i].payload)
					}
				}
			})
		}
	}

	t.Run("bumpctl/failover", func(t *testing.T) {
		fleet := newWireFleet(t, 2, opts)
		coord := newTestCoordinator(t, fleet)
		url := serveCoordinator(t, coord)
		httpClient := service.NewClient(url)
		httpClient.DisableWire = true
		wireClient := service.NewClient(url)
		t.Cleanup(wireClient.Close)

		spec := sweepSpec("media-streaming", 0)
		spec.MeasureCycles = 1_000_000
		st, err := httpClient.Submit(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		type watched struct {
			proto string
			st    service.JobStatus
			err   error
		}
		done := make(chan watched, 2)
		var progress [2]atomic.Int64
		for i, c := range []*service.Client{httpClient, wireClient} {
			proto := [...]string{"http", "wire"}[i]
			go func() {
				fin, err := c.Watch(context.Background(), st.ID, func(sim.Progress) { progress[i].Add(1) })
				done <- watched{proto, fin, err}
			}()
		}
		waitUntil(t, 30*time.Second, func() bool { return progress[0].Load() > 0 && progress[1].Load() > 0 },
			"both watches never saw progress")

		// Kill the worker running the job: wire, HTTP, then its pool.
		rec, ok := coord.Store().Job(st.ID)
		if !ok || rec.Worker == "" {
			t.Fatalf("job %s is not placed: %+v", st.ID, rec)
		}
		dead := rec.Worker
		wk, _ := coord.Registry().Worker(dead)
		for _, w := range fleet {
			if w.srv.URL == wk.URL {
				w.wire.Close()
				w.srv.CloseClientConnections()
				w.srv.Close()
				w.pool.Close()
			}
		}

		var results []string
		for range 2 {
			w := <-done
			if w.err != nil || w.st.State != service.StateDone || w.st.Result == nil {
				t.Fatalf("%s watch across the failover: %v %+v", w.proto, w.err, w.st)
			}
			results = append(results, resultJSON(t, *w.st.Result))
		}
		if results[0] != results[1] {
			t.Error("the two watches saw different results")
		}
		waitUntil(t, 30*time.Second, func() bool {
			rec, ok := coord.Store().Job(st.ID)
			return ok && rec.State.Terminal()
		}, "coordinator never recorded the job terminal")
		if rec, _ := coord.Store().Job(st.ID); rec.Worker == dead {
			t.Errorf("job finished on the killed worker %s: no failover happened", dead)
		}
	})
}
