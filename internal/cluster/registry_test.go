package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bump/internal/service"
	"bump/internal/snapshot"
)

// fakeWorker is a controllable /v1/healthz endpoint.
type fakeWorker struct {
	srv     *httptest.Server
	failing atomic.Bool
	version atomic.Int64
	probes  atomic.Int64
}

func newFakeWorker(t *testing.T) *fakeWorker {
	t.Helper()
	f := &fakeWorker{}
	f.version.Store(snapshot.FormatVersion)
	f.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/healthz" {
			http.NotFound(w, r)
			return
		}
		f.probes.Add(1)
		if f.failing.Load() {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		json.NewEncoder(w).Encode(service.HealthPayload{
			Status:  "ok",
			Version: int(f.version.Load()),
		})
	}))
	t.Cleanup(f.srv.Close)
	return f
}

// newManualRegistry builds a registry whose periodic loop is effectively
// parked (huge interval) so tests drive rounds via ProbeOnce.
func newManualRegistry(t *testing.T, opts RegistryOptions, urls ...string) *Registry {
	t.Helper()
	opts.ProbeInterval = time.Hour
	if opts.ProbeTimeout == 0 {
		opts.ProbeTimeout = 2 * time.Second
	}
	r, err := NewRegistry(urls, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

func TestRegistryAdmitsHealthyWorkers(t *testing.T) {
	a, b := newFakeWorker(t), newFakeWorker(t)
	r := newManualRegistry(t, RegistryOptions{}, a.srv.URL, b.srv.URL)
	if r.UpCount() != 0 {
		t.Fatal("workers must start unrouted before the first probe")
	}
	r.ProbeOnce(context.Background())
	if r.UpCount() != 2 {
		t.Fatalf("up=%d after probe, want 2", r.UpCount())
	}
	for _, info := range r.Info() {
		if info.State != WorkerUp || info.Version != snapshot.FormatVersion {
			t.Fatalf("worker %s: %+v", info.ID, info)
		}
	}
}

func TestRegistryEjectsAfterConsecutiveFailuresAndReadmits(t *testing.T) {
	a := newFakeWorker(t)
	r := newManualRegistry(t, RegistryOptions{
		FailAfter:   2,
		BackoffBase: 10 * time.Millisecond,
		BackoffMax:  20 * time.Millisecond,
	}, a.srv.URL)
	url := a.srv.URL
	r.ProbeOnce(context.Background())
	if !r.Up(url) {
		t.Fatal("healthy worker not admitted")
	}

	a.failing.Store(true)
	r.ProbeOnce(context.Background())
	if !r.Up(url) {
		t.Fatal("one failure must not eject (FailAfter=2)")
	}
	r.ProbeOnce(context.Background())
	if r.Up(url) {
		t.Fatal("worker must be ejected after 2 consecutive failures")
	}

	// While in backoff, probe rounds skip the worker entirely.
	before := a.probes.Load()
	r.ProbeOnce(context.Background())
	if a.probes.Load() != before {
		t.Fatal("down worker probed before its backoff expired")
	}

	// After backoff, a recovered worker is readmitted.
	a.failing.Store(false)
	time.Sleep(30 * time.Millisecond)
	r.ProbeOnce(context.Background())
	if !r.Up(url) {
		t.Fatal("recovered worker not readmitted after backoff")
	}
	if info := r.Info()[0]; info.Fails != 0 || info.LastErr != "" {
		t.Fatalf("readmitted worker keeps stale failure state: %+v", info)
	}
}

// TestRegistryRejectsMixedFormatVersions: a worker whose snapshot
// format version differs is held out of routing (warm checkpoints are
// not portable across versions) but readmitted after an in-place
// upgrade.
func TestRegistryRejectsMixedFormatVersions(t *testing.T) {
	a := newFakeWorker(t)
	a.version.Store(int64(snapshot.FormatVersion + 1))
	r := newManualRegistry(t, RegistryOptions{}, a.srv.URL)
	r.ProbeOnce(context.Background())
	if r.Up(a.srv.URL) {
		t.Fatal("mixed-format-version worker must not be admitted")
	}
	info := r.Info()[0]
	if info.State != WorkerIncompatible || info.LastErr == "" {
		t.Fatalf("state %s, lastErr %q; want incompatible with reason", info.State, info.LastErr)
	}

	a.version.Store(snapshot.FormatVersion)
	r.ProbeOnce(context.Background())
	if !r.Up(a.srv.URL) {
		t.Fatal("upgraded worker must be readmitted")
	}
}

// TestRegistryReportFailureEjects: request-level failures reported by
// the router count toward ejection like probe failures, so traffic
// ejects a dead worker between probe rounds.
func TestRegistryReportFailureEjects(t *testing.T) {
	a := newFakeWorker(t)
	r := newManualRegistry(t, RegistryOptions{FailAfter: 2, BackoffBase: time.Minute}, a.srv.URL)
	r.ProbeOnce(context.Background())
	r.ReportFailure(a.srv.URL, context.DeadlineExceeded)
	r.ReportFailure(a.srv.URL+"/", context.DeadlineExceeded) // any spelling names the worker
	if r.Up(a.srv.URL) {
		t.Fatal("reported request failures must eject the worker")
	}
}

// TestRegistryFleetValidation: the fleet is the URL list it is built
// from, so an empty list, a blank URL and two spellings of one URL are
// all refused.
func TestRegistryFleetValidation(t *testing.T) {
	for _, urls := range [][]string{nil, {"http://ok", " "}, {"http://ok", "http://ok/"}} {
		if r, err := NewRegistry(urls, RegistryOptions{ProbeInterval: time.Hour}); err == nil {
			r.Close()
			t.Errorf("NewRegistry(%q) accepted", urls)
		}
	}
}

// TestNewRejectsEmptyFleet: a coordinator's fleet is its Workers list
// alone. New refuses an empty list without a data dir and with one that
// once served a fleet, and refuses a list naming one worker twice.
func TestNewRejectsEmptyFleet(t *testing.T) {
	dir := t.TempDir()
	f := newFakeWorker(t)
	c, err := New(context.Background(), Options{Workers: []string{f.srv.URL}, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	for _, opts := range []Options{
		{},
		{DataDir: dir},
		{Workers: []string{f.srv.URL + "/ ", f.srv.URL}},
		{Workers: []string{f.srv.URL, f.srv.URL}, DataDir: dir},
	} {
		if c, err := New(context.Background(), opts); err == nil {
			c.Close()
			t.Errorf("New(%+v) succeeded", opts)
		}
	}
}

// TestRegistryNormalizesWorkerURLs: every spelling of one worker's URL
// — a list entry with a trailing slash and whitespace, a padded
// lookup — names one member, which carries the normalized URL.
func TestRegistryNormalizesWorkerURLs(t *testing.T) {
	f := newFakeWorker(t)
	r := newManualRegistry(t, RegistryOptions{}, f.srv.URL+"/ ")
	if ws := r.Workers(); len(ws) != 1 || ws[0].URL != f.srv.URL || ws[0].ID != "w0" {
		t.Fatalf("fleet %+v, want one member w0 at %s", ws, f.srv.URL)
	}
	for _, s := range []string{f.srv.URL, " " + f.srv.URL, f.srv.URL + "/", f.srv.URL + "/ \n"} {
		if w, ok := r.Worker(s); !ok || w.URL != f.srv.URL {
			t.Errorf("Worker(%q) = %v, %v; want the member at %s", s, w, ok, f.srv.URL)
		}
	}
	if _, ok := r.Worker("w0"); ok {
		t.Error("a display ID resolved as a worker")
	}
}

// TestRegistryWhileUpEndsWithDownMarking: a follow's context lives
// while its worker is up, ends with a cause naming the worker once the
// registry marks it down, is born ended while the worker stays down,
// and lives again after readmission.
func TestRegistryWhileUpEndsWithDownMarking(t *testing.T) {
	a := newFakeWorker(t)
	r := newManualRegistry(t, RegistryOptions{FailAfter: 1, BackoffBase: time.Millisecond, BackoffMax: time.Millisecond}, a.srv.URL)
	url := a.srv.URL
	r.ProbeOnce(context.Background())
	ctx, stop := r.WhileUp(context.Background(), url)
	defer stop()
	if ctx.Err() != nil {
		t.Fatal("follow of an up worker ended at once")
	}

	r.ReportFailure(url, context.DeadlineExceeded)
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("follow outlived its worker's down-marking")
	}
	if cause := context.Cause(ctx); cause == nil || !strings.Contains(cause.Error(), url) {
		t.Fatalf("cause %v does not name the worker", cause)
	}
	late, stopLate := r.WhileUp(context.Background(), url)
	defer stopLate()
	if late.Err() == nil {
		t.Fatal("follow of a down worker did not end at once")
	}
	unknown, stopUnknown := r.WhileUp(context.Background(), "http://nowhere:8344")
	defer stopUnknown()
	if unknown.Err() == nil {
		t.Fatal("follow of an unknown worker did not end at once")
	}

	time.Sleep(5 * time.Millisecond) // let the readmission backoff expire
	r.ProbeOnce(context.Background())
	if !r.Up(url) {
		t.Fatal("recovered worker not readmitted")
	}
	again, stopAgain := r.WhileUp(context.Background(), url)
	defer stopAgain()
	if again.Err() != nil {
		t.Fatal("follow of a readmitted worker ended at once")
	}
}

// TestRegistryBackoffJitter: readmission backoff deadlines are jittered
// so a fleet that died together does not retry in one synchronized
// thundering herd.
func TestRegistryBackoffJitter(t *testing.T) {
	urls := make([]string, 16)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://w%d:8344", i)
	}
	r := newManualRegistry(t, RegistryOptions{FailAfter: 1, BackoffBase: time.Minute, BackoffMax: time.Minute}, urls...)
	r.mu.Lock()
	for _, w := range r.workers {
		r.recordFailureLocked(w, context.DeadlineExceeded)
	}
	deadlines := make(map[time.Time]bool)
	for _, w := range r.workers {
		if w.retryAt.IsZero() {
			t.Fatal("failed worker has no retry deadline")
		}
		deadlines[w.retryAt] = true
	}
	r.mu.Unlock()
	if len(deadlines) < 2 {
		t.Fatal("all 16 backoff deadlines identical: no jitter applied")
	}
}

// TestRegistryRingStableAcrossFleetEdits: the ring is keyed by worker
// URL, so restarting a coordinator with a reordered or shrunk -workers
// list keeps every surviving worker's keys (and therefore its warm
// checkpoints and cached results) in place. Positional IDs would remap
// nearly everything on any fleet-list edit.
func TestRegistryRingStableAcrossFleetEdits(t *testing.T) {
	mk := func(urls ...string) *Registry {
		r, err := NewRegistry(urls, RegistryOptions{ProbeInterval: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(r.Close)
		return r
	}
	const a, b, c = "http://a:8344", "http://b:8344", "http://c:8344"
	before := mk(a, b, c)
	after := mk(c, b) // a decommissioned, survivors reordered

	moved := 0
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("warmkey-%d", i)
		owner := before.Ring().Owner(k)
		if owner == a {
			moved++ // must redistribute; anywhere is fine
			continue
		}
		if got := after.Ring().Owner(k); got != owner {
			t.Fatalf("key %q moved from %s to %s across a fleet edit that kept its owner", k, owner, got)
		}
	}
	if moved == 0 {
		t.Fatal("decommissioned worker owned no keys — test is vacuous")
	}
}
