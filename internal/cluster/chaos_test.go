package cluster

import (
	"context"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"bump/internal/chaos"
	"bump/internal/chaos/faultserver"
	"bump/internal/service"
	"bump/internal/sim"
)

// fastRegistry is the probe tuning shared by the chaos tests: quick
// rounds, two strikes, short backoff.
func fastRegistry() RegistryOptions {
	return RegistryOptions{
		ProbeInterval:  50 * time.Millisecond,
		ProbeTimeout:   5 * time.Second,
		FailAfter:      2,
		BackoffBase:    50 * time.Millisecond,
		BackoffMax:     200 * time.Millisecond,
		RequestTimeout: 5 * time.Second,
	}
}

func waitUntil(t *testing.T, timeout time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.After(timeout)
	for !cond() {
		select {
		case <-deadline:
			t.Fatal(msg)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// TestChaosCoordinatorCrashRestartMidSweep is the durability acceptance
// test: a coordinator is killed mid-sweep and restarted on the same data
// directory. The restarted coordinator must answer every pre-crash job
// ID, pick the in-flight work back up, and deliver every point
// byte-identical to the single-node path.
func TestChaosCoordinatorCrashRestartMidSweep(t *testing.T) {
	fleet := newTestFleet(t, 3, service.Options{Workers: 1, WarmStarts: true})
	urls := make([]string, len(fleet))
	for i, w := range fleet {
		urls[i] = w.srv.URL
	}
	dir := t.TempDir()
	mk := func() *Coordinator {
		coord, err := New(context.Background(), Options{Workers: urls, DataDir: dir, Registry: fastRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		return coord
	}

	c1 := mk()
	c1Closed := false
	closeC1 := func() {
		if !c1Closed {
			c1Closed = true
			c1.Close()
		}
	}
	defer closeC1()
	front1 := httptest.NewServer(c1.Handler())
	defer front1.Close()
	client1 := service.NewClient(front1.URL)

	// A solo job big enough to still be running when the coordinator
	// dies: its ID must survive the crash too.
	solo := sweepSpec("data-serving", 0)
	solo.WarmupCycles = 50_000
	solo.MeasureCycles = 5_000_000
	soloSt, err := client1.Submit(context.Background(), solo)
	if err != nil {
		t.Fatal(err)
	}

	// The sweep's points, each submitted as a job, as a batch submits
	// them.
	const points = 16
	specs := make([]service.JobSpec, points)
	ids := make([]string, points)
	for i := range specs {
		specs[i] = sweepSpec("web-search", i)
		specs[i].WarmupCycles = 50_000
		specs[i].MeasureCycles = 500_000
		st, err := client1.Submit(context.Background(), specs[i])
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = st.ID
	}

	// Kill once the sweep is genuinely mid-flight: some points terminal,
	// the rest placed or running.
	terminalPoints := func() int {
		n := 0
		for _, id := range ids {
			if j, ok := c1.Store().Job(id); ok && j.State.Terminal() {
				n++
			}
		}
		return n
	}
	waitUntil(t, 30*time.Second, func() bool { return terminalPoints() >= 2 },
		"sweep never got going before the kill deadline")
	if terminalPoints() == points {
		t.Fatal("sweep finished before the coordinator could be killed — enlarge the specs")
	}
	var preIDs []string
	for _, j := range c1.Store().Jobs() {
		preIDs = append(preIDs, j.ID)
	}
	closeC1() // crash-equivalent: no final checkpoint, drivers die mid-flight
	front1.Close()

	c2 := mk()
	t.Cleanup(c2.Close)
	front2 := httptest.NewServer(c2.Handler())
	t.Cleanup(front2.Close)
	client2 := service.NewClient(front2.URL)

	// The replay is visible in the store's durability stats.
	st := c2.Store().Stats()
	if !st.Durable {
		t.Fatal("restarted coordinator reports no WAL")
	}
	if st.WAL.Replayed == 0 || st.ReplayedJobs == 0 {
		t.Fatalf("restarted coordinator replayed nothing: %+v", st)
	}
	if st.RecoveredJobs == 0 {
		t.Fatalf("no in-flight jobs recovered despite a mid-sweep crash: %+v", st)
	}

	// Every pre-crash job ID is still answerable.
	for _, id := range preIDs {
		if _, err := client2.Job(context.Background(), id); err != nil {
			t.Fatalf("pre-crash job %s unanswerable after restart: %v", id, err)
		}
	}

	// The solo job and every point run to completion under the
	// restarted coordinator.
	fin, err := client2.Watch(context.Background(), soloSt.ID, nil)
	if err != nil || fin.State != service.StateDone || fin.Result == nil {
		t.Fatalf("solo job after restart: %v %+v", err, fin)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	ref := singleNodeReference(t, specs)
	for i, id := range ids {
		fin, err := client2.Watch(ctx, id, nil)
		if err != nil || fin.State != service.StateDone || fin.Result == nil {
			t.Fatalf("point %d after restart: %v %+v", i, err, fin)
		}
		// The crash must not have cost correctness: byte-identical to
		// the single-node path.
		if got := resultJSON(t, *fin.Result); got != ref[i] {
			t.Errorf("point %d: recovered sweep diverges from single-node", i)
		}
	}
}

// TestChaosWatchEndsOnStalledWorker freezes the worker running a
// watched job without closing its sockets — a hung process, or a
// partition with no RST. Nothing errors on the stalled stream, so only
// the registry marking the worker down can end the coordinator's
// follow of it: the client's watch must move to the failover target
// and end in done there.
func TestChaosWatchEndsOnStalledWorker(t *testing.T) {
	fleet := newTestFleet(t, 2, service.Options{Workers: 1, WarmStarts: true})
	px := chaos.NewProxy(t, fleet[0].srv.URL)
	reg := fastRegistry()
	reg.ProbeTimeout = 200 * time.Millisecond
	coord, err := New(context.Background(), Options{
		Workers:  []string{px.URL(), fleet[1].srv.URL},
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)

	// A job long enough to still be running when the link stalls, on a
	// key the proxied worker owns.
	spec := sweepSpec("web-search", 0)
	spec.MeasureCycles = 2_000_000
	for spec.Seed = 1; ; spec.Seed++ {
		key, _, err := RouteKey(spec)
		if err != nil {
			t.Fatal(err)
		}
		if coord.Registry().Ring().Owner(key) == px.URL() {
			break
		}
		if spec.Seed == 64 {
			t.Fatal("no seed keyed to the proxied worker")
		}
	}

	front := httptest.NewServer(coord.Handler())
	t.Cleanup(front.Close)
	client := service.NewClient(front.URL)
	st, err := client.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	type watched struct {
		st  service.JobStatus
		err error
	}
	done := make(chan watched, 1)
	progressed := make(chan struct{})
	var once sync.Once
	go func() {
		fin, err := client.Watch(context.Background(), st.ID, func(sim.Progress) {
			once.Do(func() { close(progressed) })
		})
		done <- watched{fin, err}
	}()
	select {
	case <-progressed:
	case w := <-done:
		t.Fatalf("watch ended before any progress: %v %+v", w.err, w.st)
	case <-time.After(30 * time.Second):
		t.Fatal("watch saw no progress")
	}

	px.Stall(true)
	select {
	case w := <-done:
		px.Stall(false)
		if w.err != nil || w.st.State != service.StateDone || w.st.Result == nil {
			t.Fatalf("watch across the stall: %v %+v", w.err, w.st)
		}
	case <-time.After(30 * time.Second):
		px.Stall(false) // release the stalled handlers, or the cleanups block on them
		t.Fatal("watch still held 30s after its worker stalled")
	}
	if rec, _ := coord.Store().Job(st.ID); rec.Worker != fleet[1].srv.URL {
		t.Fatalf("job record names worker %q, want the failover target %s", rec.Worker, fleet[1].srv.URL)
	}
}

// TestChaosFleetToleratesFaultyWorkers seeds the fleet with two healthy
// workers, one that answers every request with an HTML 500 and one that
// hangs connections open (both from the shared faultserver vocabulary):
// the registry must hold both out of routing and the sweep must complete
// correctly on the survivors.
func TestChaosFleetToleratesFaultyWorkers(t *testing.T) {
	fleet := newTestFleet(t, 2, service.Options{Workers: 2, WarmStarts: true})
	sick := faultserver.New(t, faultserver.NonJSON500())
	hung := faultserver.New(t, faultserver.Hung())

	reg := fastRegistry()
	reg.ProbeInterval = time.Hour
	reg.ProbeTimeout = 200 * time.Millisecond // bound the hung probe
	reg.FailAfter = 1
	reg.BackoffBase = time.Minute
	reg.BackoffMax = time.Minute
	coord, err := New(context.Background(), Options{
		Workers:  []string{fleet[0].srv.URL, fleet[1].srv.URL, sick.URL, hung.URL},
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)

	top := coord.Topology()
	if top.Status != "degraded" || top.Up != 2 || top.Total != 4 {
		t.Fatalf("topology with faulty workers: %+v", top)
	}

	specs := make([]service.JobSpec, 6)
	for i := range specs {
		specs[i] = sweepSpec("web-search", i)
	}
	res, err := coord.Batch(context.Background(), service.BatchSpec{Specs: specs}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("%d failed points with faulty workers in the fleet", res.Failed)
	}
	ref := singleNodeReference(t, specs)
	for i, pt := range res.Points {
		if got := resultJSON(t, *pt.Status.Result); got != ref[i] {
			t.Errorf("point %d diverges from single-node with faulty workers present", i)
		}
	}
}

// TestChaosWireSeverFallsBackToJSON cuts the binary wire link between a
// client and its worker while a job is in flight: every pooled wire
// connection dies and new dials are refused. The client must fall back
// to HTTP/JSON transparently — the job is not lost, a watch follows it
// to completion, and the cached result stays reachable.
func TestChaosWireSeverFallsBackToJSON(t *testing.T) {
	w := newWireFleet(t, 1, service.Options{Workers: 1, WarmStarts: true})[0]
	proxy := chaos.NewTCPProxy(t, w.wire.Addr().String())

	client := service.NewClient(w.srv.URL)
	client.WireAddr = proxy.Addr() // pin the faultable front, skip negotiation
	t.Cleanup(func() { client.Close() })

	spec := sweepSpec("web-search", 0)
	spec.MeasureCycles = 2_000_000 // long enough to outlive the sever
	st, err := client.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if ws := client.WireStats(); ws.Calls == 0 {
		t.Fatalf("submit did not use the wire path: %+v", ws)
	}

	// Sever: close the live pooled connections and refuse new ones.
	proxy.Drop(true)

	fin, err := client.Watch(context.Background(), st.ID, nil)
	if err != nil {
		t.Fatalf("watch across a severed wire link: %v", err)
	}
	if fin.State != service.StateDone || fin.Result == nil {
		t.Fatalf("job lost after wire sever: %s (%s)", fin.State, fin.Error)
	}
	ws := client.WireStats()
	if ws.Fallbacks == 0 {
		t.Errorf("severed wire link never fell back to JSON: %+v", ws)
	}

	// The result is still served (over JSON) by hash.
	res, ok, err := client.ResultByHash(context.Background(), fin.Hash)
	if err != nil || !ok {
		t.Fatalf("ResultByHash after sever: ok=%v err=%v", ok, err)
	}
	if resultJSON(t, res) != resultJSON(t, *fin.Result) {
		t.Error("post-sever hash lookup diverges from the job result")
	}

	// Restore the link: the client recovers the wire path after its
	// retry window instead of staying demoted forever.
	proxy.Drop(false)
	callsBefore := client.WireStats().Calls
	deadline := time.After(10 * time.Second)
	for client.WireStats().Calls == callsBefore {
		if _, err := client.Job(context.Background(), st.ID); err != nil {
			t.Fatal(err)
		}
		select {
		case <-deadline:
			t.Fatal("client never re-negotiated onto the restored wire link")
		case <-time.After(50 * time.Millisecond):
		}
	}
}
