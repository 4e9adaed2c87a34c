package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"bump/internal/blob"
	"bump/internal/cluster"
	"bump/internal/obs"
	"bump/internal/service"
	"bump/internal/wire"
)

// fleetWorkers is the sweep-fleet's worker count.
const fleetWorkers = 3

// fleet is an in-process bumpctl coordinator over bumpd workers, each
// wired as the commands wire them: a blob-backed warm pool with metrics
// and a tracer, a binary wire listener advertised through its HTTP
// handler, and loopback HTTP.
type fleet struct {
	dir     string
	workers []*fleetWorker
	coord   *cluster.Coordinator
	tracer  *obs.Tracer // the coordinator's
	url     string      // the coordinator's HTTP base URL
	servers []*server   // HTTP and wire listeners, coordinator's first
}

type fleetWorker struct {
	pool   *service.Pool
	store  *blob.Store
	tracer *obs.Tracer
	url    string
}

// server is one listener the fleet serves; stop returns once it no
// longer serves.
type server struct{ stop func() }

// serveHTTP serves h on l until the returned server stops.
func serveHTTP(l net.Listener, h http.Handler) *server {
	srv := &http.Server{Handler: h, ReadTimeout: 30 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(l) // returns http.ErrServerClosed once stop closes it
	}()
	return &server{stop: func() { srv.Close(); <-done }}
}

// workerListeners opens one loopback HTTP listener per worker. The
// coordinator's ring is keyed by worker URL, so the ephemeral ports
// decide which worker each sweep family lands on; the ports are redrawn
// until every affinity key has a worker of its own, so each run measures
// the same fleet shape (one family per worker) rather than a random one.
func workerListeners(keys []string) ([]net.Listener, error) {
	for attempt := 0; attempt < 100; attempt++ {
		var ls []net.Listener
		var urls []string
		for i := 0; i < fleetWorkers; i++ {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				closeAll(ls)
				return nil, err
			}
			ls = append(ls, l)
			urls = append(urls, "http://"+l.Addr().String())
		}
		ring := cluster.NewRing(urls, 0)
		owners := make(map[string]bool)
		for _, k := range keys {
			owners[ring.Owner(k)] = true
		}
		if len(owners) == min(len(keys), fleetWorkers) {
			return ls, nil
		}
		closeAll(ls)
	}
	return nil, errors.New("fleet: no port draw spread the sweep families over the workers")
}

func closeAll(ls []net.Listener) {
	for _, l := range ls {
		l.Close()
	}
}

// familyKeys returns the affinity key of each sweep family.
func familyKeys(specs []service.JobSpec) ([]string, error) {
	var keys []string
	for f := range sweepFamilies {
		key, _, err := cluster.RouteKey(specs[f*sweepStreaks])
		if err != nil {
			return nil, err
		}
		keys = append(keys, key)
	}
	return keys, nil
}

// serveWire serves the binary protocol on a loopback port.
func serveWire(handler func(*wire.Conn)) (string, *server, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	ws := wire.Serve(l, handler)
	return l.Addr().String(), &server{stop: ws.Close}, nil
}

// startFleet brings a fleet for the sweep up under a fresh directory of
// workdir: the workers, then the durable coordinator through its first
// probe round, then the coordinator's own listeners.
func startFleet(workdir string, specs []service.JobSpec) (f *fleet, err error) {
	keys, err := familyKeys(specs)
	if err != nil {
		return nil, err
	}
	listeners, err := workerListeners(keys)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		closeAll(listeners)
		return nil, err
	}
	dir, err := os.MkdirTemp(workdir, "fleet-")
	if err != nil {
		closeAll(listeners)
		return nil, err
	}
	f = &fleet{dir: dir}
	defer func() {
		if err != nil {
			closeAll(listeners) // a listener a server took over is already closed
			f.close()
			f = nil
		}
	}()
	var urls []string
	for i, l := range listeners {
		w := &fleetWorker{tracer: obs.NewTracer(0)}
		if w.store, err = blob.Open(filepath.Join(dir, fmt.Sprintf("blob%d", i)), blob.DefaultCapacity); err != nil {
			return f, err
		}
		metrics := obs.NewRegistry()
		w.pool = service.NewPool(service.Options{
			WarmStarts:  true,
			WarmEntries: 64,
			WarmBackend: w.store,
			Metrics:     metrics,
			Tracer:      w.tracer,
		})
		f.workers = append(f.workers, w)
		wireAddr, ws, err := serveWire(service.NewWireHandler(service.NewPoolWireBackend(w.pool)))
		if err != nil {
			return f, err
		}
		f.servers = append(f.servers, ws)
		w.url = "http://" + l.Addr().String()
		f.servers = append(f.servers, serveHTTP(l, service.NewHandlerInfo(w.pool, service.ServerInfo{
			WireAddr: wireAddr, Metrics: metrics, Tracer: w.tracer,
		})))
		urls = append(urls, w.url)
	}

	f.tracer = obs.NewTracer(0)
	f.coord, err = cluster.New(context.Background(), cluster.Options{
		Workers: urls,
		DataDir: filepath.Join(dir, "wal"),
		Metrics: obs.NewRegistry(),
		Tracer:  f.tracer,
	})
	if err != nil {
		return f, err
	}
	if up := f.coord.Registry().UpCount(); up != fleetWorkers {
		return f, fmt.Errorf("fleet: %d of %d workers up after the first probe round", up, fleetWorkers)
	}
	wireAddr, ws, err := serveWire(service.NewWireHandler(f.coord))
	if err != nil {
		return f, err
	}
	f.coord.SetWireAddr(wireAddr)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ws.stop()
		return f, err
	}
	f.url = "http://" + l.Addr().String()
	f.servers = append([]*server{serveHTTP(l, f.coord.Handler()), ws}, f.servers...)
	return f, nil
}

// close stops the listeners, the coordinator and the workers, and
// removes the fleet's directory.
func (f *fleet) close() {
	for _, s := range f.servers {
		s.stop()
	}
	if f.coord != nil {
		f.coord.Close()
	}
	for _, w := range f.workers {
		w.pool.Close()
		w.store.Close()
	}
	os.RemoveAll(f.dir)
}

func (f *fleet) workerByURL(url string) (*fleetWorker, bool) {
	for _, w := range f.workers {
		if w.url == url {
			return w, true
		}
	}
	return nil, false
}

func sweepFleetSetup(e *env) (time.Duration, []time.Duration, error) {
	t0 := time.Now()
	f, err := startFleet(e.workdir, sweepSpecs(e))
	if err != nil {
		return 0, nil, err
	}
	defer f.close()
	cfgs, err := sweepConfigs(e)
	if err != nil {
		return 0, nil, err
	}
	_, times, err := timeSimNew(cfgs)
	return time.Since(t0), times, err
}

// coordSpans maps the coordinator's span names to timed calls.
var coordSpans = map[string]string{
	"route":                "cluster.route",
	"await":                "cluster.await",
	"checkpoint.replicate": "blob.replicate",
}

func sweepFleetPass(e *env, traced bool) (*pass, error) {
	specs := sweepSpecs(e)
	f, err := startFleet(e.workdir, specs)
	if err != nil {
		return nil, err
	}
	defer f.close()

	p := &pass{}
	sw, err := startStopwatch(traced)
	if err != nil {
		return nil, err
	}
	res, err := f.coord.Batch(context.Background(), service.BatchSpec{Specs: specs},
		func(service.BatchPoint) { p.points = append(p.points, sw.since()) })
	sw.stop(p)
	if err != nil {
		return nil, err
	}
	collectPoints(p, res)

	var pools []service.PoolStats
	var blobBytes int64
	for _, w := range f.workers {
		pools = append(pools, w.pool.Stats())
		blobBytes += w.store.Stats().Bytes
	}
	p.counts = poolCounts(e, pools)
	var ws service.WireStats
	for _, wk := range f.coord.Registry().Workers() {
		s := wk.Client.WireStats()
		ws.Calls += s.Calls
		ws.Fallbacks += s.Fallbacks
		ws.Reuses += s.Reuses
	}
	perWorker := make(map[string]int)
	for _, pt := range res.Points {
		perWorker[pt.Worker]++
	}
	maxPoints := 0
	for _, n := range perWorker {
		maxPoints = max(maxPoints, n)
	}
	p.counts["wire.calls"] = float64(ws.Calls)
	p.counts["wire.fallbacks"] = float64(ws.Fallbacks)
	p.counts["wire.reuses"] = float64(ws.Reuses)
	p.counts["cluster.max_points_per_worker"] = float64(maxPoints)
	p.counts["blob.bytes"] = float64(blobBytes)
	p.counts["wal.appends"] = float64(f.coord.Store().Stats().WAL.Appended)

	if traced {
		if err := recordFleetSpans(f, p, res); err != nil {
			return nil, err
		}
		if err := probeCachedRTT(f, p, specs); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// recordFleetSpans collects each point's coordinator spans and its
// worker's pool spans, and derives cluster.overhead: the time the
// coordinator spent on a point (route + await) beyond the worker's own
// queue wait and execution.
func recordFleetSpans(f *fleet, p *pass, res service.BatchResult) error {
	for _, pt := range res.Points {
		coord := spanDurations(f.tracer, pt.Status.ID)
		for span, ds := range coord {
			if call, ok := coordSpans[span]; ok {
				for _, d := range ds {
					p.record(call, d)
				}
			}
		}
		rec, ok := f.coord.Store().Job(pt.Status.ID)
		if !ok {
			return fmt.Errorf("fleet: no coordinator record for point %d", pt.Index)
		}
		wk, ok := f.coord.Registry().Worker(rec.Worker)
		if !ok {
			return fmt.Errorf("fleet: point %d names unknown worker %q", pt.Index, rec.Worker)
		}
		w, ok := f.workerByURL(wk.URL)
		if !ok {
			return fmt.Errorf("fleet: worker %s at unknown URL %s", wk.ID, wk.URL)
		}
		recordSpans(p, w.tracer, rec.Local, poolSpans)
		worker := spanDurations(w.tracer, rec.Local)
		p.record("cluster.overhead", sum(coord["route"])+sum(coord["await"])-sum(worker["queue"])-sum(worker["execute"]))
	}
	return nil
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// probeCachedRTT resubmits the finished sweep to the coordinator five
// times through a service.Client, over the transport it negotiates, and
// times each submit; every one must be answered from a result cache.
func probeCachedRTT(f *fleet, p *pass, specs []service.JobSpec) error {
	c := service.NewClient(f.url)
	defer c.Close()
	for rep := 0; rep < 5; rep++ {
		for i, s := range specs {
			t0 := time.Now()
			st, err := c.Submit(context.Background(), s)
			d := time.Since(t0)
			if err != nil {
				return fmt.Errorf("cached submit of point %d: %w", i, err)
			}
			if st.State != service.StateDone || !st.Cached {
				return errors.New("cached submit: a finished point was not served from cache")
			}
			p.record("service.cached_rtt", d)
		}
	}
	return nil
}
