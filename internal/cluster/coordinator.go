package cluster

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"time"

	"bump/internal/obs"
	"bump/internal/service"
	"bump/internal/sim"
	"bump/internal/snapshot"
	"bump/internal/wal"
)

// Options configures a Coordinator.
type Options struct {
	// Workers are the backend bumpd base URLs: the whole fleet, which
	// must not be empty or name one worker twice. A DataDir does not
	// record it, so a coordinator restarted with an edited list serves
	// exactly that list.
	Workers []string
	// Registry tunes probing/ejection (zero value: defaults).
	Registry RegistryOptions
	// DataDir is the WAL directory for durable coordinator state; empty
	// means memory-only. With a data dir, a coordinator restarted on the
	// same directory replays its log, re-answers every pre-crash job ID,
	// and re-drives unfinished work.
	DataDir string
	// WAL tunes segment rotation and fsync; CompactEvery the checkpoint
	// cadence (see StoreOptions).
	WAL          wal.Options
	CompactEvery uint64
	// RetainJobs bounds retained terminal job records, batch points
	// included (default 4096).
	RetainJobs int
	// RetryInterval paces re-placement retries while no worker is
	// routable (default 250ms): a job whose worker failed waits out the
	// outage. A submit while no worker is up is refused with
	// ErrNoWorkers instead.
	RetryInterval time.Duration
	// Metrics, when non-nil, gets the coordinator's collectors (fleet
	// topology, job states, WAL, aggregated worker wire stats) and is
	// served at GET /metrics.
	Metrics *obs.Registry
	// Tracer, when non-nil, records coordinator-side spans (route,
	// await, failover) per tracked job; GET /v1/jobs/{id}/trace
	// stitches the assigned worker's spans onto them under one trace ID.
	Tracer *obs.Tracer
	// Logger receives structured job events (placements, failovers,
	// placement failures) with job and trace IDs attached. Nil discards
	// them.
	Logger *slog.Logger
}

// Coordinator federates the fleet behind the single-worker /v1 API plus
// the cluster-only /v1/cluster topology. Every accepted job is recorded
// in the Store before the client hears about it; per-job driver
// goroutines carry each one to a terminal state, failing over across
// workers and surviving coordinator restarts (drivers are respawned
// from the WAL). A sweep is its points, each such a job.
type Coordinator struct {
	reg   *Registry
	store *Store
	opts  Options

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu sync.Mutex
	// tracks holds, per job a driver is carrying, the progress channels
	// of its watchers; the driver closes them once the job has ended.
	tracks map[string]map[chan sim.Progress]struct{}
	// stops ends, per job a driver is carrying, the driver's context.
	stops    map[string]context.CancelFunc
	retained []string // terminal job IDs, oldest first

	// wireAddr is the coordinator's own advertised binary listener (set
	// via SetWireAddr before serving traffic; surfaced in /v1/healthz).
	wireAddr string

	tracer *obs.Tracer // coordinator-side spans (nil = tracing off)
	log    *slog.Logger
}

// New builds a coordinator: builds the registry over opts.Workers,
// opens (and replays) the store, runs one synchronous probe round so a
// healthy fleet is routable before New returns, and respawns drivers
// for every job that was in flight when the previous coordinator died.
// An empty Workers list is an error, data dir or not.
func New(ctx context.Context, opts Options) (*Coordinator, error) {
	if opts.RetryInterval <= 0 {
		opts.RetryInterval = 250 * time.Millisecond
	}
	if opts.RetainJobs <= 0 {
		opts.RetainJobs = 4096
	}
	reg, err := NewRegistry(opts.Workers, opts.Registry)
	if err != nil {
		return nil, err
	}
	store, err := OpenStore(StoreOptions{Dir: opts.DataDir, WAL: opts.WAL, CompactEvery: opts.CompactEvery})
	if err != nil {
		reg.Close()
		return nil, err
	}
	reg.ProbeOnce(ctx)
	rctx, cancel := context.WithCancel(context.Background())
	c := &Coordinator{
		reg:    reg,
		store:  store,
		opts:   opts,
		ctx:    rctx,
		cancel: cancel,
		tracks: make(map[string]map[chan sim.Progress]struct{}),
		stops:  make(map[string]context.CancelFunc),
		tracer: opts.Tracer,
		log:    opts.Logger,
	}
	if c.log == nil {
		c.log = slog.New(slog.DiscardHandler)
	}
	if opts.Metrics != nil {
		c.registerCollectors(opts.Metrics)
	}
	c.recover()
	return c, nil
}

// SetWireAddr records the coordinator's advertised binary listener for
// /v1/healthz. Call before serving traffic.
func (c *Coordinator) SetWireAddr(addr string) { c.wireAddr = addr }

// Close stops the drivers, probe loop and store. Deliberately
// crash-equivalent for the WAL (no final checkpoint): unfinished jobs
// stay non-terminal on disk and are re-driven by the next coordinator
// on this data directory.
func (c *Coordinator) Close() {
	c.cancel()
	c.wg.Wait()
	c.reg.Close()
	c.store.Close()
}

// Registry exposes the worker registry (topology, stats, probing).
func (c *Coordinator) Registry() *Registry { return c.reg }

// Store exposes the durable job store.
func (c *Coordinator) Store() *Store { return c.store }

// recover respawns a driver for every non-terminal job found in the
// replayed store. A job still assigned to a live worker is simply
// followed again (and, because worker pools coalesce by config hash,
// even a re-submission would attach to the in-flight execution rather
// than re-run it); a job on a dead worker, or on one the -workers list
// no longer names, re-routes through the ordinary failover path.
func (c *Coordinator) recover() {
	for _, j := range c.store.Jobs() {
		if !j.State.Terminal() {
			c.spawn(j.ID)
		}
	}
}

// statusFromRecord rebuilds the client-visible status from a stored
// record (used for terminal answers and while a job awaits placement).
func statusFromRecord(rec JobRecord) service.JobStatus {
	return service.JobStatus{
		ID:       rec.ID,
		Hash:     rec.Hash,
		State:    rec.State,
		Cached:   rec.Cached,
		Priority: rec.Spec.Priority,
		Spec:     rec.Spec,
		Result:   rec.Result,
		Error:    rec.Error,
	}
}

// applyStatus folds a worker's terminal status into the record.
func applyStatus(rec *JobRecord, st service.JobStatus) {
	rec.State = st.State
	rec.Hash = st.Hash
	rec.Cached = st.Cached
	rec.Result = st.Result
	rec.Error = st.Error
}

// spawn opens a job's track and starts the driver that carries it to a
// terminal state, under a context of its own that Cancel can end.
func (c *Coordinator) spawn(id string) {
	ctx, stop := context.WithCancel(c.ctx)
	c.mu.Lock()
	c.tracks[id] = make(map[chan sim.Progress]struct{})
	c.stops[id] = stop
	c.mu.Unlock()
	c.wg.Add(1)
	go c.drive(ctx, id)
}

// drive runs one job's driver and closes its track when the driver
// ends: after finish has persisted the terminal record, or when the
// coordinator closes.
func (c *Coordinator) drive(ctx context.Context, id string) {
	defer c.wg.Done()
	defer c.untrack(id)
	c.driveJob(ctx, id)
}

// untrack closes a job's track, ending every watch of it, and releases
// the driver's context.
func (c *Coordinator) untrack(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for ch := range c.tracks[id] {
		close(ch)
	}
	delete(c.tracks, id)
	c.stops[id]()
	delete(c.stops, id)
}

// relay returns the driver's progress callback for a job: each snapshot
// goes to every watcher, drop-on-full, so a stalled watcher only loses
// intermediate snapshots and never holds the driver.
func (c *Coordinator) relay(id string) func(sim.Progress) {
	return func(pr sim.Progress) {
		c.mu.Lock()
		defer c.mu.Unlock()
		for ch := range c.tracks[id] {
			select {
			case ch <- pr:
			default:
			}
		}
	}
}

// driveJob is the tracked-job state machine: place (or re-place) the
// spec on the key's ring sequence, follow the worker's event stream to
// the job's end, and persist the terminal outcome. A worker-side
// failure, or the registry marking the worker down mid-follow, fails
// the job over; an empty fleet is waited out (struck workers become
// eligible again once the registry readmits them). Re-execution after
// failover is safe because results are a deterministic function of the
// configuration — and a re-submission to a worker still running the job
// coalesces onto the in-flight execution by config hash. ctx is the
// job's own: once Cancel has stored the job canceled and ended it, the
// driver re-reads the record and settles it.
func (c *Coordinator) driveJob(ctx context.Context, id string) {
	tried := make(map[string]bool)
	for {
		rec, ok := c.store.Job(id)
		if !ok || c.ctx.Err() != nil {
			return
		}
		if rec.State.Terminal() {
			c.finish(rec, false)
			return
		}
		if ctx.Err() != nil {
			return
		}
		if rec.Worker == "" {
			if c.tracer != nil {
				// Begin is idempotent; recovered jobs get their ID minted
				// here, and the worker receives it in the spec so both
				// sides' spans share one trace.
				rec.Spec.TraceID = c.tracer.Begin(id, rec.Spec.TraceID)
			}
			routeT0 := time.Now()
			st, wk, err := c.place(ctx, rec.Key, rec.Spec, tried)
			switch {
			case errors.Is(err, ErrNoWorkers):
				tried = make(map[string]bool)
				select {
				case <-ctx.Done():
				case <-time.After(c.opts.RetryInterval):
				}
				continue
			case err != nil:
				if ctx.Err() != nil {
					continue
				}
				// Client fault (or every worker rejecting the spec):
				// failing over further would only repeat the rejection.
				rec.State = service.StateFailed
				rec.Error = err.Error()
				c.log.Warn("job failed at placement", "job", id,
					"trace", rec.Spec.TraceID, "error", err)
				c.finish(rec, true)
				return
			}
			c.span(id, "route", routeT0, time.Now(),
				obs.SpanArg{Key: "worker", Val: wk.ID},
				obs.SpanArg{Key: "key", Val: rec.Key})
			c.log.Debug("job placed", "job", id, "trace", rec.Spec.TraceID,
				"worker", wk.ID, "key", rec.Key)
			// A cancel may have landed while the job was unplaced; don't
			// resurrect it, nor end a worker job another job follows.
			if cur, ok := c.store.Job(id); ok && cur.State.Terminal() {
				if !c.sharedLocal(id, wk.URL, st.ID) {
					wk.Client.Cancel(ctx, st.ID)
				}
				c.finish(cur, false)
				return
			}
			rec.Hash = st.Hash
			if st.State.Terminal() {
				applyStatus(&rec, st)
				rec.Worker = wk.URL
				c.finish(rec, true)
				return
			}
			rec.State, rec.Worker, rec.Local = st.State, wk.URL, st.ID
			c.store.PutJob(rec)
			continue
		}
		// Assigned: follow the job on its worker to a verdict.
		wk, okw := c.reg.Worker(rec.Worker)
		var st service.JobStatus
		var err error
		awaitT0 := time.Now()
		if okw {
			st, err = c.follow(ctx, wk, rec.Local, c.relay(id))
		} else {
			err = fmt.Errorf("cluster: worker %s is not in the fleet", rec.Worker)
			c.cancelDropped(rec.Worker, rec.Local)
		}
		if ctx.Err() != nil {
			continue // the loop top settles a canceled job
		}
		if err == nil {
			c.span(id, "await", awaitT0, time.Now(),
				obs.SpanArg{Key: "worker", Val: wk.ID})
			applyStatus(&rec, st)
			c.finish(rec, true)
			return
		}
		c.instant(id, "failover",
			obs.SpanArg{Key: "worker", Val: rec.Worker},
			obs.SpanArg{Key: "error", Val: err.Error()})
		c.log.Warn("job failing over", "job", id, "trace", rec.Spec.TraceID,
			"worker", rec.Worker, "error", err)
		if okw {
			tried[wk.URL] = true
		}
		rec.Worker, rec.Local = "", ""
		rec.State = service.StateQueued
		c.store.PutJob(rec)
	}
}

// cancelDropped asks a worker the fleet no longer names to cancel a
// recovered job, so that a dropped worker still alive does not simulate
// it to the end while the failover target runs it again. It is best
// effort and does not delay the failover: the DELETE runs on a one-off
// client, bounded by the coordinator's context and the request timeout,
// and its error is ignored. A record written before records named
// workers by URL ("w0") has no address to send it to.
func (c *Coordinator) cancelDropped(worker, local string) {
	if local == "" || !strings.Contains(worker, "://") {
		return
	}
	cl := service.NewClient(worker)
	cl.RequestTimeout = c.opts.Registry.RequestTimeout
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		_, _ = cl.Cancel(c.ctx, local) // best effort; see above
	}()
}

// follow watches a job on its worker to the job's end. The follow also
// ends when ctx does or when the registry marks the worker down, so a
// worker that stops answering but keeps its sockets open cannot hold
// it. A failure the worker caused strikes it toward ejection; a follow
// ended by ctx or by the registry strikes nothing.
func (c *Coordinator) follow(ctx context.Context, wk *Worker, local string, onProgress func(sim.Progress)) (service.JobStatus, error) {
	wctx, stop := c.reg.WhileUp(ctx, wk.URL)
	defer stop()
	st, err := wk.Client.Watch(wctx, local, onProgress)
	switch {
	case err == nil:
	case wctx.Err() != nil:
		err = context.Cause(wctx)
	default:
		c.reg.ReportFailure(wk.URL, err)
	}
	return st, err
}

// finish settles a terminal record: persist it (unless the caller
// already did) and enroll it in the bounded retention window.
func (c *Coordinator) finish(rec JobRecord, persist bool) {
	if persist {
		c.store.PutJob(rec)
	}
	c.retireJob(rec.ID)
}

// retireJob enforces job retention: beyond RetainJobs (plus slack, so
// the compaction each eviction triggers is amortized) the oldest
// terminal records are dropped.
func (c *Coordinator) retireJob(id string) {
	var drop []string
	c.mu.Lock()
	c.retained = append(c.retained, id)
	if slack := c.opts.RetainJobs + c.opts.RetainJobs/8 + 1; len(c.retained) > slack {
		n := len(c.retained) - c.opts.RetainJobs
		drop = append(drop, c.retained[:n]...)
		c.retained = append(c.retained[:0], c.retained[n:]...)
	}
	c.mu.Unlock()
	if len(drop) > 0 {
		c.store.DropJobs(drop)
	}
}

// Batch executes a whole sweep across the fleet: RunBatch over the
// coordinator, so every point is an ordinary durable job routed by its
// own affinity key. Completions stream to onPoint (serialized; may be
// nil) as they land, and the aggregate comes back in submission order;
// both name the worker that served each point by its URL.
func (c *Coordinator) Batch(ctx context.Context, spec service.BatchSpec, onPoint func(service.BatchPoint)) (service.BatchResult, error) {
	res, err := service.RunBatch(ctx, c, spec, func(pt service.BatchPoint) {
		pt.Worker = c.workerOf(pt.Status.ID)
		if onPoint != nil {
			onPoint(pt)
		}
	})
	for i := range res.Points {
		res.Points[i].Worker = c.workerOf(res.Points[i].Status.ID)
	}
	return res, err
}

// workerOf returns the URL of the worker a job's record was last placed
// on.
func (c *Coordinator) workerOf(id string) string {
	rec, _ := c.store.Job(id)
	return rec.Worker
}

// ClusterPayload is served by GET /v1/cluster: coordinator identity and
// per-worker topology and admission state.
type ClusterPayload struct {
	Status string `json:"status"`
	// Version is the snapshot format version this coordinator requires
	// of workers.
	Version int `json:"version"`
	// Up of Total members are currently admitted.
	Up      int          `json:"up"`
	Total   int          `json:"total"`
	Workers []WorkerInfo `json:"workers"`
}

// Topology snapshots the cluster for /v1/cluster.
func (c *Coordinator) Topology() ClusterPayload {
	infos := c.reg.Info()
	up, total := 0, len(infos)
	for _, w := range infos {
		if w.State == WorkerUp {
			up++
		}
	}
	status := "ok"
	switch {
	case up == 0:
		status = "down"
	case up < total:
		status = "degraded"
	}
	return ClusterPayload{
		Status:  status,
		Version: c.reg.opts.FormatVersion,
		Up:      up,
		Total:   total,
		Workers: infos,
	}
}

// Handler exposes the coordinator over HTTP: the /v1 job and batch
// routes of service.MountJobs over the coordinator's Backend (job IDs
// are coordinator-minted but remain opaque strings to clients), plus
// the cluster-level additions — the stitched job trace, /v1/cluster
// topology, health and metrics.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	service.MountJobs(mux, c)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", c.trace)
	mux.HandleFunc("GET /v1/healthz", c.healthz)
	mux.HandleFunc("GET /v1/cluster", c.cluster)
	mux.HandleFunc("GET /metrics", service.MetricsHandler(c.opts.Metrics))
	return mux
}

// healthz serves the coordinator's self-description in the worker
// schema; its status is the fleet's (ok, degraded or down).
func (c *Coordinator) healthz(w http.ResponseWriter, r *http.Request) {
	service.WriteJSON(w, http.StatusOK, service.HealthPayload{
		Status:   c.Topology().Status,
		Version:  snapshot.FormatVersion,
		WireAddr: c.wireAddr,
	})
}

func (c *Coordinator) cluster(w http.ResponseWriter, r *http.Request) {
	service.WriteJSON(w, http.StatusOK, c.Topology())
}
