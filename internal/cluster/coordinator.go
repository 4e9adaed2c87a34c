package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
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
	// Workers are the backend bumpd base URLs. Together with the
	// members a DataDir recorded they are the whole fleet, which must
	// not be empty.
	Workers []string
	// Registry tunes probing/ejection (zero value: defaults).
	Registry RegistryOptions
	// BatchConcurrency bounds in-flight points across batches (default
	// 64; execution parallelism is bounded by the workers' own pools,
	// this only caps coordinator-side goroutines and open watches).
	BatchConcurrency int
	// DataDir is the WAL directory for durable coordinator state; empty
	// means memory-only (embedded coordinators, tests). With a data dir,
	// a coordinator restarted on the same directory replays its log,
	// re-answers every pre-crash job ID, and re-drives unfinished work.
	DataDir string
	// WAL tunes segment rotation and fsync; CompactEvery the checkpoint
	// cadence (see StoreOptions).
	WAL          wal.Options
	CompactEvery uint64
	// RetainJobs bounds retained terminal solo-job records;
	// RetainBatches bounds retained completed sweeps (with their point
	// jobs). Defaults 4096 and 64.
	RetainJobs    int
	RetainBatches int
	// RetryInterval paces placement retries while no worker is routable
	// (default 250ms). A job is never failed for lack of workers — it
	// waits out the outage.
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
// cluster-only endpoints (/v1/cluster topology, /v1/batch sweeps).
// Every accepted job and sweep is recorded in the Store before the
// client hears about it; per-job driver goroutines carry each one to a
// terminal state, failing over across workers and surviving
// coordinator restarts (drivers are respawned from the WAL).
type Coordinator struct {
	reg   *Registry
	store *Store
	opts  Options

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	sem    chan struct{} // batch point concurrency

	mu          sync.Mutex
	batches     map[string]*batchEntry
	soloRetain  []string
	batchRetain []string

	// wireAddr is the coordinator's own advertised binary listener (set
	// via SetWireAddr before serving traffic; surfaced in /v1/healthz).
	wireAddr string

	tracer *obs.Tracer // coordinator-side spans (nil = tracing off)
	log    *slog.Logger
}

// New builds a coordinator: opens (and replays) the store, seeds the
// registry from persisted fleet membership plus opts.Workers, runs one
// synchronous probe round so a healthy fleet is routable before New
// returns, and respawns drivers for every job that was in flight when
// the previous coordinator died. A fleet with no member at all is an
// error.
func New(ctx context.Context, opts Options) (*Coordinator, error) {
	if opts.BatchConcurrency <= 0 {
		opts.BatchConcurrency = 64
	}
	if opts.RetryInterval <= 0 {
		opts.RetryInterval = 250 * time.Millisecond
	}
	if opts.RetainJobs <= 0 {
		opts.RetainJobs = 4096
	}
	if opts.RetainBatches <= 0 {
		opts.RetainBatches = 64
	}
	store, err := OpenStore(StoreOptions{Dir: opts.DataDir, WAL: opts.WAL, CompactEvery: opts.CompactEvery})
	if err != nil {
		return nil, err
	}
	reg, err := NewRegistry(nil, opts.Registry)
	if err != nil {
		store.Close()
		return nil, err
	}
	ok := false
	defer func() {
		if !ok {
			reg.Close()
			store.Close()
		}
	}()
	// Persisted membership first: its worker IDs are referenced by
	// recovered job records and must win any ID assignment race with the
	// seed list.
	for _, wr := range store.FleetWorkers() {
		if _, err := reg.Add(wr.URL, wr.ID); err != nil {
			return nil, err
		}
	}
	for _, url := range opts.Workers {
		if _, found := reg.WorkerByURL(url); found {
			continue
		}
		w, err := reg.Add(url, "")
		if err != nil {
			return nil, err
		}
		if err := store.PutWorker(WorkerRecord{ID: w.ID, URL: w.URL}); err != nil {
			return nil, err
		}
	}
	if len(reg.Workers()) == 0 {
		return nil, errors.New("cluster: no workers")
	}
	reg.ProbeOnce(ctx)
	rctx, cancel := context.WithCancel(context.Background())
	c := &Coordinator{
		reg:     reg,
		store:   store,
		opts:    opts,
		ctx:     rctx,
		cancel:  cancel,
		sem:     make(chan struct{}, opts.BatchConcurrency),
		batches: make(map[string]*batchEntry),
		tracer:  opts.Tracer,
		log:     opts.Logger,
	}
	if c.log == nil {
		c.log = slog.New(slog.DiscardHandler)
	}
	if opts.Metrics != nil {
		c.registerCollectors(opts.Metrics)
	}
	c.recover()
	ok = true
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

// Store exposes the durable job/fleet store.
func (c *Coordinator) Store() *Store { return c.store }

// recover respawns the driver goroutines for every non-terminal job and
// every unplaced batch point found in the replayed store. A job still
// assigned to a live worker is simply followed again (and, because
// worker pools coalesce by config hash, even a re-submission would
// attach to the in-flight execution rather than re-run it); a job on a
// dead or departed worker re-routes through the ordinary failover path.
func (c *Coordinator) recover() {
	batches := c.store.Batches()
	linked := make(map[string]bool)
	for _, b := range batches {
		for _, jid := range b.Jobs {
			if jid != "" {
				linked[jid] = true
			}
		}
	}
	for _, j := range c.store.Jobs() {
		if j.State.Terminal() {
			continue
		}
		if j.Batch != "" && !linked[j.ID] {
			// The previous coordinator died between writing this point's
			// job record and linking it into the batch; the point will be
			// re-placed under a fresh record, so retire the orphan.
			j.State = service.StateFailed
			j.Error = "orphaned by coordinator crash during placement"
			c.store.PutJob(j)
			continue
		}
		if j.Batch == "" {
			c.wg.Add(1)
			go c.drive(j.ID)
		}
	}
	for _, b := range batches {
		be := newBatchEntry(len(b.Specs))
		for _, jid := range b.Jobs {
			if jid == "" {
				continue
			}
			if rec, ok := c.store.Job(jid); ok && rec.State.Terminal() {
				be.fold(c.toPoint(rec))
			}
		}
		c.mu.Lock()
		c.batches[b.ID] = be
		c.mu.Unlock()
		if be.finished() {
			c.retireBatch(b.ID)
			continue
		}
		for i, jid := range b.Jobs {
			if jid != "" {
				if rec, ok := c.store.Job(jid); ok && rec.State.Terminal() {
					continue
				}
			}
			c.wg.Add(1)
			go c.drivePoint(b.ID, i)
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

func (c *Coordinator) toPoint(rec JobRecord) service.BatchPoint {
	var worker string
	if w, ok := c.reg.Worker(rec.Worker); ok {
		worker = w.ID
	}
	return service.BatchPoint{Index: rec.Index, Worker: worker, Status: service.PayloadFor(statusFromRecord(rec))}
}

// drive carries one solo job to a terminal state.
func (c *Coordinator) drive(id string) {
	defer c.wg.Done()
	c.driveJob(id)
}

// driveJob is the tracked-job state machine: place (or re-place) the
// spec on the key's ring sequence, follow the worker's event stream to
// the job's end, and persist the terminal outcome. A worker-side
// failure, or the registry marking the worker down mid-follow, fails
// the job over; an empty fleet is waited out (struck workers become
// eligible again once the registry readmits them). Re-execution after
// failover is safe because results are a deterministic function of the
// configuration — and a re-submission to a worker still running the job
// coalesces onto the in-flight execution by config hash.
func (c *Coordinator) driveJob(id string) {
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
		if rec.Worker == "" {
			if c.tracer != nil {
				// Begin is idempotent; recovered and batch-point jobs get
				// their ID minted here, and the worker receives it in the
				// spec so both sides' spans share one trace.
				rec.Spec.TraceID = c.tracer.Begin(id, rec.Spec.TraceID)
			}
			routeT0 := time.Now()
			st, wk, err := c.place(c.ctx, rec.Key, rec.Spec, tried)
			switch {
			case errors.Is(err, ErrNoWorkers):
				tried = make(map[string]bool)
				select {
				case <-c.ctx.Done():
					return
				case <-time.After(c.opts.RetryInterval):
				}
				continue
			case err != nil:
				if c.ctx.Err() != nil {
					return
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
			// resurrect it.
			if cur, ok := c.store.Job(id); ok && cur.State.Terminal() {
				wk.Client.Cancel(c.ctx, st.ID)
				c.finish(cur, false)
				return
			}
			rec.Hash = st.Hash
			if st.State.Terminal() {
				applyStatus(&rec, st)
				rec.Worker = wk.ID
				c.finish(rec, true)
				return
			}
			rec.State, rec.Worker, rec.Local = st.State, wk.ID, st.ID
			c.store.PutJob(rec)
			continue
		}
		// Assigned: follow the job on its worker to a verdict.
		wk, okw := c.reg.Worker(rec.Worker)
		var st service.JobStatus
		var err error
		awaitT0 := time.Now()
		if okw {
			st, err = c.follow(c.ctx, wk, rec.Local, nil)
		} else {
			err = fmt.Errorf("cluster: worker %s left the registry", rec.Worker)
		}
		if c.ctx.Err() != nil {
			return
		}
		if err == nil {
			c.span(id, "await", awaitT0, time.Now(),
				obs.SpanArg{Key: "worker", Val: rec.Worker})
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
			tried[wk.ID] = true
		}
		rec.Worker, rec.Local = "", ""
		rec.State = service.StateQueued
		c.store.PutJob(rec)
	}
}

// follow watches a job on its worker to the job's end. The follow also
// ends when ctx does or when the registry marks the worker down, so a
// worker that stops answering but keeps its sockets open cannot hold
// it. A failure the worker caused strikes it toward ejection; a follow
// ended by ctx or by the registry strikes nothing.
func (c *Coordinator) follow(ctx context.Context, wk *Worker, local string, onProgress func(sim.Progress)) (service.JobStatus, error) {
	wctx, stop := c.reg.WhileUp(ctx, wk.ID)
	defer stop()
	st, err := wk.Client.Watch(wctx, local, onProgress)
	switch {
	case err == nil:
	case wctx.Err() != nil:
		err = context.Cause(wctx)
	default:
		c.reg.ReportFailure(wk.ID, err)
	}
	return st, err
}

// finish settles a terminal record: persist it (unless the caller
// already did), deliver it to its batch tracker, and enroll it in the
// bounded retention window.
func (c *Coordinator) finish(rec JobRecord, persist bool) {
	if persist {
		c.store.PutJob(rec)
	}
	if rec.Batch != "" {
		c.mu.Lock()
		be := c.batches[rec.Batch]
		c.mu.Unlock()
		if be != nil {
			be.fold(c.toPoint(rec))
			if be.finished() {
				c.retireBatch(rec.Batch)
			}
		}
		return
	}
	c.retireJob(rec.ID)
}

// retireJob enforces solo-job retention: beyond RetainJobs (plus slack,
// so the compaction each eviction triggers is amortized) the oldest
// terminal records are dropped.
func (c *Coordinator) retireJob(id string) {
	var drop []string
	c.mu.Lock()
	c.soloRetain = append(c.soloRetain, id)
	if slack := c.opts.RetainJobs + c.opts.RetainJobs/8 + 1; len(c.soloRetain) > slack {
		n := len(c.soloRetain) - c.opts.RetainJobs
		drop = append(drop, c.soloRetain[:n]...)
		c.soloRetain = append(c.soloRetain[:0], c.soloRetain[n:]...)
	}
	c.mu.Unlock()
	if len(drop) > 0 {
		c.store.DropJobs(drop)
	}
}

// retireBatch enforces sweep retention: completed batches beyond
// RetainBatches are dropped with their point jobs.
func (c *Coordinator) retireBatch(id string) {
	var drop []string
	c.mu.Lock()
	c.batchRetain = append(c.batchRetain, id)
	for len(c.batchRetain) > c.opts.RetainBatches {
		old := c.batchRetain[0]
		c.batchRetain = c.batchRetain[1:]
		delete(c.batches, old)
		drop = append(drop, old)
	}
	c.mu.Unlock()
	for _, old := range drop {
		c.store.DropBatch(old)
	}
}

// batchEntry is the in-memory completion tracker for one sweep.
type batchEntry struct {
	n    int
	mu   sync.Mutex
	comp []service.BatchPoint // completion order
	rem  int
	subs map[int]chan service.BatchPoint
	next int
	done chan struct{}
}

func newBatchEntry(n int) *batchEntry {
	return &batchEntry{n: n, rem: n, subs: make(map[int]chan service.BatchPoint), done: make(chan struct{})}
}

// fold records one completed point and fans it out. Subscriber channels
// are buffered for the whole batch and each point arrives exactly once,
// so the sends never block.
func (b *batchEntry) fold(pt service.BatchPoint) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.comp = append(b.comp, pt)
	for _, ch := range b.subs {
		ch <- pt
	}
	b.rem--
	if b.rem == 0 {
		close(b.done)
	}
}

func (b *batchEntry) finished() bool {
	select {
	case <-b.done:
		return true
	default:
		return false
	}
}

// subscribe returns a channel replaying every already-completed point
// and then live completions, plus a cancel func.
func (b *batchEntry) subscribe() (<-chan service.BatchPoint, func()) {
	b.mu.Lock()
	defer b.mu.Unlock()
	ch := make(chan service.BatchPoint, b.n)
	for _, pt := range b.comp {
		ch <- pt
	}
	id := b.next
	b.next++
	b.subs[id] = ch
	return ch, func() {
		b.mu.Lock()
		delete(b.subs, id)
		b.mu.Unlock()
	}
}

// StartBatch durably registers a sweep and spawns its point drivers.
// The batch record (full spec list) hits the WAL before any placement,
// so a coordinator crash mid-sweep recovers the whole sweep — placed
// points by their job records, unplaced ones from the spec list.
func (c *Coordinator) StartBatch(spec service.BatchSpec) (string, error) {
	if len(spec.Specs) == 0 {
		return "", fmt.Errorf("cluster: empty batch")
	}
	if len(spec.Specs) > service.MaxBatchPoints {
		return "", fmt.Errorf("cluster: batch of %d points exceeds the %d-point limit", len(spec.Specs), service.MaxBatchPoints)
	}
	id := c.store.NextBatchID()
	rec := BatchRecord{ID: id, Specs: spec.Specs, Jobs: make([]string, len(spec.Specs))}
	if err := c.store.PutBatch(rec); err != nil {
		return "", err
	}
	be := newBatchEntry(len(spec.Specs))
	c.mu.Lock()
	c.batches[id] = be
	c.mu.Unlock()
	for i := range spec.Specs {
		c.wg.Add(1)
		go c.drivePoint(id, i)
	}
	return id, nil
}

// drivePoint places one batch point (creating its job record and
// linking it into the batch on first placement) and drives it to a
// terminal state under the batch concurrency semaphore.
func (c *Coordinator) drivePoint(batchID string, i int) {
	defer c.wg.Done()
	select {
	case c.sem <- struct{}{}:
	case <-c.ctx.Done():
		return
	}
	defer func() { <-c.sem }()
	b, ok := c.store.Batch(batchID)
	if !ok {
		return
	}
	id := b.Jobs[i]
	if id == "" {
		id = c.store.NextJobID()
		rec := JobRecord{ID: id, Spec: b.Specs[i], State: service.StateQueued, Batch: batchID, Index: i}
		key, _, err := RouteKey(b.Specs[i])
		if err != nil {
			rec.State = service.StateFailed
			rec.Error = err.Error()
		}
		rec.Key = key
		if err := c.store.PutJob(rec); err != nil {
			rec.State = service.StateFailed
			rec.Error = err.Error()
			c.finish(rec, false)
			return
		}
		c.store.SetBatchJob(batchID, i, id)
		if rec.State.Terminal() {
			c.finish(rec, false)
			return
		}
	}
	c.driveJob(id)
}

// batchResult assembles a sweep's aggregate from the store: points in
// submission order, pending counting the not-yet-terminal ones.
func (c *Coordinator) batchResult(id string) (res service.BatchResult, ok bool, pending int) {
	b, ok := c.store.Batch(id)
	if !ok {
		return service.BatchResult{}, false, 0
	}
	res.Points = make([]service.BatchPoint, len(b.Specs))
	for i, jid := range b.Jobs {
		res.Points[i] = service.BatchPoint{Index: i}
		if jid == "" {
			pending++
			continue
		}
		rec, okj := c.store.Job(jid)
		if !okj {
			pending++
			continue
		}
		res.Points[i] = c.toPoint(rec)
		switch {
		case !rec.State.Terminal():
			pending++
		case rec.State != service.StateDone:
			res.Failed++
		}
	}
	return res, true, pending
}

// WaitBatch streams a tracked sweep's completions to onPoint
// (serialized; may be nil) until every point is terminal or ctx
// expires, then returns the aggregate in submission order.
func (c *Coordinator) WaitBatch(ctx context.Context, id string, onPoint func(service.BatchPoint)) (service.BatchResult, error) {
	c.mu.Lock()
	be := c.batches[id]
	c.mu.Unlock()
	if be == nil {
		res, ok, pending := c.batchResult(id)
		if !ok {
			return service.BatchResult{}, fmt.Errorf("cluster: unknown batch %q", id)
		}
		if pending > 0 {
			return res, fmt.Errorf("cluster: batch %s has no live tracker", id)
		}
		if onPoint != nil {
			for _, pt := range res.Points {
				onPoint(pt)
			}
		}
		return res, nil
	}
	ch, cancelSub := be.subscribe()
	defer cancelSub()
	for got := 0; got < be.n; got++ {
		select {
		case pt := <-ch:
			if onPoint != nil {
				onPoint(pt)
			}
		case <-ctx.Done():
			res, _, _ := c.batchResult(id)
			return res, ctx.Err()
		case <-c.ctx.Done():
			res, _, _ := c.batchResult(id)
			return res, c.ctx.Err()
		}
	}
	res, _, _ := c.batchResult(id)
	return res, ctx.Err()
}

// Batch executes a whole sweep across the fleet: every point routed by
// its own affinity key, completions streamed to onPoint (serialized;
// may be nil) as they land, aggregate returned in submission order. The
// sweep is durably tracked — with a DataDir it survives coordinator
// restarts.
func (c *Coordinator) Batch(ctx context.Context, spec service.BatchSpec, onPoint func(service.BatchPoint)) (service.BatchResult, error) {
	id, err := c.StartBatch(spec)
	if err != nil {
		return service.BatchResult{}, err
	}
	return c.WaitBatch(ctx, id, onPoint)
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

// Handler exposes the coordinator over HTTP: the /v1 job routes of
// service.MountJobs over the coordinator's Backend (job IDs are
// coordinator-minted but remain opaque strings to clients), plus the
// cluster-level additions — /v1/batch sweeps with durable IDs, the
// stitched job trace, /v1/cluster topology, health and metrics.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	service.MountJobs(mux, c)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", c.trace)
	mux.HandleFunc("POST /v1/batch", c.batch)
	mux.HandleFunc("GET /v1/batch/{id}", c.batchStatus)
	mux.HandleFunc("GET /v1/healthz", c.healthz)
	mux.HandleFunc("GET /v1/cluster", c.cluster)
	mux.HandleFunc("GET /metrics", service.MetricsHandler(c.opts.Metrics))
	return mux
}

// batch runs a whole sweep through the cluster; wire-compatible with
// the single-worker /v1/batch (SSE or JSON aggregate), with each point
// additionally naming the worker that served it.
func (c *Coordinator) batch(w http.ResponseWriter, r *http.Request) {
	var spec service.BatchSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		service.WriteError(w, http.StatusBadRequest, "invalid batch spec: %v", err)
		return
	}
	if !service.WantsSSE(r) {
		res, err := c.Batch(r.Context(), spec, nil)
		if err != nil {
			service.WriteError(w, http.StatusBadRequest, "%v", err)
			return
		}
		service.WriteJSON(w, http.StatusOK, res)
		return
	}
	id, err := c.StartBatch(spec)
	if err != nil {
		service.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	fl, ok := service.StartSSE(w)
	if !ok {
		return
	}
	// Announce the durable ID first: a client watching a sweep can
	// requery GET /v1/batch/{id} after a coordinator restart.
	service.WriteSSE(w, fl, "batch-start", map[string]string{"id": id})
	res, err := c.WaitBatch(r.Context(), id, func(pt service.BatchPoint) {
		service.WriteSSE(w, fl, "point", pt)
	})
	if err != nil {
		service.WriteSSE(w, fl, "error", map[string]string{"error": err.Error()})
		return
	}
	service.WriteSSE(w, fl, "batch", res)
}

// BatchStatusPayload is served by GET /v1/batch/{id}: sweep progress
// and the (possibly partial) aggregate, rebuildable across restarts.
type BatchStatusPayload struct {
	ID      string              `json:"id"`
	Done    bool                `json:"done"`
	Pending int                 `json:"pending"`
	Result  service.BatchResult `json:"result"`
}

func (c *Coordinator) batchStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	res, ok, pending := c.batchResult(id)
	if !ok {
		service.WriteError(w, http.StatusNotFound, "unknown batch %q", id)
		return
	}
	service.WriteJSON(w, http.StatusOK, BatchStatusPayload{ID: id, Done: pending == 0, Pending: pending, Result: res})
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
