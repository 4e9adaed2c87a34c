package service

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"bump/internal/obs"
	"bump/internal/sim"
	"bump/internal/snapshot"
)

// State is a job's lifecycle position.
type State string

// Job lifecycle: queued → running → {done, failed, canceled}. A
// cache-hit submission is born done.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Options configures a Pool. Zero values pick production defaults.
type Options struct {
	// Workers bounds concurrent simulations (default: GOMAXPROCS, which
	// respects user and cgroup CPU limits).
	Workers int
	// CacheEntries sizes the LRU result cache (default 256).
	CacheEntries int
	// RetainJobs bounds terminal job records kept for status queries
	// (default 4096; oldest are dropped first).
	RetainJobs int
	// DefaultTimeout applies to jobs that do not set TimeoutMS
	// (default: no timeout).
	DefaultTimeout time.Duration
	// ProgressInterval is the cycle stride between progress events
	// (default: 1/64 of each run).
	ProgressInterval uint64
	// WarmStarts enables the warm-checkpoint store (sim.WarmStore): jobs
	// that share a trunk (identical configs up to the measured
	// parameters — MeasureCycles, MaxRowHitStreak and ForkAt) simulate
	// it once, checkpoint it, and each restores it at its bind cycle. A
	// sweep over a measured parameter then costs one warmup total. It
	// trades checkpoint memory (WarmEntries of them, about 1.3 MB each
	// for the paper machine) for fewer simulated warmups and changes no
	// result: every job is byte-identical to its cold run.
	WarmStarts bool
	// WarmEntries bounds retained warm checkpoints (default 16).
	WarmEntries int
	// WarmBackend layers a durable tier (internal/blob) under the warm
	// store: checkpoints spill to it and survive restarts, so a pool
	// reopened on the same store restores its warmups instead of
	// re-simulating them. Implies WarmStarts when non-nil.
	WarmBackend sim.WarmBackend
	// Metrics, when non-nil, registers the pool's series on the given
	// registry: phase-latency histograms updated on the job path, plus
	// scrape-time collectors adapting PoolStats/CacheStats/WarmStats.
	Metrics *obs.Registry
	// Tracer, when non-nil, records per-job spans (queue wait, warm-key
	// resolution, restore, trunk extension, warmup, measurement, encode)
	// for GET /v1/jobs/{id}/trace. Trace IDs arrive on JobSpec.TraceID or
	// are minted at submit.
	Tracer *obs.Tracer
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.CacheEntries <= 0 {
		o.CacheEntries = 256
	}
	if o.RetainJobs <= 0 {
		o.RetainJobs = 4096
	}
	return o
}

// job is the pool-internal record; JobStatus is its exported snapshot.
type job struct {
	id        string
	hash      string
	spec      JobSpec
	cfg       sim.Config
	priority  int
	seq       uint64
	timeout   time.Duration
	traceID   string
	submitted time.Time

	heapIndex int // position in the queue heap; -1 when not queued

	state       State
	cached      bool
	result      sim.Result
	errMsg      string
	progress    sim.Progress
	hasProgress bool

	subs   map[chan sim.Progress]struct{} // watchers, closed at terminal state
	cancel context.CancelFunc             // set while running
}

// JobStatus is a point-in-time snapshot of a job.
type JobStatus struct {
	ID       string  `json:"id"`
	Hash     string  `json:"hash"`
	State    State   `json:"state"`
	Cached   bool    `json:"cached,omitempty"`
	Priority int     `json:"priority,omitempty"`
	Spec     JobSpec `json:"spec"`
	// Progress is the latest engine snapshot (running jobs only).
	Progress *sim.Progress `json:"progress,omitempty"`
	// Result is set once State is done.
	Result *sim.Result `json:"result,omitempty"`
	Error  string      `json:"error,omitempty"`
}

// PoolStats summarises pool health; RegisterPoolCollectors publishes
// it on /metrics.
type PoolStats struct {
	Workers    int        `json:"workers"`
	Queued     int        `json:"queued"`
	Running    int        `json:"running"`
	Completed  uint64     `json:"completed"`
	Executions uint64     `json:"executions"`
	Coalesced  uint64     `json:"coalesced"`
	Cache      CacheStats `json:"cache"`
	// Warm reports warm-checkpoint reuse (zero value when WarmStarts is
	// off).
	Warm sim.WarmStats `json:"warm"`
}

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("service: pool is closed")

// ErrUnknownJob is returned for job IDs the pool no longer (or never)
// tracks.
var ErrUnknownJob = errors.New("service: unknown job")

// ErrTerminal is returned when canceling a job that is already done,
// failed or canceled.
var ErrTerminal = errors.New("service: job is already terminal")

// Pool executes simulation jobs on a bounded set of workers with
// priority scheduling, duplicate coalescing and result caching. It is
// the Backend bumpd serves.
type Pool struct {
	opts  Options
	cache *resultCache
	// warm is the warm-checkpoint store (nil when WarmStarts is off).
	warm *sim.WarmStore
	// tracer records per-job spans; phaseHist holds one latency
	// histogram per phase name. Both nil when observability is off.
	tracer    *obs.Tracer
	phaseHist map[string]*obs.Histogram

	mu     sync.Mutex
	cond   *sync.Cond
	queue  jobQueue
	jobs   map[string]*job
	byHash map[string]*job // active (queued/running) job per config hash
	retain []string        // terminal job ids, oldest first
	seq    uint64
	closed bool

	running    int
	completed  uint64
	executions uint64
	coalesced  uint64

	wg sync.WaitGroup
}

var _ Backend = (*Pool)(nil)

// NewPool starts a pool with opts' worker count.
func NewPool(opts Options) *Pool {
	p := &Pool{
		opts:   opts.withDefaults(),
		jobs:   make(map[string]*job),
		byHash: make(map[string]*job),
	}
	p.cache = newResultCache(p.opts.CacheEntries)
	p.tracer = p.opts.Tracer
	if p.opts.Metrics != nil {
		p.phaseHist = make(map[string]*obs.Histogram)
		for _, name := range []string{
			"queue", "warm.resolve", "restore", "trunk.extend",
			"warmup", "measure", "encode", "execute",
		} {
			p.phaseHist[name] = p.opts.Metrics.Histogram(
				"bump_sim_phase_seconds",
				"Simulation job phase latency in seconds.",
				obs.DurationBuckets, "phase", name)
		}
		RegisterPoolCollectors(p.opts.Metrics, p)
	}
	if p.opts.WarmStarts || p.opts.WarmBackend != nil {
		p.warm = sim.NewWarmStoreBacked(p.opts.WarmEntries, p.opts.WarmBackend)
	}
	p.cond = sync.NewCond(&p.mu)
	for i := 0; i < p.opts.Workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

// Submit enqueues a job (or joins an equivalent one). Three outcomes:
// a cached result returns a job born done; a hash matching an active
// job coalesces onto it (the returned status carries the *existing*
// job's ID — both submitters observe one execution); otherwise a fresh
// job is queued.
func (p *Pool) Submit(_ context.Context, spec JobSpec) (JobStatus, error) {
	cfg, err := spec.Config()
	if err != nil {
		return JobStatus{}, err
	}
	hash, err := Hash(cfg)
	if err != nil {
		return JobStatus{}, err
	}
	// Mint the trace ID at submit when no upstream layer has: every span
	// this job produces anywhere in the fleet shares it.
	if p.tracer != nil && spec.TraceID == "" {
		spec.TraceID = obs.NewTraceID()
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return JobStatus{}, ErrClosed
	}

	// Coalesce onto an in-flight duplicate; a higher-priority duplicate
	// promotes the queued original.
	if active, ok := p.byHash[hash]; ok {
		p.coalesced++
		if spec.Priority > active.priority && active.heapIndex >= 0 {
			active.priority = spec.Priority
			heap.Fix(&p.queue, active.heapIndex)
		}
		if p.tracer != nil {
			p.tracer.Instant(active.id, "coalesced", time.Now(),
				obs.SpanArg{Key: "joiner_trace_id", Val: spec.TraceID})
		}
		return p.statusLocked(active), nil
	}

	j := p.newJobLocked(spec, cfg, hash)
	if res, ok := p.cache.get(hash); ok {
		j.state = StateDone
		j.cached = true
		j.result = res
		if p.tracer != nil {
			p.tracer.Instant(j.id, "cache.hit", time.Now(),
				obs.SpanArg{Key: "hash", Val: j.hash})
		}
		p.retainTerminalLocked(j)
		return p.statusLocked(j), nil
	}

	j.state = StateQueued
	p.byHash[hash] = j
	heap.Push(&p.queue, j)
	p.cond.Signal()
	return p.statusLocked(j), nil
}

func (p *Pool) newJobLocked(spec JobSpec, cfg sim.Config, hash string) *job {
	p.seq++
	timeout := p.opts.DefaultTimeout
	if spec.TimeoutMS > 0 {
		timeout = time.Duration(spec.TimeoutMS) * time.Millisecond
	}
	j := &job{
		id:        fmt.Sprintf("j%08d", p.seq),
		hash:      hash,
		spec:      spec,
		cfg:       cfg,
		priority:  spec.Priority,
		seq:       p.seq,
		timeout:   timeout,
		traceID:   spec.TraceID,
		submitted: time.Now(),
		heapIndex: -1,
	}
	if p.tracer != nil {
		j.traceID = p.tracer.Begin(j.id, j.traceID)
		j.spec.TraceID = j.traceID
	}
	p.jobs[j.id] = j
	return j
}

// span records a completed interval on a job's trace (no-op without a
// tracer).
func (p *Pool) span(j *job, name string, start, end time.Time, args ...obs.SpanArg) {
	if p.tracer != nil {
		p.tracer.Span(j.id, name, start, end, args...)
	}
}

// observePhase feeds the bump_sim_phase_seconds histogram for one phase
// (no-op without a metrics registry).
func (p *Pool) observePhase(name string, seconds float64) {
	if h, ok := p.phaseHist[name]; ok {
		h.Observe(seconds)
	}
}

// Job returns a job's current status.
func (p *Pool) Job(_ context.Context, id string) (JobStatus, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	j, ok := p.jobs[id]
	if !ok {
		return JobStatus{}, ErrUnknownJob
	}
	return p.statusLocked(j), nil
}

// ResultByHash returns the cached result for a config hash, if present.
func (p *Pool) ResultByHash(_ context.Context, hash string) (sim.Result, bool, error) {
	res, ok := p.cache.get(hash)
	return res, ok, nil
}

// Watch delivers a job's progress snapshots to onProgress (which may be
// nil) and returns its terminal status, or ctx's error once ctx ends.
// A watcher that falls behind loses intermediate snapshots, never the
// verdict. Watch holds the job record itself, so retention dropping the
// job from the index mid-watch cannot lose its verdict.
func (p *Pool) Watch(ctx context.Context, id string, onProgress func(sim.Progress)) (JobStatus, error) {
	p.mu.Lock()
	j, ok := p.jobs[id]
	if !ok {
		p.mu.Unlock()
		return JobStatus{}, ErrUnknownJob
	}
	// Buffered so publish never waits on a watcher; finishLocked closes
	// the channel once the job is terminal.
	ch := make(chan sim.Progress, 16)
	if j.state.Terminal() {
		close(ch)
	} else {
		if j.subs == nil {
			j.subs = make(map[chan sim.Progress]struct{})
		}
		j.subs[ch] = struct{}{}
	}
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		delete(j.subs, ch)
		p.mu.Unlock()
	}()
	for {
		select {
		case <-ctx.Done():
			return JobStatus{}, ctx.Err()
		case pr, open := <-ch:
			if !open {
				p.mu.Lock()
				st := p.statusLocked(j)
				p.mu.Unlock()
				return st, nil
			}
			if onProgress != nil {
				onProgress(pr)
			}
		}
	}
}

// Cancel aborts a job: a queued job is dequeued immediately, a running
// one has its context canceled (the simulation stops at the next hook
// interval). It returns ErrUnknownJob for an ID the pool does not hold
// and ErrTerminal for a job that has already ended.
func (p *Pool) Cancel(_ context.Context, id string) (JobStatus, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	j, ok := p.jobs[id]
	switch {
	case !ok:
		return JobStatus{}, ErrUnknownJob
	case j.state.Terminal():
		return JobStatus{}, fmt.Errorf("%w: %s", ErrTerminal, id)
	}
	if j.heapIndex >= 0 { // still queued
		heap.Remove(&p.queue, j.heapIndex)
		j.state = StateCanceled
		p.finishLocked(j)
	} else if j.cancel != nil {
		j.cancel()
	}
	return p.statusLocked(j), nil
}

// Batch runs a whole sweep on the pool (see RunBatch).
func (p *Pool) Batch(ctx context.Context, spec BatchSpec, onPoint func(BatchPoint)) (BatchResult, error) {
	return RunBatch(ctx, p, spec, onPoint)
}

// Stats snapshots pool health.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	st := PoolStats{
		Workers:    p.opts.Workers,
		Queued:     len(p.queue),
		Running:    p.running,
		Completed:  p.completed,
		Executions: p.executions,
		Coalesced:  p.coalesced,
	}
	p.mu.Unlock()
	st.Cache = p.cache.stats()
	if p.warm != nil {
		st.Warm = p.warm.Stats()
	}
	return st
}

// Health is the self-description a pool's server serves on GET
// /v1/healthz, with wireAddr its advertised wire listener.
func (p *Pool) Health(wireAddr string) HealthPayload {
	return HealthPayload{
		Status:   "ok",
		Version:  snapshot.FormatVersion,
		WireAddr: wireAddr,
	}
}

// Close shuts the pool down: queued jobs are canceled, running jobs'
// contexts are canceled (they stop at the next hook interval), and
// Close returns once every worker has exited.
func (p *Pool) Close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		for len(p.queue) > 0 {
			j := heap.Pop(&p.queue).(*job)
			j.state = StateCanceled
			p.finishLocked(j)
		}
		for _, j := range p.jobs {
			if j.state == StateRunning && j.cancel != nil {
				j.cancel()
			}
		}
		p.cond.Broadcast()
	}
	p.mu.Unlock()
	p.wg.Wait()
}

// worker pops and executes jobs until the pool closes.
func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && !p.closed {
			p.cond.Wait()
		}
		if len(p.queue) == 0 {
			p.mu.Unlock()
			return
		}
		j := heap.Pop(&p.queue).(*job)
		j.state = StateRunning
		p.running++
		p.executions++
		var ctx context.Context
		var cancel context.CancelFunc
		if j.timeout > 0 {
			ctx, cancel = context.WithTimeout(context.Background(), j.timeout)
		} else {
			ctx, cancel = context.WithCancel(context.Background())
		}
		j.cancel = cancel
		p.mu.Unlock()

		started := time.Now()
		p.span(j, "queue", j.submitted, started,
			obs.SpanArg{Key: "priority", Val: j.priority})
		p.observePhase("queue", started.Sub(j.submitted).Seconds())

		hooks := sim.Hooks{
			Interval: p.opts.ProgressInterval,
			Progress: func(pr sim.Progress) { p.publish(j, pr) },
			Cancel:   func() bool { return ctx.Err() != nil },
		}
		if p.tracer != nil || p.phaseHist != nil {
			hooks.Phase = func(name string, start, end time.Time) {
				p.span(j, name, start, end)
				p.observePhase(name, end.Sub(start).Seconds())
			}
		}
		var res sim.Result
		var err error
		if p.warm != nil {
			res, err = p.warm.RunWithHooks(j.cfg, hooks)
		} else {
			res, err = sim.RunOneWithHooks(j.cfg, hooks)
		}
		timedOut := errors.Is(ctx.Err(), context.DeadlineExceeded)
		cancel()

		finished := time.Now()
		p.span(j, "execute", started, finished,
			obs.SpanArg{Key: "hash", Val: j.hash})
		p.observePhase("execute", finished.Sub(started).Seconds())

		p.mu.Lock()
		p.running--
		j.cancel = nil
		switch {
		case err == nil:
			j.state = StateDone
			j.result = res
			p.cache.put(j.hash, res)
		case errors.Is(err, sim.ErrCanceled) && timedOut:
			j.state = StateFailed
			j.errMsg = fmt.Sprintf("timeout after %s", j.timeout)
		case errors.Is(err, sim.ErrCanceled):
			j.state = StateCanceled
		default:
			j.state = StateFailed
			j.errMsg = err.Error()
		}
		p.finishLocked(j)
		p.mu.Unlock()
	}
}

// publish delivers a progress snapshot to the job record and its
// watchers (drop-on-full: a stalled watcher only loses intermediate
// snapshots).
func (p *Pool) publish(j *job, pr sim.Progress) {
	p.mu.Lock()
	defer p.mu.Unlock()
	j.progress = pr
	j.hasProgress = true
	for ch := range j.subs {
		select {
		case ch <- pr:
		default:
		}
	}
}

// finishLocked moves a job into its (already set) terminal state:
// releases the hash reservation, closes watcher channels, and enrolls
// the record in the bounded retention window.
func (p *Pool) finishLocked(j *job) {
	if p.byHash[j.hash] == j {
		delete(p.byHash, j.hash)
	}
	for ch := range j.subs {
		delete(j.subs, ch)
		close(ch)
	}
	p.completed++
	p.retainTerminalLocked(j)
}

// retainTerminalLocked bounds the terminal-job history.
func (p *Pool) retainTerminalLocked(j *job) {
	p.retain = append(p.retain, j.id)
	for len(p.retain) > p.opts.RetainJobs {
		delete(p.jobs, p.retain[0])
		p.retain = p.retain[1:]
	}
}

// statusLocked snapshots a job (result and progress are copied so the
// caller can use them outside the lock).
func (p *Pool) statusLocked(j *job) JobStatus {
	st := JobStatus{
		ID:       j.id,
		Hash:     j.hash,
		State:    j.state,
		Cached:   j.cached,
		Priority: j.priority,
		Spec:     j.spec,
		Error:    j.errMsg,
	}
	if j.hasProgress && !j.state.Terminal() {
		pr := j.progress
		st.Progress = &pr
	}
	if j.state == StateDone {
		r := j.result
		st.Result = &r
	}
	return st
}
