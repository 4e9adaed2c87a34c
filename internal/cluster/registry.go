package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"bump/internal/service"
	"bump/internal/snapshot"
)

// WorkerState is a worker's health/admission status in the registry.
type WorkerState string

const (
	// WorkerUnknown: not yet successfully probed; never routed to.
	WorkerUnknown WorkerState = "unknown"
	// WorkerUp: healthy and routable.
	WorkerUp WorkerState = "up"
	// WorkerDown: ejected after consecutive probe/request failures;
	// every follow of a job on it ends (see WhileUp), and it is
	// re-probed with exponential backoff and readmitted on success.
	WorkerDown WorkerState = "down"
	// WorkerIncompatible: healthy but speaking a different snapshot
	// format version. Warm checkpoints and cached results keyed under
	// one format version are meaningless under another, so such workers
	// are never routed to; they are still probed, so an in-place upgrade
	// readmits them.
	WorkerIncompatible WorkerState = "incompatible"
)

// RegistryOptions tunes health probing and ejection. Zero values pick
// production defaults.
type RegistryOptions struct {
	// ProbeInterval paces the periodic /v1/healthz round (default 2s).
	ProbeInterval time.Duration
	// ProbeTimeout bounds each probe request (default: ProbeInterval).
	ProbeTimeout time.Duration
	// FailAfter is the consecutive-failure count that ejects a worker
	// (default 3). Failures the coordinator reports from its own calls
	// (placements, watches) count like probe failures, so a dead
	// worker is ejected by the traffic it drops, not only by the next
	// probe round.
	FailAfter int
	// BackoffBase/BackoffMax shape the readmission probe backoff of a
	// down worker: base doubles per failed readmission probe up to max
	// (defaults 1s and 30s). Each wait is jittered by up to +25% so a
	// fleet-wide blip does not synchronize every worker's readmission
	// probe into one thundering herd.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// FormatVersion is the snapshot format this coordinator requires of
	// its workers (default snapshot.FormatVersion — the version this
	// binary was built with).
	FormatVersion int
	// RequestTimeout configures the per-worker service.Client (default:
	// the client default).
	RequestTimeout time.Duration
	// DisableWire pins every per-worker client to HTTP/JSON even against
	// workers that advertise a wire listener (cross-protocol comparison
	// runs, debugging).
	DisableWire bool
}

func (o RegistryOptions) withDefaults() RegistryOptions {
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = 2 * time.Second
	}
	if o.ProbeTimeout <= 0 {
		// Floor the default at 2s: a busy worker (every core simulating)
		// can take tens of milliseconds to answer, and a short probe
		// timeout would misread load as death.
		o.ProbeTimeout = max(o.ProbeInterval, 2*time.Second)
	}
	if o.FailAfter <= 0 {
		o.FailAfter = 3
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = time.Second
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 30 * time.Second
	}
	if o.FormatVersion == 0 {
		o.FormatVersion = snapshot.FormatVersion
	}
	return o
}

// Worker is one bumpd backend of the fleet.
type Worker struct {
	// URL is the backend base URL, normalized: the worker's identity,
	// by which the ring, job records, batch points and every registry
	// lookup name it. ID is a display label ("w0", "w1", … in -workers
	// order) for spans, logs and /v1/cluster; nothing persists it or
	// looks it up.
	ID  string
	URL string
	// Client is the configured API client for this worker.
	Client *service.Client

	// Mutable probe state, guarded by the registry mutex.
	state   WorkerState
	fails   int
	backoff time.Duration
	retryAt time.Time
	lastErr string
	probed  time.Time
	// version is the snapshot format version the worker last reported;
	// wireAddr its advertised binary fast-path listener. Both refresh
	// from probes.
	version  int
	wireAddr string
	// up is canceled when the registry marks the worker down and
	// renewed when it readmits; WhileUp links each follow to it.
	up       context.Context
	markDown context.CancelFunc
}

// WorkerInfo is a worker's exported status snapshot (served by
// /v1/cluster).
type WorkerInfo struct {
	ID    string      `json:"id"`
	URL   string      `json:"url"`
	State WorkerState `json:"state"`
	// Version echoes the worker's last probed self-description.
	Version int `json:"version,omitempty"`
	// Fails is the current consecutive-failure count; LastError the most
	// recent probe or request error.
	Fails    int     `json:"fails,omitempty"`
	LastErr  string  `json:"last_error,omitempty"`
	ProbeAge float64 `json:"probe_age_s,omitempty"`
	// WireAddr is the worker's advertised binary fast-path listener.
	WireAddr string `json:"wire_addr,omitempty"`
}

// Registry tracks the worker fleet, which is the coordinator's
// -workers list: built once, and never joined or left at runtime. Each
// worker's /v1/healthz is probed periodically; healthy matching-version
// workers are admitted, failing ones ejected after FailAfter
// consecutive failures and re-probed with jittered exponential backoff
// until they recover.
type Registry struct {
	opts RegistryOptions

	// Fixed at construction, so read without the lock.
	workers []*Worker
	byURL   map[string]*Worker
	ring    *Ring

	mu sync.Mutex // guards each worker's probe state

	stop chan struct{}
	done chan struct{}
}

// NewRegistry builds a registry over the worker URLs and starts the
// probe loop. Workers start in WorkerUnknown and are not routable until
// their first successful probe — call ProbeOnce to admit the fleet
// synchronously. An empty list, a blank URL and two spellings of one
// URL are refused.
//
// The ring is keyed by worker URL, the worker's identity: a bouncing
// worker does not reshuffle its neighbours' keys, its own keys come
// home when it readmits, and restarting the coordinator with a
// reordered or shrunk fleet keeps every surviving worker's warm
// checkpoints addressable (positional IDs like "w0" would remap nearly
// all keys on any fleet-list edit).
func NewRegistry(urls []string, opts RegistryOptions) (*Registry, error) {
	if len(urls) == 0 {
		return nil, errors.New("cluster: no workers")
	}
	opts = opts.withDefaults()
	r := &Registry{
		opts:  opts,
		byURL: make(map[string]*Worker, len(urls)),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	ringURLs := make([]string, len(urls))
	for i, url := range urls {
		url = normalizeURL(url)
		if url == "" {
			return nil, fmt.Errorf("cluster: empty worker URL at position %d", i)
		}
		if _, dup := r.byURL[url]; dup {
			return nil, fmt.Errorf("cluster: duplicate worker URL %s", url)
		}
		c := service.NewClient(url)
		c.RequestTimeout = opts.RequestTimeout
		c.DisableWire = opts.DisableWire
		w := &Worker{ID: fmt.Sprintf("w%d", i), URL: url, Client: c, state: WorkerUnknown}
		w.up, w.markDown = context.WithCancel(context.Background())
		r.workers = append(r.workers, w)
		r.byURL[url] = w
		ringURLs[i] = url
	}
	// Health filtering happens at pick time via the Sequence walk, so a
	// down worker's keys remap to its ring successors without
	// disturbing anyone else's.
	r.ring = NewRing(ringURLs, 0)
	go r.probeLoop()
	return r, nil
}

// normalizeURL is the one spelling of a worker URL that the registry
// keys by: surrounding whitespace first, then trailing slashes, so
// "http://h:8344/ " and "http://h:8344" name the same worker.
func normalizeURL(url string) string {
	return strings.TrimRight(strings.TrimSpace(url), "/")
}

// Close stops the probe loop.
func (r *Registry) Close() {
	r.mu.Lock()
	select {
	case <-r.stop:
	default:
		close(r.stop)
	}
	r.mu.Unlock()
	<-r.done
}

// Ring returns the fleet's consistent-hash ring.
func (r *Registry) Ring() *Ring { return r.ring }

// Worker resolves a worker by its URL, in any spelling normalizeURL
// folds together.
func (r *Registry) Worker(url string) (*Worker, bool) {
	w, ok := r.byURL[normalizeURL(url)]
	return w, ok
}

// Workers returns the fleet in -workers order.
func (r *Registry) Workers() []*Worker {
	return append([]*Worker(nil), r.workers...)
}

// Up reports whether a worker is currently health-admitted, and so
// takes new placements.
func (r *Registry) Up(url string) bool {
	w, ok := r.Worker(url)
	if !ok {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return w.state == WorkerUp
}

// WhileUp returns a child of ctx that is canceled, with a cause naming
// the worker, once the registry marks the worker down. A follow of a
// job on a worker that stops answering but keeps its sockets open
// would otherwise last forever; this bounds it by the registry's own
// liveness verdict. An unknown or already-down worker's child is
// canceled at once. Call the returned cancel when the follow ends.
func (r *Registry) WhileUp(ctx context.Context, url string) (context.Context, context.CancelFunc) {
	var up context.Context
	if w, ok := r.Worker(url); ok {
		r.mu.Lock()
		up = w.up
		r.mu.Unlock()
	}
	cctx, cancel := context.WithCancelCause(ctx)
	down := func() { cancel(fmt.Errorf("cluster: worker %s marked down", url)) }
	switch {
	case up == nil:
		cancel(fmt.Errorf("cluster: unknown worker %s", url))
	case up.Err() != nil:
		down()
	default:
		stop := context.AfterFunc(up, down)
		return cctx, func() {
			stop()
			cancel(nil)
		}
	}
	return cctx, func() { cancel(nil) }
}

// UpCount returns the number of health-admitted workers.
func (r *Registry) UpCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, w := range r.workers {
		if w.state == WorkerUp {
			n++
		}
	}
	return n
}

func (r *Registry) infoLocked(w *Worker, now time.Time) WorkerInfo {
	info := WorkerInfo{
		ID:       w.ID,
		URL:      w.URL,
		State:    w.state,
		Fails:    w.fails,
		LastErr:  w.lastErr,
		Version:  w.version,
		WireAddr: w.wireAddr,
	}
	if !w.probed.IsZero() {
		info.ProbeAge = now.Sub(w.probed).Seconds()
	}
	return info
}

// Info snapshots every worker's status in -workers order.
func (r *Registry) Info() []WorkerInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := time.Now()
	infos := make([]WorkerInfo, len(r.workers))
	for i, w := range r.workers {
		infos[i] = r.infoLocked(w, now)
	}
	return infos
}

// ReportFailure records a request-level failure against a worker (the
// coordinator calls this when a submit or watch fails): it counts
// toward the same consecutive-failure ejection threshold as a failed
// probe, so traffic ejects a dead worker faster than the probe cadence
// would.
func (r *Registry) ReportFailure(url string, err error) {
	w, ok := r.Worker(url)
	if !ok {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.recordFailureLocked(w, err)
}

// probeLoop drives the periodic health round until Close.
func (r *Registry) probeLoop() {
	defer close(r.done)
	t := time.NewTicker(r.opts.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			r.ProbeOnce(context.Background())
		}
	}
}

// ProbeOnce runs one probe round: every due worker is health-checked
// concurrently and its admission state updated. Down workers are only
// probed once their backoff expires.
func (r *Registry) ProbeOnce(ctx context.Context) {
	r.mu.Lock()
	now := time.Now()
	var due []*Worker
	for _, w := range r.workers {
		if w.state == WorkerDown && now.Before(w.retryAt) {
			continue
		}
		due = append(due, w)
	}
	r.mu.Unlock()

	var wg sync.WaitGroup
	for _, w := range due {
		wg.Add(1)
		go func(w *Worker) {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, r.opts.ProbeTimeout)
			defer cancel()
			h, err := w.Client.Health(pctx)
			r.mu.Lock()
			defer r.mu.Unlock()
			if err != nil {
				w.probed = time.Now()
				r.recordFailureLocked(w, err)
				return
			}
			r.admitLocked(w, h, time.Now())
		}(w)
	}
	wg.Wait()
}

// admitLocked applies the self-description a probe of the worker's
// /v1/healthz returned: the worker is up when it speaks this
// coordinator's snapshot format version, else incompatible. A worker
// readmitted from down gets a fresh WhileUp context.
func (r *Registry) admitLocked(w *Worker, h service.HealthPayload, now time.Time) {
	if w.up.Err() != nil {
		w.up, w.markDown = context.WithCancel(context.Background())
	}
	w.probed = now
	w.fails = 0
	w.backoff = 0
	w.lastErr = ""
	w.version = h.Version
	w.wireAddr = h.WireAddr
	if h.Version != r.opts.FormatVersion {
		w.state = WorkerIncompatible
		w.lastErr = fmt.Sprintf("snapshot format version %d, coordinator requires %d", h.Version, r.opts.FormatVersion)
		return
	}
	w.state = WorkerUp
}

// recordFailureLocked applies one failure: bump the consecutive count,
// eject at the threshold (ending every WhileUp follow of the worker),
// and push the readmission probe out by the
// (doubling) backoff plus a random jitter of up to +25%. Without the
// jitter a fleet-wide blip (switch reboot, coordinated deploy) leaves
// every worker on the same backoff schedule and each retry round
// arrives as one synchronized thundering herd of readmission probes.
func (r *Registry) recordFailureLocked(w *Worker, err error) {
	w.fails++
	w.lastErr = err.Error()
	if w.state == WorkerDown || w.fails >= r.opts.FailAfter {
		w.state = WorkerDown
		w.markDown()
		if w.backoff == 0 {
			w.backoff = r.opts.BackoffBase
		} else if w.backoff < r.opts.BackoffMax {
			w.backoff = min(2*w.backoff, r.opts.BackoffMax)
		}
		jitter := time.Duration(rand.Int63n(int64(w.backoff)/4 + 1))
		w.retryAt = time.Now().Add(w.backoff + jitter)
	}
}
