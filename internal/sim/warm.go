package sim

import (
	"bytes"
	"errors"
	"sync"
	"time"
)

// WarmStats counts warm-checkpoint store activity. The headline metric
// is WarmupCyclesSimulated vs WarmupCyclesReused: a warmed N-point sweep
// simulates one warmup and reuses it N-1 times. The Fork* counters
// extend the same ledger to checkpoint-tree nodes cut past the warmup
// boundary: a forked N-point sweep simulates one trunk and N short
// branch tails.
type WarmStats struct {
	// Hits counts runs started from a restored warm checkpoint; Misses
	// counts runs that had to simulate their warmup (and published a
	// checkpoint); Skipped counts runs that were not warm-cacheable
	// (zero warmup window).
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Skipped uint64 `json:"skipped"`
	// WarmupCyclesSimulated totals warmup cycles of *completed* warmups
	// (a leader canceled mid-warmup charges nothing);
	// WarmupCyclesReused totals warmup cycles satisfied by restoring a
	// checkpoint instead.
	WarmupCyclesSimulated uint64 `json:"warmup_cycles_simulated"`
	WarmupCyclesReused    uint64 `json:"warmup_cycles_reused"`

	// ForkHits counts runs that restored a checkpoint-tree node cut
	// past the warmup boundary; ForkMisses counts tree nodes built by
	// extending the trunk from a shallower ancestor.
	ForkHits   uint64 `json:"fork_hits"`
	ForkMisses uint64 `json:"fork_misses"`
	// TrunkCyclesSimulated totals post-warmup cycles simulated to
	// extend the trunk to a cut; BranchCyclesSimulated totals the
	// measured-tail cycles forked runs simulated past their restore
	// point; ForkCyclesReused totals post-warmup cycles satisfied by
	// restoring a tree node instead of simulating them.
	TrunkCyclesSimulated  uint64 `json:"trunk_cycles_simulated"`
	BranchCyclesSimulated uint64 `json:"branch_cycles_simulated"`
	ForkCyclesReused      uint64 `json:"fork_cycles_reused"`
	// Evicted counts poisoned checkpoints purged after a failed
	// restore (corrupt blob-tier bytes, version skew).
	Evicted uint64 `json:"evicted"`
}

// WarmBackend persists warm checkpoints beyond the in-memory cache —
// a content-addressed blob store (internal/blob) in production. The
// store consults it on a cache miss and writes published checkpoints
// through to it. Implementations must be safe for concurrent use.
type WarmBackend interface {
	Get(key string) ([]byte, bool)
	Put(key string, data []byte) error
	// Delete drops a key, best effort — the store uses it to purge
	// checkpoints whose restore failed, so poisoned bytes cannot
	// satisfy (and fail) every future run of the key.
	Delete(key string)
}

// WarmStore caches canonical trunk checkpoints keyed by ForkNodeKey —
// warmup-end state under the plain WarmKey (the tree root), plus
// mid-measurement nodes at the configured fork cycles — so a sweep over
// measured parameters (MeasureCycles, MaxRowHitStreak) restores shared
// trunk state instead of re-simulating it per point. Warming and trunk
// extension are single-flight per node: concurrent runs needing the
// same node wait for the first one to publish it rather than simulating
// redundantly. Safe for concurrent use.
type WarmStore struct {
	mu      sync.Mutex
	max     int
	backend WarmBackend // optional durable tier; nil = memory only
	entries map[string][]byte
	order   []string // insertion order, for bounded eviction
	pending map[string]chan struct{}
	stats   WarmStats
}

// NewWarmStore returns a store retaining at most max checkpoints
// (default 16 when max <= 0).
func NewWarmStore(max int) *WarmStore {
	return NewWarmStoreBacked(max, nil)
}

// NewWarmStoreBacked returns a store layered over a durable backend:
// misses fall through to it before simulating, and published
// checkpoints are written through so they survive restarts.
func NewWarmStoreBacked(max int, backend WarmBackend) *WarmStore {
	if max <= 0 {
		max = 16
	}
	return &WarmStore{
		max:     max,
		backend: backend,
		entries: make(map[string][]byte),
		pending: make(map[string]chan struct{}),
	}
}

// Stats returns a copy of the counters.
func (ws *WarmStore) Stats() WarmStats {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return ws.stats
}

func (ws *WarmStore) put(key string, data []byte) {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	ws.putLocked(key, data, true)
}

// putLocked inserts under mu. spill=false for promotions of entries the
// backend already holds (no point writing them back).
func (ws *WarmStore) putLocked(key string, data []byte, spill bool) {
	if _, ok := ws.entries[key]; ok {
		return
	}
	for len(ws.entries) >= ws.max && len(ws.order) > 0 {
		delete(ws.entries, ws.order[0])
		ws.order = ws.order[1:]
	}
	ws.entries[key] = data
	ws.order = append(ws.order, key)
	if spill && ws.backend != nil {
		// Best effort: a full or failing blob store degrades durability,
		// never the simulation itself.
		_ = ws.backend.Put(key, data)
	}
}

// lookupLocked returns the checkpoint from memory or, failing that, the
// backend (promoting backend hits into the memory tier).
func (ws *WarmStore) lookupLocked(key string) ([]byte, bool) {
	if data, ok := ws.entries[key]; ok {
		return data, true
	}
	if ws.backend != nil {
		if data, ok := ws.backend.Get(key); ok {
			ws.putLocked(key, data, false)
			return data, true
		}
	}
	return nil, false
}

// evict removes a checkpoint from the memory tier *and* the backend —
// the poisoning recovery path. A checkpoint whose restore failed must
// not keep satisfying lookups, or every future run of its key inherits
// the failure; purging both tiers makes the next run re-warm as leader.
func (ws *WarmStore) evict(key string) {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	delete(ws.entries, key)
	for i, k := range ws.order {
		if k == key {
			ws.order = append(ws.order[:i], ws.order[i+1:]...)
			break
		}
	}
	if ws.backend != nil {
		ws.backend.Delete(key)
	}
	ws.stats.Evicted++
}

// publish installs a locally produced tree node and wakes any
// single-flight waiters on its key.
func (ws *WarmStore) publish(key string, data []byte) {
	ws.put(key, data)
	ws.release(key)
}

// Checkpoint returns the stored warm checkpoint for key, if any.
func (ws *WarmStore) Checkpoint(key string) ([]byte, bool) {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return ws.lookupLocked(key)
}

// release wakes any waiters for key's in-flight warmup. Idempotent.
func (ws *WarmStore) release(key string) {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if ch, ok := ws.pending[key]; ok {
		delete(ws.pending, key)
		close(ch)
	}
}

// warmPollInterval is the cadence at which a single-flight waiter polls
// its caller's cancel hook while the leader simulates.
const warmPollInterval = 20 * time.Millisecond

// waitPending blocks until the leader releases ch, polling the caller's
// cancel hook on one reused timer (a large coalesced sweep parks many
// waiters; a fresh time.After per poll would churn allocations).
func (ws *WarmStore) waitPending(ch <-chan struct{}, h Hooks) error {
	if h.Cancel == nil {
		<-ch
		return nil
	}
	t := time.NewTimer(warmPollInterval)
	defer t.Stop()
	for {
		select {
		case <-ch:
			return nil
		case <-t.C:
			if h.Cancel() {
				return ErrCanceled
			}
			t.Reset(warmPollInterval)
		}
	}
}

// Run executes cfg through the warm store (see RunWithHooks).
func (ws *WarmStore) Run(cfg Config) (Result, error) {
	return ws.RunWithHooks(cfg, Hooks{})
}

// errNodeCaptured aborts a trunk run once its checkpoint has been
// captured (at warmup end for the root, at the cut for deeper nodes).
var errNodeCaptured = errors.New("sim: warm checkpoint captured")

// parentCut returns the deepest cut strictly below `cut` on cfg's trunk
// chain — the warmup boundary when no configured fork cycle precedes
// it.
func parentCut(cfg Config, cut uint64) uint64 {
	parent := cfg.WarmupCycles
	for _, c := range cfg.ForkCycles {
		if c < cut && c > parent {
			parent = c
		}
	}
	return parent
}

// nodeData returns the checkpoint-tree node for cfg's canonical trunk
// at cut, building it (single-flight per node) when absent. built
// reports whether this call simulated to produce it — builders do not
// count their own node as a hit.
func (ws *WarmStore) nodeData(cfg Config, cut uint64, h Hooks) (data []byte, built bool, err error) {
	key, ok := ForkNodeKey(cfg, cut)
	if !ok {
		return nil, false, errors.New("sim: configuration is not warm-cacheable")
	}
	for {
		ws.mu.Lock()
		if data, ok := ws.lookupLocked(key); ok {
			ws.mu.Unlock()
			return data, false, nil
		}
		if ch, busy := ws.pending[key]; busy {
			ws.mu.Unlock()
			// Another run is producing this node: wait for it (polling
			// the caller's cancel hook) and retry. If the producer fails
			// or is canceled it releases without publishing, and the
			// retry takes over leadership.
			if err := ws.waitPending(ch, h); err != nil {
				return nil, false, err
			}
			continue
		}
		ws.pending[key] = make(chan struct{})
		ws.mu.Unlock()
		break
	}
	var t0 time.Time
	if h.Phase != nil {
		t0 = time.Now()
	}
	data, err = ws.buildNode(cfg, cut, h)
	ws.release(key) // wakes waiters on every exit path
	if err != nil {
		return nil, false, err
	}
	if h.Phase != nil {
		h.Phase("trunk.extend", t0, time.Now())
	}
	return data, true, nil
}

// buildNode simulates cfg's canonical trunk up to cut and publishes the
// node. The root (cut at the warmup boundary) warms from scratch;
// deeper nodes restore their parent — the next shallower node on the
// chain, built recursively — and simulate only (parent, cut]. Miss
// statistics are charged only once the simulation actually completes,
// so a canceled builder plus its retrying successor never double-counts.
func (ws *WarmStore) buildNode(cfg Config, cut uint64, h Hooks) ([]byte, error) {
	// The trunk is cfg with its measured parameters at their canonical
	// zero values: structurally identical, shared by every sibling.
	trunk := cfg
	trunk.MaxRowHitStreak = 0
	trunk.ForkAt = 0
	trunk.ForkCycles = nil
	key, _ := ForkNodeKey(cfg, cut)
	hk := Hooks{Interval: h.Interval, Progress: h.Progress, Cancel: h.Cancel}

	if cut <= cfg.WarmupCycles {
		// Tree root: simulate the canonical warmup.
		s, err := New(trunk)
		if err != nil {
			return nil, err
		}
		var ck bytes.Buffer
		hk.AtWarmupEnd = func() error {
			if err := s.Snapshot(&ck); err != nil {
				return err
			}
			return errNodeCaptured
		}
		if _, err = s.RunWithHooks(hk); !errors.Is(err, errNodeCaptured) {
			if err == nil {
				// Unreachable for cacheable configs (WarmupCycles > 0),
				// but never let a warm-store bug silently drop a run.
				err = errors.New("sim: warmup completed without checkpoint")
			}
			return nil, err
		}
		ws.mu.Lock()
		ws.stats.Misses++
		ws.stats.WarmupCyclesSimulated += cfg.WarmupCycles
		ws.mu.Unlock()
		ws.put(key, ck.Bytes())
		return ck.Bytes(), nil
	}

	// Deeper node: extend the trunk from its parent. Recursion over
	// strictly decreasing cuts bottoms out at the root, so concurrent
	// single-flight producers can never deadlock on one another.
	parent := parentCut(cfg, cut)
	for attempt := 0; ; attempt++ {
		pdata, pbuilt, err := ws.nodeData(cfg, parent, h)
		if err != nil {
			return nil, err
		}
		s, err := New(trunk)
		if err != nil {
			return nil, err
		}
		if err := s.Restore(bytes.NewReader(pdata)); err != nil {
			// Poisoned ancestor: evict it from both tiers and rebuild,
			// rather than failing this node forever.
			pkey, _ := ForkNodeKey(cfg, parent)
			ws.evict(pkey)
			if attempt >= 1 {
				return nil, err
			}
			continue
		}
		ws.accountReuse(pbuilt, cfg, parent)
		var ck bytes.Buffer
		hk.AtCycles = []uint64{cut}
		hk.AtCycle = func(uint64) error {
			if err := s.Snapshot(&ck); err != nil {
				return err
			}
			return errNodeCaptured
		}
		if _, err = s.RunWithHooks(hk); !errors.Is(err, errNodeCaptured) {
			if err == nil {
				err = errors.New("sim: trunk run passed its cut without checkpointing")
			}
			return nil, err
		}
		ws.mu.Lock()
		ws.stats.ForkMisses++
		ws.stats.TrunkCyclesSimulated += cut - parent
		ws.mu.Unlock()
		ws.put(key, ck.Bytes())
		return ck.Bytes(), nil
	}
}

// accountReuse charges the cycle-reuse counters for a successful
// restore of the node at cut. A caller that just built the node charges
// nothing — its cycles were already recorded as simulated.
func (ws *WarmStore) accountReuse(built bool, cfg Config, cut uint64) {
	if built {
		return
	}
	ws.mu.Lock()
	ws.stats.WarmupCyclesReused += cfg.WarmupCycles
	if cut > cfg.WarmupCycles {
		ws.stats.ForkCyclesReused += cut - cfg.WarmupCycles
	}
	ws.mu.Unlock()
}

// RunWithHooks executes one configuration, restoring the deepest shared
// checkpoint-tree node when an equivalent trunk has already been
// simulated, and publishing trunk state when it has not.
//
// The trunk is always simulated under the *canonical* configuration —
// cfg with its measured parameters (MaxRowHitStreak) at their zero
// values — and every point, the builders included, measures from
// restored trunk state. Results are therefore a deterministic function
// of each point's configuration, independent of submission order or
// which concurrent job happened to build which node. Points with
// non-zero measured parameters get the shared-functional-warmup
// methodology by construction: the policy applies from ForkAt, or from
// the warmup boundary when ForkAt is zero. A point is bit-identical to
// its own cold run when its measured parameters are zero or its ForkAt
// is non-zero, because a cold run of the same Config binds them at the
// same cycle. With non-zero measured parameters and ForkAt zero it is
// not: the cold run applies them from cycle 0. Such a point is instead
// bit-identical to the cold run of its Config with ForkAt set to
// WarmupCycles.
//
// A cached node whose restore fails (corrupt blob-tier bytes, version
// skew) is evicted from both tiers and re-simulated; hits are counted
// only after a successful restore.
func (ws *WarmStore) RunWithHooks(cfg Config, h Hooks) (Result, error) {
	if _, cacheable := WarmKey(cfg); !cacheable {
		ws.mu.Lock()
		ws.stats.Skipped++
		ws.mu.Unlock()
		return RunOneWithHooks(cfg, h)
	}
	// The store owns the checkpoint moments on cacheable runs (warm
	// hits restore past them and would never fire a caller's hook);
	// reject caller hooks rather than dropping them silently.
	if h.AtWarmupEnd != nil || h.AtCycle != nil {
		return Result{}, errors.New("sim: WarmStore owns the checkpoint hooks (AtWarmupEnd/AtCycle) for warm-cacheable configs")
	}

	// The restore point: the fork cycle when the configuration defers
	// its measured parameters, the warmup boundary otherwise.
	target := cfg.WarmupCycles
	if cfg.ForkAt > target {
		target = cfg.ForkAt
	}
	total := cfg.WarmupCycles + cfg.MeasureCycles

	for attempt := 0; ; attempt++ {
		var t0 time.Time
		if h.Phase != nil {
			t0 = time.Now()
		}
		data, built, err := ws.nodeData(cfg, target, h)
		if err != nil {
			return Result{}, err
		}
		if h.Phase != nil {
			now := time.Now()
			h.Phase("warm.resolve", t0, now)
			t0 = now
		}
		s, err := New(cfg)
		if err != nil {
			return Result{}, err
		}
		if err := s.Restore(bytes.NewReader(data)); err != nil {
			// Poisoned checkpoint: evict it from both tiers and fall
			// through to re-warm as leader instead of failing this key
			// on every future run.
			if nkey, ok := ForkNodeKey(cfg, target); ok {
				ws.evict(nkey)
			}
			if attempt >= 1 {
				return Result{}, err
			}
			continue
		}
		if h.Phase != nil {
			h.Phase("restore", t0, time.Now())
		}
		// Only a successful restore counts as a hit.
		if !built {
			ws.mu.Lock()
			ws.stats.Hits++
			ws.stats.WarmupCyclesReused += cfg.WarmupCycles
			if target > cfg.WarmupCycles {
				ws.stats.ForkHits++
				ws.stats.ForkCyclesReused += target - cfg.WarmupCycles
			}
			ws.mu.Unlock()
		}

		hr := h
		if cfg.MaxRowHitStreak == 0 {
			// This point *is* the canonical trunk past its restore
			// point: snapshot tree nodes at the configured cuts as the
			// run passes them, so later forks restore instead of
			// extending.
			var cuts []uint64
			for _, c := range cfg.ForkCycles {
				if c > target && c < total {
					cuts = append(cuts, c)
				}
			}
			if len(cuts) > 0 {
				hr.AtCycles = cuts
				hr.AtCycle = func(cut uint64) error {
					nkey, ok := ForkNodeKey(cfg, cut)
					if !ok {
						return nil
					}
					if _, have := ws.Checkpoint(nkey); have {
						return nil
					}
					var buf bytes.Buffer
					if err := s.Snapshot(&buf); err != nil {
						return nil // best effort: never fail the run over a publish
					}
					ws.publish(nkey, buf.Bytes())
					return nil
				}
			}
		}

		res, err := s.RunWithHooks(hr)
		if err != nil {
			return Result{}, err
		}
		if target > cfg.WarmupCycles {
			ws.mu.Lock()
			ws.stats.BranchCyclesSimulated += total - target
			ws.mu.Unlock()
		}
		return res, nil
	}
}
