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
// measured parameters (MeasureCycles, MaxRowHitStreak, ForkAt) restores
// shared trunk state instead of re-simulating it per point. It is a pure
// cache: a run through it is byte-identical to its cold run. Warming and
// trunk extension are single-flight per node: concurrent runs needing
// the same node wait for the first one to store it rather than
// simulating redundantly. Safe for concurrent use.
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

// buildNode simulates cfg's canonical trunk up to cut and stores the
// node. The root (cut at the warmup boundary) is built from scratch;
// a deeper node restores its parent — the next shallower node on the
// chain, built recursively — and simulates only (parent, cut]. Miss
// statistics are charged only once the simulation actually completes,
// so a canceled builder plus its retrying successor never double-counts.
func (ws *WarmStore) buildNode(cfg Config, cut uint64, h Hooks) ([]byte, error) {
	// The trunk is cfg with its measured parameters at their canonical
	// zero values: structurally identical, shared by every sibling.
	trunk := cfg
	trunk.MaxRowHitStreak = 0
	trunk.ForkAt = 0
	root := cut <= cfg.WarmupCycles
	parent := parentCut(cfg, cut)
	var s *System
	var err error
	if root {
		s, err = New(trunk)
	} else {
		// Recursion over strictly decreasing cuts bottoms out at the
		// root, so concurrent single-flight producers can never
		// deadlock on one another.
		s, _, err = ws.restoreNode(trunk, parent, h, nil)
	}
	if err != nil {
		return nil, err
	}
	if err := s.runTo(cut, h); err != nil {
		return nil, err
	}
	var ck bytes.Buffer
	if err := s.Snapshot(&ck); err != nil {
		return nil, err
	}
	ws.mu.Lock()
	if root {
		ws.stats.Misses++
		ws.stats.WarmupCyclesSimulated += cfg.WarmupCycles
	} else {
		ws.stats.ForkMisses++
		ws.stats.TrunkCyclesSimulated += cut - parent
	}
	ws.mu.Unlock()
	key, _ := ForkNodeKey(cfg, cut)
	ws.put(key, ck.Bytes())
	return ck.Bytes(), nil
}

// restoreNode builds a System from cfg and restores into it cfg's trunk
// node at cut, building the node (single-flight) when absent; the bool
// reports whether this call built it. A cached node whose restore fails
// (corrupt blob-tier bytes, version skew) is evicted from both tiers
// and rebuilt once. Reused cycles are charged only after a successful
// restore of a node this call did not build. phase, when non-nil,
// receives the "warm.resolve" and "restore" spans.
func (ws *WarmStore) restoreNode(cfg Config, cut uint64, h Hooks, phase func(string, time.Time, time.Time)) (*System, bool, error) {
	for attempt := 0; ; attempt++ {
		var t0 time.Time
		if phase != nil {
			t0 = time.Now()
		}
		data, built, err := ws.nodeData(cfg, cut, h)
		if err != nil {
			return nil, false, err
		}
		if phase != nil {
			now := time.Now()
			phase("warm.resolve", t0, now)
			t0 = now
		}
		s, err := New(cfg)
		if err != nil {
			return nil, false, err
		}
		if err := s.restoreInPlace(data); err != nil {
			key, _ := ForkNodeKey(cfg, cut)
			ws.evict(key)
			if attempt >= 1 {
				return nil, false, err
			}
			continue
		}
		if phase != nil {
			phase("restore", t0, time.Now())
		}
		if !built {
			ws.mu.Lock()
			ws.stats.WarmupCyclesReused += cfg.WarmupCycles
			if cut > cfg.WarmupCycles {
				ws.stats.ForkCyclesReused += cut - cfg.WarmupCycles
			}
			ws.mu.Unlock()
		}
		return s, built, nil
	}
}

// RunWithHooks executes one configuration from the checkpoint-tree node
// at its bind cycle (Config.BindCycle), restoring the node when an
// equivalent trunk has already been simulated and building it when it
// has not. The store is a pure cache: the trunk is always simulated
// under the canonical configuration (cfg with its measured parameters
// at their zero values), and every run, cold or restored, simulates
// exactly that up to its bind cycle, so every point — the builders
// included — is byte-identical to its own cold run, independent of
// submission order or which concurrent job built which node.
func (ws *WarmStore) RunWithHooks(cfg Config, h Hooks) (Result, error) {
	if _, cacheable := WarmKey(cfg); !cacheable {
		ws.mu.Lock()
		ws.stats.Skipped++
		ws.mu.Unlock()
		return RunOneWithHooks(cfg, h)
	}
	// A restored run starts past the warmup boundary and would never
	// fire the hook; reject it rather than dropping it silently.
	if h.AtWarmupEnd != nil {
		return Result{}, errors.New("sim: WarmStore cannot run an AtWarmupEnd hook on a warm-cacheable config")
	}
	target := cfg.BindCycle()
	s, built, err := ws.restoreNode(cfg, target, h, h.Phase)
	if err != nil {
		return Result{}, err
	}
	if !built {
		ws.mu.Lock()
		ws.stats.Hits++
		if target > cfg.WarmupCycles {
			ws.stats.ForkHits++
		}
		ws.mu.Unlock()
	}
	res, err := s.RunWithHooks(h)
	if err != nil {
		return Result{}, err
	}
	if target > cfg.WarmupCycles {
		ws.mu.Lock()
		ws.stats.BranchCyclesSimulated += cfg.WarmupCycles + cfg.MeasureCycles - target
		ws.mu.Unlock()
	}
	return res, nil
}
