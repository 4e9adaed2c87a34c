package service

import (
	"time"

	"bump/internal/obs"
)

// RegisterPoolCollectors adapts the pool's existing stats surfaces —
// PoolStats, CacheStats, WarmStats and the shared transport's ConnStats
// — as scrape-time collectors on reg; /metrics is the only place a
// worker publishes these numbers. Called by NewPool when
// Options.Metrics is set; the collectors read snapshots (Pool.Stats,
// SharedConnStats), never pool internals, so they take no lock the job
// path contends on beyond the stats snapshot itself.
func RegisterPoolCollectors(reg *obs.Registry, p *Pool) {
	start := time.Now()
	reg.Collect(func(g *obs.Gather) {
		g.Gauge("bump_pool_uptime_seconds", "Seconds since the worker pool started.", time.Since(start).Seconds())
		st := p.Stats()
		g.Gauge("bump_pool_workers", "Configured worker-goroutine count.", float64(st.Workers))
		g.Gauge("bump_pool_queued", "Jobs waiting in the priority queue.", float64(st.Queued))
		g.Gauge("bump_pool_running", "Jobs currently executing.", float64(st.Running))
		g.Counter("bump_pool_completed_total", "Jobs that reached a terminal state.", float64(st.Completed))
		g.Counter("bump_pool_executions_total", "Simulation runs actually executed.", float64(st.Executions))
		g.Counter("bump_pool_coalesced_total", "Submissions coalesced onto an in-flight duplicate.", float64(st.Coalesced))

		g.Gauge("bump_cache_entries", "Result-cache entries.", float64(st.Cache.Entries))
		g.Gauge("bump_cache_capacity", "Result-cache capacity.", float64(st.Cache.Capacity))
		g.Counter("bump_cache_hits_total", "Result-cache hits.", float64(st.Cache.Hits))
		g.Counter("bump_cache_misses_total", "Result-cache misses.", float64(st.Cache.Misses))
		g.Counter("bump_cache_evictions_total", "Result-cache evictions.", float64(st.Cache.Evictions))

		g.Counter("bump_warm_hits_total", "Runs started from a restored warm checkpoint.", float64(st.Warm.Hits))
		g.Counter("bump_warm_misses_total", "Runs that simulated their own warmup.", float64(st.Warm.Misses))
		g.Counter("bump_warm_skipped_total", "Runs not warm-cacheable.", float64(st.Warm.Skipped))
		g.Counter("bump_warm_evicted_total", "Poisoned checkpoints purged after failed restores.", float64(st.Warm.Evicted))
		g.Counter("bump_warm_fork_hits_total", "Runs restored from a checkpoint-tree node past warmup.", float64(st.Warm.ForkHits))
		g.Counter("bump_warm_fork_misses_total", "Checkpoint-tree nodes built by extending the trunk.", float64(st.Warm.ForkMisses))
		g.Counter("bump_warm_cycles_simulated_total", "Cycles simulated, by kind.", float64(st.Warm.WarmupCyclesSimulated), "kind", "warmup")
		g.Counter("bump_warm_cycles_simulated_total", "Cycles simulated, by kind.", float64(st.Warm.TrunkCyclesSimulated), "kind", "trunk")
		g.Counter("bump_warm_cycles_simulated_total", "Cycles simulated, by kind.", float64(st.Warm.BranchCyclesSimulated), "kind", "branch")
		g.Counter("bump_warm_cycles_reused_total", "Cycles satisfied by a checkpoint restore, by kind.", float64(st.Warm.WarmupCyclesReused), "kind", "warmup")
		g.Counter("bump_warm_cycles_reused_total", "Cycles satisfied by a checkpoint restore, by kind.", float64(st.Warm.ForkCyclesReused), "kind", "fork")

		GatherConnStats(g)
	})
}

// GatherConnStats emits the shared transport's ConnStats; both daemons'
// collectors call it, since both talk HTTP through that transport.
func GatherConnStats(g *obs.Gather) {
	conns := SharedConnStats()
	g.Counter("bump_conns_requests_total", "HTTP requests over the shared transport.", float64(conns.Requests))
	g.Counter("bump_conns_dialed_total", "New connections dialed.", float64(conns.Dialed))
	g.Counter("bump_conns_reused_total", "Requests served over a reused connection.", float64(conns.Reused))
}
