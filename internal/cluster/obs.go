package cluster

import (
	"net/http"
	"time"

	"bump/internal/obs"
	"bump/internal/service"
)

// This file is the coordinator's observability surface: scrape-time
// collectors adapting fleet/WAL/wire statistics onto a metrics
// registry, the coordinator-side span helpers, and the stitched
// GET /v1/jobs/{id}/trace handler that merges a worker's spans onto the
// coordinator's routing timeline under one trace ID.

// registerCollectors adapts the coordinator's existing stats surfaces
// (Topology, Store.Stats, per-worker client WireStats, the store's
// in-flight assignments, the shared transport's ConnStats) as scrape-time
// collectors; /metrics is the only place the coordinator publishes
// these numbers. Called by New when Options.Metrics is set.
func (c *Coordinator) registerCollectors(reg *obs.Registry) {
	start := time.Now()
	reg.Collect(func(g *obs.Gather) {
		top := c.Topology()
		st := c.store.Stats()
		g.Gauge("bump_cluster_workers_up", "Admitted workers currently up.", float64(top.Up))
		g.Gauge("bump_cluster_workers_total", "Workers in the fleet.", float64(top.Total))
		g.Gauge("bump_cluster_tracked_jobs", "Retained coordinator job records.", float64(st.Jobs))
		g.Gauge("bump_cluster_uptime_seconds", "Coordinator uptime.", time.Since(start).Seconds())

		states := make(map[service.State]int)
		inflight := 0
		for _, j := range c.store.Jobs() {
			states[j.State]++
			if !j.State.Terminal() && j.Worker != "" {
				inflight++
			}
		}
		for _, st := range []service.State{
			service.StateQueued, service.StateRunning, service.StateDone,
			service.StateFailed, service.StateCanceled,
		} {
			g.Gauge("bump_cluster_jobs", "Tracked jobs by state.", float64(states[st]), "state", string(st))
		}

		g.Gauge("bump_cluster_inflight", "Jobs currently assigned to workers.", float64(inflight))

		g.Gauge("bump_wal_durable", "1 when the coordinator writes a WAL.", boolGauge(st.Durable))
		g.Gauge("bump_wal_segments", "Live WAL segment files.", float64(st.WAL.Segments))
		g.Gauge("bump_wal_size_bytes", "Total WAL bytes on disk.", float64(st.WAL.SizeBytes))
		g.Gauge("bump_wal_torn_tail_healed", "1 when startup truncated a torn final WAL record.", boolGauge(st.WAL.TornTail))
		g.Counter("bump_wal_replayed_records_total", "WAL records replayed at startup.", float64(st.WAL.Replayed))
		g.Counter("bump_wal_appended_records_total", "WAL records appended since startup.", float64(st.WAL.Appended))
		g.Counter("bump_wal_compactions_total", "Checkpoint compactions.", float64(st.WAL.Compactions))
		lastCompaction := 0.0
		if !st.WAL.LastCompaction.IsZero() {
			lastCompaction = float64(st.WAL.LastCompaction.UnixNano()) / 1e9
		}
		g.Gauge("bump_wal_last_compaction_timestamp_seconds", "Unix time of the latest checkpoint compaction (0 = none).", lastCompaction)
		g.Counter("bump_wal_replayed_jobs_total", "Job records recovered from the WAL at startup.", float64(st.ReplayedJobs))
		g.Counter("bump_wal_recovered_jobs_total", "Replayed jobs still in flight at startup, re-driven.", float64(st.RecoveredJobs))

		var ws service.WireStats
		for _, wk := range c.reg.Workers() {
			s := wk.Client.WireStats()
			ws.Calls += s.Calls
			ws.Fallbacks += s.Fallbacks
			ws.Dials += s.Dials
			ws.Reuses += s.Reuses
		}
		g.Counter("bump_wire_calls_total", "Binary fast-path calls to workers.", float64(ws.Calls))
		g.Counter("bump_wire_fallbacks_total", "Wire calls that fell back to HTTP/JSON.", float64(ws.Fallbacks))
		g.Counter("bump_wire_dials_total", "Wire connections dialed to workers.", float64(ws.Dials))
		g.Counter("bump_wire_reuses_total", "Wire connections reused from the pool.", float64(ws.Reuses))
		service.GatherConnStats(g)
	})
}

// boolGauge renders a flag as a 0/1 gauge value.
func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// span records one interval on a tracked job (no-op without a tracer).
func (c *Coordinator) span(jobID, name string, start, end time.Time, args ...obs.SpanArg) {
	if c.tracer != nil {
		c.tracer.Span(jobID, name, start, end, args...)
	}
}

// instant records a point event on a tracked job.
func (c *Coordinator) instant(jobID, name string, args ...obs.SpanArg) {
	if c.tracer != nil {
		c.tracer.Instant(jobID, name, time.Now(), args...)
	}
}

// trace serves a tracked job's stitched timeline: the coordinator's own
// routing/await/failover spans (pid 1) plus the assigned worker's
// spans (pid 2), re-homed under one trace ID. Worker fetch is
// best-effort: a dead worker still yields the coordinator-side view.
func (c *Coordinator) trace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if c.tracer == nil {
		service.WriteError(w, http.StatusNotFound, "tracing is not enabled")
		return
	}
	exp, ok := c.tracer.Export(id, 1, "bumpctl")
	if !ok {
		service.WriteError(w, http.StatusNotFound, "no trace for job %s", id)
		return
	}
	if rec, okr := c.store.Job(id); okr && rec.Worker != "" && rec.Local != "" {
		if wk, okw := c.reg.Worker(rec.Worker); okw {
			if data, err := wk.Client.JobTrace(r.Context(), rec.Local); err == nil {
				if wexp, perr := obs.ParseExport(data); perr == nil {
					exp.Merge(wexp, 2, "worker "+wk.ID)
				}
			}
		}
	}
	service.WriteJSON(w, http.StatusOK, exp)
}
