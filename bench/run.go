package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"bump/bench/report"
)

// runOpts configures one workload run.
type runOpts struct {
	env
	// seconds is the time budget for timed passes: passes repeat while
	// the next one is expected to finish inside it.
	seconds float64
	// traced selects the traced run: an untraced pass, then traced
	// passes under a CPU profile, then per-layer metrics.
	traced bool
	// setupReps is the number of set-up samples.
	setupReps int
}

// ledger counts operations and checks; every failed one is kept.
type ledger struct {
	attempted, failed int
	errs              []string
}

func (l *ledger) ok(n int) { l.attempted += n }

func (l *ledger) fail(err error) {
	l.attempted++
	l.failed++
	l.errs = append(l.errs, err.Error())
}

func (l *ledger) check(ok bool, format string, args ...any) {
	if ok {
		l.ok(1)
		return
	}
	l.fail(fmt.Errorf(format, args...))
}

// runWorkload sets w up setupReps times, runs its timed passes, checks
// every result, and returns its metrics: end-to-end ones on an untraced
// run, per-layer ones on a traced run.
func runWorkload(w *workloadDef, o runOpts) *report.Workload {
	var l ledger
	out := &report.Workload{}
	defer func() {
		out.Attempted, out.Failed, out.Errors = l.attempted, l.failed, l.errs
		out.Correct = l.failed == 0 && l.attempted > 0
	}()

	var setups []float64
	var simNew []time.Duration
	for i := 0; i < o.setupReps; i++ {
		runtime.GC() // each set-up and pass starts from a collected heap
		d, times, err := w.setup(&o.env)
		if err != nil {
			l.fail(fmt.Errorf("set-up: %w", err))
			return out
		}
		setups = append(setups, d.Seconds())
		simNew = append(simNew, times...)
	}

	// Passes repeat while the next one is expected to end inside the
	// budget, and at least one runs, so a slow host shortens a run rather
	// than lengthening it. A traced run makes one untraced pass, the
	// baseline for the tracing overhead, and at least one traced pass.
	// The set-ups before them have already grown the heap.
	var passes, traced []*pass
	start := time.Now()
	more := func() bool {
		if len(passes) == 0 || o.traced && len(traced) == 0 {
			return true
		}
		var walls []float64
		for _, p := range append(passes[:len(passes):len(passes)], traced...) {
			walls = append(walls, p.wall.Seconds())
		}
		return time.Since(start).Seconds()+report.Median(walls) <= o.seconds
	}
	for more() {
		tr := o.traced && len(passes) > 0
		runtime.GC()
		p, err := w.pass(&o.env, tr)
		if err != nil {
			l.fail(fmt.Errorf("pass: %w", err))
			return out
		}
		if tr {
			traced = append(traced, p)
		} else {
			passes = append(passes, p)
		}
	}
	all := append(append([]*pass(nil), passes...), traced...)
	out.Passes = len(all)

	// Correctness: every result is well formed, every pass produced the
	// same bytes, and the independent re-check (if any) agrees.
	for _, p := range all {
		l.ok(len(p.results)) // every point run is an operation, as is every check
		for _, f := range p.failures {
			l.fail(errors.New(f))
		}
		for i, r := range p.results {
			l.check(r.Instructions > 0, "result %d (%s/%s): no instructions", i, r.Mechanism, r.Workload)
			l.check(r.Cycles == o.measureCycles(w), "result %d (%s/%s): %d cycles measured, want %d", i, r.Mechanism, r.Workload, r.Cycles, o.measureCycles(w))
			hit := r.RowHitRatio()
			l.check(hit >= 0 && hit <= 1, "result %d (%s/%s): row-hit ratio %v outside [0,1]", i, r.Mechanism, r.Workload, hit)
		}
	}
	out.Digest = all[0].digest()
	for i, p := range all[1:] {
		d := p.digest()
		l.check(d == out.Digest, "pass %d digest %s differs from pass 0 digest %s", i+1, d, out.Digest)
	}
	last := all[len(all)-1]
	if w.verify != nil {
		n, errs := w.verify(&o.env, last)
		l.ok(n - len(errs))
		for _, err := range errs {
			l.fail(err)
		}
	}

	if !o.traced {
		out.EndToEnd = endToEndMetrics(passes, setups)
		return out
	}
	if w.probe != nil {
		if err := w.probe(&o.env, last); err != nil {
			l.fail(fmt.Errorf("probe: %w", err))
		}
	}
	var profiles [][]byte
	for _, p := range traced {
		profiles = append(profiles, p.profile)
	}
	shares, err := cpuShares(profiles...)
	if err != nil {
		l.fail(err)
		return out
	}
	out.PerLayer = perLayerMetrics(passes, traced, shares, simNew)
	return out
}

// measureCycles is the measurement window every result of w must report.
func (o runOpts) measureCycles(w *workloadDef) uint64 {
	if w.name == "figures" {
		return o.scale.figMeasure
	}
	return o.scale.measure
}

// endToEndMetrics summarises the untraced passes.
func endToEndMetrics(passes []*pass, setups []float64) map[string]report.Metric {
	samples := map[string][]float64{"setup_s": setups, "peak_rss_mb": {peakRSS()}}
	var points []float64
	for _, p := range passes {
		samples["wall_s"] = append(samples["wall_s"], p.wall.Seconds())
		samples["cpu_s"] = append(samples["cpu_s"], p.cpu.Seconds())
		samples["minstr_per_s"] = append(samples["minstr_per_s"], float64(p.instructions())/1e6/p.wall.Seconds())
		var own []float64
		for _, d := range p.points {
			own = append(own, d.Seconds())
		}
		points = append(points, own...)
		samples["point_p50_s"] = append(samples["point_p50_s"], report.Percentile(own, 50))
		samples["point_p90_s"] = append(samples["point_p90_s"], report.Percentile(own, 90))
	}
	out := make(map[string]report.Metric, len(endToEnd))
	for _, def := range endToEnd {
		m := report.Metric{Unit: def.unit, Better: def.better, Bound: def.bound, Samples: samples[def.name]}
		m.Q1, m.Value, m.Q3 = report.Quartiles(m.Samples)
		m.N = len(m.Samples)
		if pct, ok := map[string]float64{"point_p50_s": 50, "point_p90_s": 90}[def.name]; ok {
			// The percentile of every point pooled over the passes; the
			// samples (and quartiles) are each pass's own percentile.
			m.Value, m.N = report.Percentile(points, pct), len(points)
		}
		out[def.name] = m
	}
	return out
}

// perLayerMetrics assembles the per-layer report from the traced passes
// (the last one's counts) and the untraced baseline pass.
func perLayerMetrics(untraced, traced []*pass, shares map[string]float64, simNew []time.Duration) map[string]report.Metric {
	last := traced[len(traced)-1]
	v := make(map[string]float64)
	for k, x := range shares {
		v[k] = x
	}
	calls := map[string][]time.Duration{"sim.new": simNew}
	for _, p := range traced {
		for name, ds := range p.calls {
			calls[name] = append(calls[name], ds...)
		}
	}
	for _, m := range []map[string]float64{callMetrics(calls), machineMetrics(last.results), last.claims, last.counts} {
		for k, x := range m {
			v[k] = x
		}
	}

	var events uint64
	for _, r := range last.results {
		events += r.Events
	}
	v["sim.events"] = float64(events)
	if _, ok := v["sim.cycles"]; !ok {
		v["sim.cycles"] = float64(last.cycles)
	}
	var untracedCPU, untracedWall, tracedWall []float64
	for _, p := range untraced {
		untracedCPU = append(untracedCPU, p.cpu.Seconds())
		untracedWall = append(untracedWall, p.wall.Seconds())
	}
	var mallocs, gcs float64
	var pause time.Duration
	for _, p := range traced {
		tracedWall = append(tracedWall, p.wall.Seconds())
		mallocs += float64(p.mallocs)
		gcs += float64(p.gcs)
		pause += p.gcPause
	}
	n := float64(len(traced))
	v["sim.host_ns_per_event"] = 1e9 * report.Median(untracedCPU) / float64(events)
	v["gc.allocs_per_event"] = mallocs / n / float64(events)
	v["gc.cycles"] = gcs / n
	v["gc.pause_ms"] = float64(pause) / float64(time.Millisecond) / n
	v["bench.trace_overhead_pct"] = 100 * (report.Median(tracedWall)/report.Median(untracedWall) - 1)

	out := make(map[string]report.Metric, len(perLayer))
	for _, def := range perLayer {
		out[def.name] = report.Metric{Unit: def.unit, Better: def.better, Value: finite(v[def.name]), Exact: def.exact}
	}
	return out
}
