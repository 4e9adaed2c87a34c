package main

import (
	"math"
	"time"

	"bump/bench/report"
	"bump/internal/sim"
	"bump/internal/stats"
)

// metricDef names a metric, its unit and which direction is better.
// Bound applies to end-to-end metrics only: the share of the parent's
// median by which a change may worsen the metric. Exact marks per-layer
// values that are deterministic for a given seed.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
	exact  bool
}

// endToEnd are the metrics a user of the simulator sees, measured with
// tracing off, for every workload. BENCHMARK.json lists the same names,
// units, directions and bounds (the smoke test enforces it). Every bound
// is 0.25 because host time on the shared 2-vCPU machine
// the benchmark was defined on drifts by up to 2x for minutes at a time
// (README.md, "Host notes"), so a tighter bound would reject changes for
// the machine's noise.
var endToEnd = []metricDef{
	{name: "wall_s", unit: "s", better: "lower", bound: 0.25},
	{name: "point_p50_s", unit: "s", better: "lower", bound: 0.25},
	{name: "point_p90_s", unit: "s", better: "lower", bound: 0.25},
	{name: "cpu_s", unit: "s", better: "lower", bound: 0.25},
	{name: "minstr_per_s", unit: "Minstr/s", better: "higher", bound: 0.25},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.25},
}

// timedCall is a public call (or a span the program records around one)
// whose latency the traced pass samples.
type timedCall struct {
	name string
	unit string // "ms" or "us"
}

var timedCalls = []timedCall{
	{"sim.new", "ms"},
	{"sim.warmup", "ms"},
	{"sim.measure", "ms"},
	{"sim.encode", "ms"},
	{"sim.warm_resolve", "ms"},
	{"sim.restore", "ms"},
	{"sim.trunk_extend", "ms"},
	{"service.queue", "ms"},
	{"service.execute", "ms"},
	{"service.hash", "us"},
	{"snapshot.encode", "ms"},
	{"snapshot.restore", "ms"},
	{"cluster.route", "ms"},
	{"cluster.await", "ms"},
	{"blob.replicate", "ms"},
	{"cluster.overhead", "ms"},
	{"service.cached_rtt", "us"},
}

// perLayer lists every per-layer metric the traced pass reports, in
// report order. Metrics a workload never exercises read 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var defs []metricDef
	for _, l := range append(append([]string(nil), layers...), "gc", "other") {
		defs = append(defs, metricDef{name: "cpu." + l, unit: "share", better: "lower"})
	}
	for _, c := range timedCalls {
		defs = append(defs,
			metricDef{name: c.name + ".p50_" + c.unit, unit: c.unit, better: "lower"},
			metricDef{name: c.name + ".p95_" + c.unit, unit: c.unit, better: "lower"},
			metricDef{name: c.name + ".n", unit: "count", better: "higher"})
	}
	return append(defs, []metricDef{
		{name: "snapshot.bytes", unit: "bytes", better: "lower", exact: true},

		// engine
		{name: "sim.events", unit: "count", better: "lower", exact: true},
		{name: "sim.cycles", unit: "cycles", better: "lower", exact: true},
		{name: "sim.host_ns_per_event", unit: "ns", better: "lower"},
		{name: "gc.allocs_per_event", unit: "allocs/event", better: "lower"},
		{name: "gc.cycles", unit: "count", better: "lower"},
		{name: "gc.pause_ms", unit: "ms", better: "lower"},

		// modelled machine, means over the pass's results
		{name: "sim.ipc", unit: "instr/cycle", better: "higher", exact: true},
		{name: "dram.row_hit", unit: "ratio", better: "higher", exact: true},
		{name: "dram.write_share", unit: "ratio", better: "lower", exact: true},
		{name: "dram.act_per_kinstr", unit: "act/kinstr", better: "lower", exact: true},
		{name: "memctrl.read_qdelay_cycles", unit: "cycles", better: "lower", exact: true},
		{name: "memctrl.write_drains", unit: "count", better: "lower", exact: true},
		{name: "cache.llc_mpki", unit: "miss/kinstr", better: "lower", exact: true},
		{name: "cache.read_coverage", unit: "ratio", better: "higher", exact: true},
		{name: "cache.read_overfetch", unit: "ratio", better: "lower", exact: true},
		{name: "core.write_coverage", unit: "ratio", better: "higher", exact: true},
		{name: "noc.bytes_per_instr", unit: "bytes/instr", better: "lower", exact: true},
		{name: "energy.epa_nj", unit: "nJ", better: "lower", exact: true},
		{name: "sim.load_latency_p95_cycles", unit: "cycles", better: "lower", exact: true},

		// paper claims (figures only)
		{name: "claim.bump_row_hit", unit: "%", better: "higher", exact: true},
		{name: "claim.open_row_hit", unit: "%", better: "higher", exact: true},
		{name: "claim.sms_row_hit", unit: "%", better: "higher", exact: true},
		{name: "claim.vwq_row_hit", unit: "%", better: "higher", exact: true},
		{name: "claim.smsvwq_row_hit", unit: "%", better: "higher", exact: true},
		{name: "claim.save_vs_open", unit: "%", better: "higher", exact: true},
		{name: "claim.save_vs_close", unit: "%", better: "higher", exact: true},
		{name: "claim.bump_speedup", unit: "%", better: "higher", exact: true},
		{name: "claim.open_speedup", unit: "%", better: "higher", exact: true},
		{name: "claim.llc_overhead", unit: "%", better: "lower", exact: true},
		{name: "claim.read_coverage", unit: "%", better: "higher", exact: true},
		{name: "claim.fullregion_overfetch_x", unit: "x", better: "lower", exact: true},
		{name: "paper_err_pp", unit: "pp", better: "lower", exact: true},

		// checkpoint tree
		{name: "sim.warm_hits", unit: "count", better: "higher", exact: true},
		{name: "sim.warm_misses", unit: "count", better: "lower", exact: true},
		{name: "sim.fork_hits", unit: "count", better: "higher", exact: true},
		{name: "sim.fork_misses", unit: "count", better: "lower", exact: true},
		{name: "sim.trunk_cycles", unit: "cycles", better: "lower", exact: true},
		{name: "sim.branch_cycles", unit: "cycles", better: "lower", exact: true},
		{name: "sim.cold_cycle_ratio", unit: "x", better: "higher", exact: true},

		// fleet
		{name: "service.executions", unit: "count", better: "lower", exact: true},
		{name: "service.cache_hits", unit: "count", better: "higher"},
		{name: "service.coalesced", unit: "count", better: "higher"},
		{name: "wire.calls", unit: "count", better: "higher"},
		{name: "wire.fallbacks", unit: "count", better: "lower"},
		{name: "wire.reuses", unit: "count", better: "higher"},
		{name: "cluster.max_points_per_worker", unit: "count", better: "lower"},
		{name: "blob.bytes", unit: "bytes", better: "lower"},
		{name: "wal.appends", unit: "count", better: "lower"},

		// harness
		{name: "bench.trace_overhead_pct", unit: "%", better: "lower"},
	}...)
}

// machineMetrics returns the modelled-machine means over results.
func machineMetrics(results []sim.Result) map[string]float64 {
	mean := func(f func(r sim.Result) float64) float64 {
		xs := make([]float64, len(results))
		for i, r := range results {
			xs[i] = f(r)
		}
		return stats.Mean(xs)
	}
	perKilo := func(n, instr uint64) float64 { return 1000 * stats.Ratio(n, instr) }
	return map[string]float64{
		"sim.ipc":      mean(sim.Result.IPC),
		"dram.row_hit": mean(sim.Result.RowHitRatio),
		"dram.write_share": mean(func(r sim.Result) float64 {
			return stats.Ratio(r.DRAM.WriteBursts, r.DRAM.ReadBursts+r.DRAM.WriteBursts)
		}),
		"dram.act_per_kinstr": mean(func(r sim.Result) float64 { return perKilo(r.DRAM.Activations, r.Instructions) }),
		"memctrl.read_qdelay_cycles": mean(func(r sim.Result) float64 {
			return stats.Ratio(r.Ctrl.ReadQueueDelay, r.Ctrl.Reads)
		}),
		"memctrl.write_drains":        mean(func(r sim.Result) float64 { return float64(r.Ctrl.WriteDrains) }),
		"cache.llc_mpki":              mean(func(r sim.Result) float64 { return perKilo(r.LLC.Misses, r.Instructions) }),
		"cache.read_coverage":         mean(sim.Result.ReadCoverage),
		"cache.read_overfetch":        mean(sim.Result.ReadOverfetch),
		"core.write_coverage":         mean(sim.Result.WriteCoverage),
		"noc.bytes_per_instr":         mean(func(r sim.Result) float64 { return stats.Ratio(r.NOCTrafficBytes(), r.Instructions) }),
		"energy.epa_nj":               mean(func(r sim.Result) float64 { return 1e9 * r.EPATotal }),
		"sim.load_latency_p95_cycles": mean(func(r sim.Result) float64 { return r.LoadLatencyP95 }),
	}
}

// paperClaim is one headline number of the paper: a value, or a range
// [lo, hi] inside which the error is zero.
type paperClaim struct {
	name   string
	lo, hi float64
}

// paperClaims are the 11 percentage-point claims paper_err_pp averages
// over (Figs. 8-10, 12, 13 and Table IV).
var paperClaims = []paperClaim{
	{"claim.bump_row_hit", 55, 55},
	{"claim.open_row_hit", 21, 21},
	{"claim.sms_row_hit", 30, 30},
	{"claim.vwq_row_hit", 36, 36},
	{"claim.smsvwq_row_hit", 44, 44},
	{"claim.save_vs_open", 23, 23},
	{"claim.save_vs_close", 34, 34},
	{"claim.bump_speedup", 9, 9},
	{"claim.open_speedup", -2, -1},
	{"claim.llc_overhead", 10, 13},
	{"claim.read_coverage", 50, 50},
}

// paperError is the mean absolute distance, in percentage points, of the
// measured claims from the paper's values or ranges.
func paperError(claims map[string]float64) float64 {
	var sum float64
	for _, c := range paperClaims {
		v := claims[c.name]
		switch {
		case v < c.lo:
			sum += c.lo - v
		case v > c.hi:
			sum += v - c.hi
		}
	}
	return sum / float64(len(paperClaims))
}

// callMetrics summarises the timed-call samples as .p50/.p95/.n metrics.
func callMetrics(samples map[string][]time.Duration) map[string]float64 {
	out := make(map[string]float64, 3*len(timedCalls))
	for _, c := range timedCalls {
		scale := float64(time.Millisecond)
		if c.unit == "us" {
			scale = float64(time.Microsecond)
		}
		xs := make([]float64, len(samples[c.name]))
		for i, d := range samples[c.name] {
			xs[i] = float64(d) / scale
		}
		out[c.name+".p50_"+c.unit] = report.Percentile(xs, 50)
		out[c.name+".p95_"+c.unit] = report.Percentile(xs, 95)
		out[c.name+".n"] = float64(len(xs))
	}
	return out
}

// finite replaces NaN and infinities (an empty ratio) with 0 so every
// value survives JSON encoding.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
