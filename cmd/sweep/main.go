// Command sweep runs parameter sweeps and emits CSV for plotting: every
// (workload, mechanism) pair, the Fig. 11 design grid, a multi-seed
// confidence run, or the FR-FCFS fairness-cap sweep.
//
// Every mode expresses its matrix as a batch of service job specs. By
// default the batch executes on an in-process service.Pool (bounded
// workers, duplicate coalescing, result caching); with -server the same
// batch is submitted to a running bumpd or bumpctl instance (one POST
// /v1/batch request, or one batch call over the wire protocol), so many
// sweep clients can share one simulation service and its cache. To
// spread a sweep over a fleet of bumpd workers, put bumpctl -workers in
// front of them and point -server at it. The *service.Pool and a
// service.Client are both a service.Backend, so a sweep is one
// Backend.Batch call whichever runs it. A server's warm and cache
// counters are on its GET /metrics; the sweep reports only what this
// process saw (the in-process warm ledger, wire fast-path usage).
//
// In fairness mode the in-process pool shares checkpoints between sweep
// points whose configurations differ only in measured parameters: the
// sixteen row-hit-streak caps simulate one warmup total instead of
// sixteen, and every point is still byte-identical to its cold run. The
// other modes' points share no warm key, so they run cold and
// checkpoint nothing. (Against a -server, enable warm starts on bumpd
// with its -warm flag.)
// Adding -fork-at pushes the shared prefix past the warmup boundary:
// the listed cycles become checkpoint-tree cuts on the canonical trunk,
// every fairness point binds its cap at the deepest cut, and the sweep
// costs one trunk plus sixteen short branch tails instead of sixteen
// full measurement windows.
//
// Usage:
//
//	sweep -mode systems  > systems.csv
//	sweep -mode design   > design.csv
//	sweep -mode seeds -workload web-search -n 5 > seeds.csv
//	sweep -mode fairness -workload web-search > fairness.csv
//	sweep -mode fairness -workload web-search -fork-at 1200000,1600000 > fairness.csv
//	sweep -mode systems -server http://localhost:8344 > systems.csv
//	sweep -mode fairness -server http://bumpctl:8343 > fairness.csv
//	sweep -mode scenarios > scenarios.csv      # built-in scenario library
//	sweep -mode fairness -scenario phase-swap > fairness.csv
//	sweep -mode systems -scenario my-scenario.json > systems.csv
//
// With -scenario (a built-in name or a JSON spec file), every mode runs
// its matrix against the multi-phase, multi-tenant scenario instead of a
// stationary workload; a built-in travels by name and a spec file
// inline. The scenario is part of each job's config hash, so caching,
// coalescing and warm starts work exactly as for presets.
package main

import (
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"bump"
	"bump/internal/scenario"
	"bump/internal/service"
	"bump/internal/sim"
)

// runAll executes a spec batch on b and returns the results in batch
// order, exiting on the first point that did not complete.
func runAll(b service.Backend, specs []service.JobSpec) []sim.Result {
	res, err := b.Batch(context.Background(), service.BatchSpec{Specs: specs}, nil)
	if err != nil {
		fatal(err)
	}
	payloads, err := res.Results()
	if err != nil {
		fatal(err)
	}
	results := make([]sim.Result, len(payloads))
	for i, p := range payloads {
		results[i] = *p.Result
	}
	return results
}

func main() {
	var (
		mode         = flag.String("mode", "systems", "sweep mode: systems, design, seeds, fairness, scenarios")
		workloadName = flag.String("workload", "web-search", "workload for -mode seeds and -mode fairness")
		scenarioFlag = flag.String("scenario", "", "run the matrix against a scenario instead of workload presets: a built-in name or a JSON spec file")
		n            = flag.Int("n", 5, "seed count for -mode seeds")
		warmup       = flag.Uint64("warmup", 700_000, "warmup cycles")
		measure      = flag.Uint64("measure", 1_500_000, "measurement cycles")
		server       = flag.String("server", "", "bumpd/bumpctl base URL; empty runs fully in-process")
		forkAt       = flag.String("fork-at", "", "comma-separated absolute cycles inside the measurement window where -mode fairness points fork from a shared canonical trunk (the deepest cut binds the streak cap)")
		jsonOnly     = flag.Bool("json-only", false, "talk HTTP/JSON to -server even when it advertises a binary wire listener")
	)
	flag.Parse()

	// -fork-at: parse the checkpoint-tree cut list once, up front, so a
	// malformed list fails before any simulation runs.
	var forkCuts []uint64
	if *forkAt != "" {
		for _, part := range strings.Split(*forkAt, ",") {
			cut, err := strconv.ParseUint(strings.TrimSpace(part), 10, 64)
			if err != nil {
				fatal(fmt.Errorf("-fork-at %q: %v", part, err))
			}
			if cut <= *warmup || cut >= *warmup+*measure {
				fatal(fmt.Errorf("-fork-at %d is outside the measurement window (%d, %d)", cut, *warmup, *warmup+*measure))
			}
			if len(forkCuts) > 0 && cut <= forkCuts[len(forkCuts)-1] {
				fatal(fmt.Errorf("-fork-at cuts must be strictly increasing"))
			}
			forkCuts = append(forkCuts, cut)
		}
	}

	// Every mode runs its batch through one Backend: the in-process
	// pool or a remote bumpd/bumpctl.
	var pool *service.Pool
	var run service.Backend
	switch {
	case strings.Contains(*server, ","):
		fatal(fmt.Errorf("-server takes one base URL; to sweep across several bumpd workers, run bumpctl -workers %s and pass its URL", *server))
	case *server != "":
		cl := service.NewClient(*server)
		cl.DisableWire = *jsonOnly
		// After a remote sweep, show how the transport behaved (wire
		// fast-path vs HTTP fallback, conn reuse).
		defer func() {
			if ws := cl.WireStats(); ws.Calls != 0 || ws.Fallbacks != 0 {
				fmt.Fprintf(os.Stderr, "sweep: wire: %d calls, %d fallbacks, %d dials, %d reused conns\n",
					ws.Calls, ws.Fallbacks, ws.Dials, ws.Reuses)
			}
		}()
		run = cl
	default:
		// Only fairness points share a warm key (see the package doc).
		pool = service.NewPool(service.Options{WarmStarts: *mode == "fairness"})
		defer pool.Close()
		run = pool
	}

	w := csv.NewWriter(os.Stdout)
	defer w.Flush()

	baseSpec := func(m bump.Mechanism, wl string) service.JobSpec {
		return service.JobSpec{
			Workload:      wl,
			Mechanism:     m.String(),
			WarmupCycles:  *warmup,
			MeasureCycles: *measure,
		}
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'f', 4, 64) }

	// With -scenario, every mode's specs swap their workload for the
	// scenario. A built-in travels by name (a remote bumpd resolves it,
	// so all clients coalesce on the same hash); a spec file travels
	// inline.
	scenarioLabel := ""
	applyScenario := func(spec service.JobSpec) service.JobSpec { return spec }
	switch {
	case *scenarioFlag == "":
	case scenario.Known(*scenarioFlag):
		scenarioLabel = "scenario:" + *scenarioFlag
		applyScenario = func(spec service.JobSpec) service.JobSpec {
			spec.Workload = ""
			spec.Scenario = *scenarioFlag
			return spec
		}
	default:
		sc, err := scenario.Resolve(*scenarioFlag, 0) // a spec file; the error names the library
		if err != nil {
			fatal(err)
		}
		scenarioLabel = "scenario:" + sc.Name
		applyScenario = func(spec service.JobSpec) service.JobSpec {
			spec.Workload = ""
			spec.ScenarioSpec = sc
			return spec
		}
	}
	// wlRows yields the workload axis: the scenario when set, else the
	// six presets.
	type wlRow struct {
		label string
		spec  func(m bump.Mechanism) service.JobSpec
	}
	wlRows := func() []wlRow {
		if scenarioLabel != "" {
			return []wlRow{{scenarioLabel, func(m bump.Mechanism) service.JobSpec {
				return applyScenario(baseSpec(m, ""))
			}}}
		}
		rows := make([]wlRow, 0, 6)
		for _, wl := range bump.Workloads() {
			name := wl.Name
			rows = append(rows, wlRow{name, func(m bump.Mechanism) service.JobSpec {
				return baseSpec(m, name)
			}})
		}
		return rows
	}

	switch *mode {
	case "systems":
		var specs []service.JobSpec
		var labels []string
		for _, row := range wlRows() {
			for _, m := range bump.Mechanisms() {
				specs = append(specs, row.spec(m))
				labels = append(labels, row.label)
			}
		}
		results := runAll(run, specs)
		w.Write([]string{"workload", "mechanism", "row_hit", "ipc", "epa_nj", "read_coverage", "read_overfetch", "write_coverage"})
		for i, res := range results {
			w.Write([]string{labels[i], specs[i].Mechanism, f(res.RowHitRatio()), f(res.IPC()),
				f(res.EPATotal * 1e9), f(res.ReadCoverage()), f(res.ReadOverfetch()), f(res.WriteCoverage())})
		}
	case "scenarios":
		// The built-in scenario library × all mechanisms: the per-scenario
		// sweep output (colocation, diurnal load, phase swaps, write
		// bursts) next to the stationary-workload systems matrix.
		if scenarioLabel != "" {
			fatal(fmt.Errorf("-mode scenarios sweeps the built-in library; use -mode systems -scenario %s for one scenario", *scenarioFlag))
		}
		var specs []service.JobSpec
		var labels []string
		for _, name := range scenario.Library() {
			for _, m := range bump.Mechanisms() {
				spec := baseSpec(m, "")
				spec.Scenario = name
				specs = append(specs, spec)
				labels = append(labels, name)
			}
		}
		results := runAll(run, specs)
		w.Write([]string{"scenario", "mechanism", "row_hit", "ipc", "epa_nj", "read_coverage", "read_overfetch", "write_coverage"})
		for i, res := range results {
			w.Write([]string{labels[i], specs[i].Mechanism, f(res.RowHitRatio()), f(res.IPC()),
				f(res.EPATotal * 1e9), f(res.ReadCoverage()), f(res.ReadOverfetch()), f(res.WriteCoverage())})
		}
	case "design":
		var specs []service.JobSpec
		var labels []string
		for _, row := range wlRows() {
			for _, shift := range []uint{9, 10, 11} {
				blocks := uint(1) << (shift - 6)
				for _, pct := range []uint{25, 50, 75, 100} {
					spec := row.spec(bump.MechBuMP)
					spec.RegionShift = shift
					spec.DensityThreshold = blocks * pct / 100
					if spec.DensityThreshold == 0 {
						spec.DensityThreshold = 1
					}
					specs = append(specs, spec)
					labels = append(labels, row.label)
				}
			}
		}
		results := runAll(run, specs)
		w.Write([]string{"workload", "region_bytes", "threshold_blocks", "row_hit", "epa_nj", "read_coverage", "read_overfetch"})
		for i, res := range results {
			w.Write([]string{labels[i], strconv.Itoa(1 << specs[i].RegionShift), strconv.Itoa(int(specs[i].DensityThreshold)),
				f(res.RowHitRatio()), f(res.EPATotal * 1e9), f(res.ReadCoverage()), f(res.ReadOverfetch())})
		}
	case "fairness":
		// Sixteen FR-FCFS row-hit streak caps over one workload (or
		// scenario). The cap is a measured parameter, so in-process all
		// sixteen points restore one shared warm checkpoint.
		point := pointSpec(*workloadName, scenarioLabel, baseSpec, applyScenario)
		var specs []service.JobSpec
		for cap := 0; cap < 16; cap++ {
			spec := point()
			spec.MaxRowHitStreak = cap
			if len(forkCuts) > 0 {
				// Bind the cap at the deepest cut: all sixteen points
				// share the canonical trunk through that cycle, so the
				// sweep costs one trunk plus sixteen short branch tails.
				spec.ForkCycles = forkCuts
				spec.ForkAt = forkCuts[len(forkCuts)-1]
			}
			specs = append(specs, spec)
		}
		results := runAll(run, specs)
		w.Write([]string{"streak_cap", "row_hit", "ipc", "epa_nj", "read_qdelay"})
		for i, res := range results {
			cap := "off"
			if specs[i].MaxRowHitStreak > 0 {
				cap = strconv.Itoa(specs[i].MaxRowHitStreak)
			}
			qd := 0.0
			if res.Ctrl.Reads > 0 {
				qd = float64(res.Ctrl.ReadQueueDelay) / float64(res.Ctrl.Reads)
			}
			w.Write([]string{cap, f(res.RowHitRatio()), f(res.IPC()), f(res.EPATotal * 1e9), f(qd)})
		}
		if pool != nil {
			st := pool.Stats()
			fmt.Fprintf(os.Stderr, "sweep: warm checkpoints: %d simulated / %d reused warmup cycles (%d hits, %d misses)\n",
				st.Warm.WarmupCyclesSimulated, st.Warm.WarmupCyclesReused, st.Warm.Hits, st.Warm.Misses)
			if len(forkCuts) > 0 {
				fmt.Fprintf(os.Stderr, "sweep: checkpoint tree: %d trunk / %d branch cycles simulated, %d fork cycles reused (%d fork hits, %d tree builds)\n",
					st.Warm.TrunkCyclesSimulated, st.Warm.BranchCyclesSimulated,
					st.Warm.ForkCyclesReused, st.Warm.ForkHits, st.Warm.ForkMisses)
			}
		}
	case "seeds":
		point := pointSpec(*workloadName, scenarioLabel, baseSpec, applyScenario)
		specs := make([]service.JobSpec, *n)
		seeds := make([]int64, *n)
		for i := range specs {
			seeds[i] = int64(i + 1)
			specs[i] = point()
			specs[i].Seed = seeds[i]
		}
		rs := runAll(run, specs)
		w.Write([]string{"seed", "row_hit", "ipc", "epa_nj"})
		for i, r := range rs {
			w.Write([]string{strconv.FormatInt(seeds[i], 10), f(r.RowHitRatio()), f(r.IPC()), f(r.EPATotal * 1e9)})
		}
		a := bump.AggregateResults(rs)
		w.Write([]string{"mean", f(a.RowHitRatio), f(a.IPC), f(a.EPATotal * 1e9)})
		w.Write([]string{"ci95", f(a.RowHitRatioCI), f(a.IPCCI), f(a.EPATotalCI * 1e9)})
	default:
		fatal(fmt.Errorf("unknown mode %q", *mode))
	}
}

// pointSpec returns the single-point spec builder for fairness/seeds
// modes: the scenario when -scenario is set, else the named workload.
func pointSpec(workloadName, scenarioLabel string,
	base func(bump.Mechanism, string) service.JobSpec,
	applyScenario func(service.JobSpec) service.JobSpec) func() service.JobSpec {
	if scenarioLabel != "" {
		return func() service.JobSpec { return applyScenario(base(bump.MechBuMP, "")) }
	}
	wl, ok := bump.WorkloadByName(workloadName)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", workloadName))
	}
	return func() service.JobSpec { return base(bump.MechBuMP, wl.Name) }
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
	os.Exit(1)
}
