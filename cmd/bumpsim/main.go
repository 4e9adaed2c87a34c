// Command bumpsim runs one full-system simulation and prints a detailed
// report: throughput, row-buffer behaviour, coverage, energy breakdown
// and the region-density profile.
//
// Usage:
//
//	bumpsim -workload web-search -mechanism bump
//	bumpsim -params                     # print Table II/III constants
//	bumpsim -workload data-serving -mechanism full-region -measure 4000000
//	bumpsim -scenario phase-swap -mechanism bump        # built-in scenario
//	bumpsim -scenario my-scenario.json -mechanism bump  # scenario file
//
// Checkpointing: -checkpoint-save writes the simulator's full state at
// the end of the warmup window; -checkpoint-load restores such a file
// into a structurally identical configuration and runs only the
// measurement window (measured parameters — -measure and the row-hit
// streak cap — may differ from the saving run):
//
//	bumpsim -workload web-search -mechanism bump -checkpoint-save warm.ckpt
//	bumpsim -workload web-search -mechanism bump -checkpoint-load warm.ckpt -measure 4000000
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"

	"bump"
	"bump/internal/energy"
	"bump/internal/scenario"
	"bump/internal/sim"
	"bump/internal/stats"
)

func main() {
	var (
		workloadName = flag.String("workload", "web-search", "workload: data-serving, media-streaming, online-analytics, software-testing, web-search, web-serving")
		mechName     = flag.String("mechanism", "bump", "system: base-close, base-open, sms, vwq, sms+vwq, full-region, bump")
		seed         = flag.Int64("seed", 1, "deterministic seed")
		warmup       = flag.Uint64("warmup", 0, "warmup cycles (0 = default)")
		measure      = flag.Uint64("measure", 0, "measurement cycles (0 = default)")
		scenarioName = flag.String("scenario", "", "multi-phase multi-tenant scenario driving the streams: a built-in name (consolidated, diurnal-shift, phase-swap, bursty-writer) or a JSON spec file; replaces -workload")
		params       = flag.Bool("params", false, "print the architectural (Table II) and energy (Table III) parameters and exit")
		ckptSave     = flag.String("checkpoint-save", "", "write a warmup-end checkpoint to this file")
		ckptLoad     = flag.String("checkpoint-load", "", "restore a checkpoint instead of simulating the warmup")
	)
	flag.Parse()

	if *params {
		printParams()
		return
	}

	m, ok := sim.MechanismByName(*mechName)
	if !ok {
		fmt.Fprintf(os.Stderr, "bumpsim: unknown mechanism %q\n", *mechName)
		os.Exit(2)
	}

	var cfg bump.Config
	if *scenarioName != "" {
		sc, err := scenario.Resolve(*scenarioName, bump.DefaultConfig(m, bump.Workload{}).Cores)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bumpsim: %v\n", err)
			os.Exit(2)
		}
		cfg = sim.DefaultScenarioConfig(m, sc)
		fmt.Printf("scenario %s: %d tenants over %d cores\n", sc.Name, len(sc.Tenants), cfg.Cores)
	} else {
		w, ok := bump.WorkloadByName(*workloadName)
		if !ok {
			fmt.Fprintf(os.Stderr, "bumpsim: unknown workload %q\n", *workloadName)
			os.Exit(2)
		}
		cfg = bump.DefaultConfig(m, w)
	}
	cfg.Seed = *seed
	// The report prints the region-density profile.
	cfg.Profile = true
	if *warmup > 0 {
		cfg.WarmupCycles = *warmup
	}
	if *measure > 0 {
		cfg.MeasureCycles = *measure
	}

	res, err := runWithCheckpoints(cfg, *ckptSave, *ckptLoad)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bumpsim: %v\n", err)
		os.Exit(1)
	}
	printReport(res)
}

// runWithCheckpoints executes cfg, optionally restoring warmed state
// from loadPath and/or saving the warmup-end state to savePath.
func runWithCheckpoints(cfg bump.Config, savePath, loadPath string) (bump.Result, error) {
	if savePath == "" && loadPath == "" {
		return bump.Run(cfg)
	}
	if savePath != "" && loadPath != "" {
		// A restored system is already past its warmup, so the save
		// hook would never fire; reject rather than silently writing
		// nothing.
		return bump.Result{}, fmt.Errorf("-checkpoint-save cannot be combined with -checkpoint-load (a restored run has no warmup end to checkpoint)")
	}
	s, err := sim.New(cfg)
	if err != nil {
		return bump.Result{}, err
	}
	if loadPath != "" {
		f, err := os.Open(loadPath)
		if err != nil {
			return bump.Result{}, err
		}
		err = s.Restore(f)
		f.Close()
		if err != nil {
			return bump.Result{}, fmt.Errorf("restore %s: %w", loadPath, err)
		}
		fmt.Printf("restored checkpoint %s at cycle %d (skipping warmup)\n", loadPath, s.Engine().Now())
	}
	var hooks sim.Hooks
	if savePath != "" {
		hooks.AtWarmupEnd = func() error {
			var buf bytes.Buffer
			if err := s.Snapshot(&buf); err != nil {
				return err
			}
			if err := os.WriteFile(savePath, buf.Bytes(), 0o644); err != nil {
				return err
			}
			fmt.Printf("saved warmup-end checkpoint to %s (%d bytes, cycle %d)\n", savePath, buf.Len(), s.Engine().Now())
			return nil
		}
	}
	return s.RunWithHooks(hooks)
}

func printReport(r bump.Result) {
	fmt.Printf("system      %s on %s\n", r.Mechanism, r.Workload)
	fmt.Printf("window      %d cycles, %d instructions (IPC %.2f)\n",
		r.Cycles, r.Instructions, r.IPC())
	fmt.Println()

	t := stats.NewTable("DRAM", "metric", "value")
	t.AddRow("accesses", fmt.Sprintf("%d (%d rd / %d wr)", r.MemoryAccesses(), r.DRAM.ReadBursts, r.DRAM.WriteBursts))
	t.AddRow("row-buffer hit ratio", fmt.Sprintf("%.1f%%", 100*r.RowHitRatio()))
	t.AddRow("activations", fmt.Sprintf("%d", r.DRAM.Activations))
	t.AddRow("energy/access", fmt.Sprintf("%.1f nJ (ACT %.1f + BR/IO %.1f)", r.EPATotal*1e9, r.EPAActivation*1e9, r.EPABurstIO*1e9))
	t.AddRow("load latency", fmt.Sprintf("mean %.0f / P95 %.0f cycles (%d samples)", r.LoadLatencyMean, r.LoadLatencyP95, r.LoadLatencyN))
	fmt.Println(t)

	c := stats.NewTable("Prediction (Fig. 8 metrics)", "metric", "value")
	c.AddRow("read coverage", fmt.Sprintf("%.1f%%", 100*r.ReadCoverage()))
	c.AddRow("read overfetch", fmt.Sprintf("%.1f%%", 100*r.ReadOverfetch()))
	c.AddRow("write coverage", fmt.Sprintf("%.1f%%", 100*r.WriteCoverage()))
	c.AddRow("extra writebacks", fmt.Sprintf("%.1f%%", 100*r.ExtraWritebacks()))
	fmt.Println(c)

	p := stats.NewTable("Region profile (Figs. 3/5, Table I)", "metric", "value")
	p.AddRow("write traffic share", fmt.Sprintf("%.1f%%", 100*stats.Ratio(r.Profile.Writes, r.Profile.Accesses())))
	p.AddRow("store-triggered reads", fmt.Sprintf("%.1f%%", 100*stats.Ratio(r.Profile.StoreReads, r.Profile.Reads())))
	p.AddRow("high-density reads", fmt.Sprintf("%.1f%%", 100*r.Profile.HighDensityReadFraction()))
	p.AddRow("high-density writes", fmt.Sprintf("%.1f%%", 100*r.Profile.HighDensityWriteFraction()))
	p.AddRow("ideal row-hit ratio", fmt.Sprintf("%.1f%%", 100*r.Profile.IdealHitRatio()))
	p.AddRow("late-modified blocks", fmt.Sprintf("%.1f%%", 100*r.Profile.LateWriteFraction()))
	fmt.Println(p)

	e := stats.NewTable("Server energy (Fig. 1)", "component", "share")
	tot := r.Energy.Total()
	e.AddRow("cores", fmt.Sprintf("%.1f%%", 100*r.Energy.Cores()/tot))
	e.AddRow("LLC", fmt.Sprintf("%.1f%%", 100*r.Energy.LLC()/tot))
	e.AddRow("NOC", fmt.Sprintf("%.1f%%", 100*r.Energy.NOC()/tot))
	e.AddRow("memory controller", fmt.Sprintf("%.1f%%", 100*r.Energy.MCDynamic/tot))
	e.AddRow("memory (ACT)", fmt.Sprintf("%.1f%%", 100*r.Energy.DRAMActivation/tot))
	e.AddRow("memory (BR&IO)", fmt.Sprintf("%.1f%%", 100*r.Energy.BurstIO()/tot))
	e.AddRow("memory (BKG)", fmt.Sprintf("%.1f%%", 100*r.Energy.DRAMBackground/tot))
	fmt.Println(e)
}

func printParams() {
	cfg := sim.DefaultConfig(sim.BuMP, bump.WebSearch())
	t := stats.NewTable("Table II. Architectural parameters", "parameter", "value")
	t.AddRow("CMP size", fmt.Sprintf("%d cores, 3-way OoO, %d-entry window", cfg.Cores, cfg.WindowSize))
	t.AddRow("L1-D", fmt.Sprintf("%dKB %d-way, %d-cycle, %d MSHRs", cfg.L1Bytes>>10, cfg.L1Ways, cfg.L1LatencyCycles, cfg.L1MSHRs))
	t.AddRow("LLC", fmt.Sprintf("%dMB %d-way, %d-cycle", cfg.LLCBytes>>20, cfg.LLCWays, cfg.LLCLatencyCycles))
	t.AddRow("NOC", fmt.Sprintf("crossbar, %d cycles", cfg.NOCLatencyCycles))
	t.AddRow("memory", fmt.Sprintf("%d DDR3-1600 channels, %d ranks/ch, %d banks/rank, %dKB rows",
		cfg.DRAM.Channels, cfg.DRAM.RanksPerChannel, cfg.DRAM.BanksPerRank, cfg.DRAM.RowBytes>>10))
	tm := cfg.DRAM.Timing
	t.AddRow("timing", fmt.Sprintf("tCAS-tRCD-tRP-tRAS %d-%d-%d-%d, tRC %d, tWR %d, tWTR %d, tRTP %d, tRRD %d, tFAW %d",
		tm.TCAS, tm.TRCD, tm.TRP, tm.TRAS, tm.TRC, tm.TWR, tm.TWTR, tm.TRTP, tm.TRRD, tm.TFAW))
	t.AddRow("BuMP", fmt.Sprintf("1KB regions, threshold 8/16, RDTT %d+%d, BHT %d, DRT %d (%.1fKB total)",
		cfg.BuMP.TriggerEntries, cfg.BuMP.DensityEntries, cfg.BuMP.BHTEntries, cfg.BuMP.DRTEntries,
		float64(cfg.BuMP.StorageBits())/8/1024))
	fmt.Println(t)

	p := energy.DefaultParams()
	e := stats.NewTable("Table III. Power and energy parameters", "parameter", "value")
	e.AddRow("core", fmt.Sprintf("peak dynamic %.0fmW, leakage %.0fmW", p.CorePeakDynamicW*1e3, p.CoreLeakageW*1e3))
	e.AddRow("LLC", fmt.Sprintf("read %.2fnJ, write %.2fnJ, leakage %.0fmW", p.LLCReadJ*1e9, p.LLCWriteJ*1e9, p.LLCLeakageW*1e3))
	e.AddRow("NOC", fmt.Sprintf("leakage %.0fmW", p.NOCLeakageW*1e3))
	e.AddRow("mem ctrl", fmt.Sprintf("%.0fmW at %.1fGB/s", p.MCDynamicWAtRef*1e3, p.MCRefBandwidth/1e9))
	e.AddRow("DRAM activation", fmt.Sprintf("%.1fnJ", p.DRAMActivationJ*1e9))
	e.AddRow("DRAM read/write", fmt.Sprintf("%.1f/%.1fnJ + IO %.1f/%.1fnJ", p.DRAMReadJ*1e9, p.DRAMWriteJ*1e9, p.DRAMReadIOJ*1e9, p.DRAMWriteIOJ*1e9))
	e.AddRow("DRAM background", fmt.Sprintf("%.0fmW per rank x %d ranks", p.DRAMBackgroundW*1e3, p.Ranks))
	fmt.Println(e)
}
