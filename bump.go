// Package bump is a from-scratch reproduction of "BuMP: Bulk Memory
// Access Prediction and Streaming" (Volos, Picorel, Falsafi, Grot —
// MICRO 2014, DOI 10.1109/MICRO.2014.44).
//
// The package exposes three layers:
//
//   - The BuMP predictor itself (NewPredictor): the paper's region
//     density tracking table (RDTT), bulk history table (BHT) and dirty
//     region table (DRT), usable standalone on any LLC event stream.
//   - A full-system simulator (Run): a 16-core lean-core CMP with
//     per-core L1-D caches, a shared LLC, a crossbar NOC, FR-FCFS DDR3
//     memory controllers and an event-based energy model, replaying
//     synthetic server workloads modelled on the paper's CloudSuite
//     characterisation.
//   - The evaluation harness (NewFigures): regenerates every table and
//     figure of the paper's evaluation section as text tables.
//
// Quick start:
//
//	res, err := bump.Run(bump.DefaultConfig(bump.MechBuMP, bump.WebSearch()))
//	if err != nil { ... }
//	fmt.Printf("row-buffer hit ratio: %.1f%%\n", 100*res.RowHitRatio())
//
// See examples/ for runnable programs and the "Repository layout"
// section of README.md for the system inventory.
package bump

import (
	"bump/internal/core"
	"bump/internal/figures"
	"bump/internal/mem"
	"bump/internal/scenario"
	"bump/internal/sim"
	"bump/internal/stats"
	"bump/internal/workload"
)

// ---- Full-system simulation -------------------------------------------

// Mechanism selects the memory system under evaluation.
type Mechanism = sim.Mechanism

// The evaluated systems (the bars of Figs. 2, 9, 10 and 13).
const (
	// MechBaseClose is the close-row, block-interleaved baseline with a
	// stride prefetcher.
	MechBaseClose = sim.BaseClose
	// MechBaseOpen is the open-row, region-interleaved baseline with a
	// stride prefetcher (BuMP's memory controller, no predictor).
	MechBaseOpen = sim.BaseOpen
	// MechSMS adds Spatial Memory Streaming next to the LLC.
	MechSMS = sim.SMSOnly
	// MechVWQ adds a Virtual Write Queue-style eager writeback.
	MechVWQ = sim.VWQOnly
	// MechSMSVWQ combines SMS and VWQ.
	MechSMSVWQ = sim.SMSVWQ
	// MechFullRegion bulk-transfers every region without prediction.
	MechFullRegion = sim.FullRegion
	// MechBuMP is the paper's mechanism.
	MechBuMP = sim.BuMP
)

// Mechanisms lists all evaluated systems in figure order.
func Mechanisms() []Mechanism { return sim.Mechanisms() }

// Config is the full-system configuration (Table II defaults via
// DefaultConfig).
type Config = sim.Config

// Result holds one run's measurement-window statistics and derived
// metrics (row-buffer hit ratio, IPC, energy breakdown, coverage).
type Result = sim.Result

// DefaultConfig returns the paper's 16-core system (Table II) for the
// given mechanism and workload.
func DefaultConfig(m Mechanism, w Workload) Config { return sim.DefaultConfig(m, w) }

// Run simulates one configuration and returns its measurement-window
// result.
func Run(cfg Config) (Result, error) { return sim.RunOne(cfg) }

// RunSeeds runs the configuration once per seed, in parallel, for
// SMARTS-style multi-sample measurement.
func RunSeeds(cfg Config, seeds []int64) ([]Result, error) { return sim.RunSeeds(cfg, seeds) }

// Aggregate summarises multi-seed results with 95% confidence
// half-widths.
type Aggregate = sim.Aggregate

// AggregateResults computes the multi-seed summary.
func AggregateResults(rs []Result) Aggregate { return sim.AggregateResults(rs) }

// ---- Workloads ----------------------------------------------------------

// Workload parameterises a synthetic server workload (see
// internal/workload for the model).
type Workload = workload.Params

// The six evaluated server applications (Section V.A).
var (
	DataServing     = workload.DataServing
	MediaStreaming  = workload.MediaStreaming
	OnlineAnalytics = workload.OnlineAnalytics
	SoftwareTesting = workload.SoftwareTesting
	WebSearch       = workload.WebSearch
	WebServing      = workload.WebServing
)

// Workloads returns the six evaluated workloads in the paper's order.
func Workloads() []Workload { return workload.All() }

// WorkloadByName resolves a workload preset by its name (e.g.
// "web-search").
func WorkloadByName(name string) (Workload, bool) { return workload.ByName(name) }

// ---- Scenarios ----------------------------------------------------------

// Scenario is a declarative multi-phase, multi-tenant workload
// composition: per-tenant core ranges, each running an ordered timeline
// of preset-based phases with optional load-shift ramps (see
// internal/scenario for the spec and JSON file format).
type Scenario = scenario.Spec

// Scenarios returns the built-in scenario library names (consolidated,
// diurnal-shift, phase-swap, bursty-writer).
func Scenarios() []string { return scenario.Library() }

// ScenarioByName builds a built-in scenario for the given core count.
// A custom scenario is a Scenario value (see LoadScenario), not a name.
func ScenarioByName(name string, cores int) (Scenario, bool) { return scenario.ByName(name, cores) }

// LoadScenario reads a scenario spec from its JSON file format.
func LoadScenario(path string) (Scenario, error) { return scenario.Load(path) }

// DefaultScenarioConfig returns the paper's 16-core system (Table II)
// driven by a scenario instead of a stationary workload.
func DefaultScenarioConfig(m Mechanism, sc Scenario) Config {
	return sim.DefaultScenarioConfig(m, sc)
}

// ---- Standalone predictor -----------------------------------------------

// Predictor is the BuMP engine: feed it the LLC access/eviction stream
// via Touch/ReadMiss/Evict and it reports when to stream a region from
// memory or write one back in bulk. See the examples/predictor program.
type Predictor = core.Predictor

// PredictorConfig sizes the predictor (Section IV.D: ~14KB total at the
// defaults).
type PredictorConfig = core.Config

// PredictorStats are the predictor's event counters.
type PredictorStats = core.Stats

// DefaultPredictorConfig returns the paper's configuration: 1KB regions,
// 8-block (50%) density threshold, 256+256-entry RDTT, 1024-entry BHT and
// DRT, all 16-way set-associative.
func DefaultPredictorConfig() PredictorConfig { return core.DefaultConfig() }

// NewPredictor builds a predictor; it panics on an invalid configuration
// (validate with PredictorConfig.Validate first if unsure).
func NewPredictor(cfg PredictorConfig) *Predictor { return core.New(cfg) }

// Address types for feeding the standalone predictor.
type (
	// Addr is a physical byte address.
	Addr = mem.Addr
	// BlockAddr is a 64-byte-block address (Addr >> 6).
	BlockAddr = mem.BlockAddr
	// PC is the address of the instruction triggering an access.
	PC = mem.PC
)

// ---- Evaluation harness ---------------------------------------------------

// Figures regenerates the paper's tables and figures; obtain one with
// NewFigures.
type Figures = figures.Runner

// FigureOptions parameterise the harness (zero values give the paper's
// full six-workload configuration at default simulation windows).
type FigureOptions = figures.Options

// Table is a rendered, fixed-width text table.
type Table = stats.Table

// NewFigures builds the evaluation harness.
func NewFigures(opts FigureOptions) *Figures { return figures.NewRunner(opts) }
