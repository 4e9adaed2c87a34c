// Package workload generates the per-core memory access streams of the
// six server applications in the paper's evaluation (CloudSuite 2.0's
// Data Serving, Media Streaming, Software Testing, Web Search and Web
// Serving, plus TPC-H-style Online Analytics).
//
// The real applications are not available in this environment, so each
// workload is a synthetic model parameterised from the paper's own
// characterisation (Section III, Figs. 3-5): server software touches
// memory either coarsely — scans over multi-block software objects
// (database rows, index pages, media chunks, object-cache entries) driven
// by a small set of accessor functions — or finely — pointer chasing
// through hash tables, trees and OS structures spread over a vast
// address space. The generators reproduce that bimodal structure: the
// fraction of DRAM reads/writes falling in high-density 1KB regions, the
// read/write traffic mix, the store-triggered read share, the code↔data
// correlation (few PCs trigger coarse objects), and the degree of
// inter-object interleaving (which controls how many regions are active
// at once — the property that separates Software Testing from the rest).
package workload

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"bump/internal/mem"
	"bump/internal/snapshot"
)

// Stream produces an infinite access stream for one core. A stream's
// state is its position in a deterministic sequence, so a checkpoint
// records StreamPos and a restore rebuilds the stream fresh and seeks it
// forward.
type Stream interface {
	// Next returns the core's next memory access.
	Next() mem.Access
	// StreamPos returns the number of accesses consumed so far.
	StreamPos() uint64
	// SeekStream advances a freshly constructed stream to pos. Seeking
	// backwards (or to an impossible position) is an error.
	SeekStream(pos uint64) error
	// StreamFingerprint identifies the underlying access sequence (not
	// the position within it). A checkpoint records it so restoring
	// under a *different* sequence errors instead of silently resuming
	// with wrong accesses.
	StreamFingerprint() uint64
}

// CoreSeed derives the per-core generator seed from a run's base seed.
// The simulator and the service both use this derivation, so the same
// (seed, core) pair always draws the same stream.
func CoreSeed(base int64, core int) int64 { return base + int64(core)*7919 }

// fnvMix folds one uint64 word into an FNV-1a hash, byte by byte.
func fnvMix(h, w uint64) uint64 {
	const prime = 0x100000001b3
	for i := 0; i < 8; i++ {
		h ^= w & 0xFF
		h *= prime
		w >>= 8
	}
	return h
}

// Params defines a synthetic server workload.
type Params struct {
	Name string

	// Task mix (weights; normalised internally). A task is a burst of
	// related accesses: a coarse object scan, a pointer chase, a write
	// burst into a fresh object, or a sparse update.
	ScanWeight        float64
	ChaseWeight       float64
	WriteBurstWeight  float64
	SparseWriteWeight float64

	// Coarse-object geometry: objects cover ScanRegionsMin..Max regions;
	// within each region, CoverageMin..Max of the blocks are touched
	// (sequentially). UnalignedFrac of objects start mid-region,
	// producing the paper's medium-density accesses.
	ScanRegionsMin, ScanRegionsMax int
	CoverageMin, CoverageMax       float64
	UnalignedFrac                  float64

	// ScanStoreFrac is the probability that a coarse scan also modifies
	// the object (read-modify-write), dirtying the blocks it touches.
	ScanStoreFrac float64

	// ScanTinyFrac is the probability that a scan task turns out tiny —
	// the accessor function touches only 1-3 blocks (small object,
	// early termination). Tiny scans weaken the code↔data correlation:
	// the same PCs that trigger bulk-worthy objects sometimes touch
	// sparse ones, which is what bounds BuMP's coverage and produces
	// its overfetch in the paper (Fig. 8).
	ScanTinyFrac float64

	// ChaseLenMin/Max is the number of dependent hops per pointer chase.
	ChaseLenMin, ChaseLenMax int

	// SparseWriteBlocks is how many scattered blocks a sparse update
	// dirties.
	SparseWriteBlocks int

	// WriteRevisitFrac is the probability that a write burst gets a
	// delayed follow-up: a couple of extra stores to the same object
	// hundreds-to-thousands of tasks later (append to a buffer, update
	// a header). Revisits that land after the region's first dirty LLC
	// eviction produce the paper's "late writes" (Table I) and, under
	// eager writeback, premature-writeback traffic (Fig. 8 right).
	WriteRevisitFrac float64

	// Work gaps (non-memory instructions before each access). Chase
	// steps are dependent, so they carry their own (larger) gap.
	WorkMin, WorkMax           int
	ChaseWorkMin, ChaseWorkMax int

	// OpenTasks is the number of tasks a core interleaves round-robin;
	// it controls memory-level parallelism and the number of
	// simultaneously active regions (Software Testing's defining
	// feature).
	OpenTasks int

	// PC pools: a few accessor functions touch coarse objects, many
	// distinct code paths do pointer chasing.
	ScanPCs, ChasePCs, WritePCs int

	// PhaseTasks makes the workload non-stationary: every PhaseTasks
	// tasks, the accessor-PC pools shift to a different code/dataset
	// phase (changing query mixes, JIT recompilation, dataset churn).
	// Predictors must retrain each phase, which is what bounds BuMP's
	// and SMS's coverage below the high-density access share in the
	// paper (Fig. 8). 0 disables phasing.
	PhaseTasks int
	// PhasePool is the number of distinct phases cycled through; large
	// pools exceed the BHT/PHT capacity so old training is lost.
	PhasePool int

	// FootprintBlocks is the size of the dataset in cache blocks;
	// object and chase targets are sampled uniformly from it, giving
	// the paper's "vast DRAM-resident dataset with poor temporal reuse".
	FootprintBlocks uint64

	// ReuseFrac is the probability a new task revisits a recently used
	// object (bounded temporal locality).
	ReuseFrac float64
}

// Validate checks generator parameters.
func (p Params) Validate() error {
	if p.ScanWeight+p.ChaseWeight+p.WriteBurstWeight+p.SparseWriteWeight <= 0 {
		return fmt.Errorf("workload %s: task weights must be positive", p.Name)
	}
	if p.ScanRegionsMin <= 0 || p.ScanRegionsMax < p.ScanRegionsMin {
		return fmt.Errorf("workload %s: scan region bounds invalid", p.Name)
	}
	if p.CoverageMin <= 0 || p.CoverageMax > 1 || p.CoverageMax < p.CoverageMin {
		return fmt.Errorf("workload %s: coverage bounds invalid", p.Name)
	}
	if p.ChaseLenMin <= 0 || p.ChaseLenMax < p.ChaseLenMin {
		return fmt.Errorf("workload %s: chase bounds invalid", p.Name)
	}
	if p.OpenTasks <= 0 {
		return fmt.Errorf("workload %s: OpenTasks must be positive", p.Name)
	}
	if p.FootprintBlocks < 1<<16 {
		return fmt.Errorf("workload %s: footprint too small", p.Name)
	}
	if p.ScanPCs <= 0 || p.ChasePCs <= 0 || p.WritePCs <= 0 {
		return fmt.Errorf("workload %s: PC pools must be positive", p.Name)
	}
	return nil
}

// task is one in-flight activity on a core. Finished tasks are refilled
// in place, reusing the accesses backing array, so steady-state
// generation does not allocate.
type task struct {
	accesses []mem.Access // pre-materialised access sequence
	pos      int
}

// reset prepares a task for refilling.
func (t *task) reset() { t.accesses, t.pos = t.accesses[:0], 0 }

// Generator implements Stream for one core.
type Generator struct {
	p         Params
	seed      int64
	rng       *rand.Rand
	tasks     []*task
	rr        int
	recent    []mem.Addr // recently used object bases, for ReuseFrac
	weights   [4]float64
	nextChain uint32
	taskCount int
	revisits  []revisit
	fp        uint64 // lazily computed stream fingerprint
	// calls counts Next() invocations. A generator's entire state is a
	// deterministic function of (Params, seed, calls), which is what
	// makes checkpointing a stream as cheap as recording this counter:
	// restore rebuilds the generator from its seed and replays `calls`
	// draws (far cheaper than simulating them) instead of serializing
	// the math/rand internals.
	calls uint64
}

// revisit is a deferred follow-up write to an earlier write burst.
type revisit struct {
	base    mem.Addr
	pc      mem.PC
	matures int // taskCount at which the revisit runs
}

// NewGenerator builds a deterministic per-core stream. Different cores of
// the same workload should use different seeds.
func NewGenerator(p Params, seed int64) (*Generator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	g := &Generator{
		p:    p,
		seed: seed,
		rng:  rand.New(rand.NewSource(seed)),
	}
	total := p.ScanWeight + p.ChaseWeight + p.WriteBurstWeight + p.SparseWriteWeight
	g.weights = [4]float64{
		p.ScanWeight / total,
		p.ChaseWeight / total,
		p.WriteBurstWeight / total,
		p.SparseWriteWeight / total,
	}
	g.tasks = make([]*task, p.OpenTasks)
	for i := range g.tasks {
		g.tasks[i] = &task{}
		g.fillTask(g.tasks[i])
	}
	return g, nil
}

func (g *Generator) intBetween(lo, hi int) int {
	if hi <= lo {
		return lo
	}
	return lo + g.rng.Intn(hi-lo+1)
}

func (g *Generator) floatBetween(lo, hi float64) float64 {
	return lo + g.rng.Float64()*(hi-lo)
}

func (g *Generator) pc(base uint64, pool int) mem.PC {
	return mem.PC(base + g.phaseShift() + 8*uint64(g.rng.Intn(pool)))
}

// phaseShift relocates the accessor-PC pools for the current phase.
func (g *Generator) phaseShift() uint64 {
	if g.p.PhaseTasks <= 0 || g.p.PhasePool <= 1 {
		return 0
	}
	phase := (g.taskCount / g.p.PhaseTasks) % g.p.PhasePool
	return uint64(phase) * 0x400
}

func (g *Generator) work(lo, hi int) uint32 { return uint32(g.intBetween(lo, hi)) }

// objectBase picks the base address of a fresh (or reused) object that
// spans `regions` regions.
func (g *Generator) objectBase(regions int) mem.Addr {
	if len(g.recent) > 0 && g.rng.Float64() < g.p.ReuseFrac {
		return g.recent[g.rng.Intn(len(g.recent))]
	}
	maxRegion := g.p.FootprintBlocks >> (mem.DefaultRegionShift - mem.BlockShift)
	r := mem.RegionAddr(g.rng.Int63n(int64(maxRegion - uint64(regions))))
	base := r.BaseAddr(mem.DefaultRegionShift)
	g.recent = append(g.recent, base)
	if len(g.recent) > 32 {
		g.recent = g.recent[1:]
	}
	return base
}

// PC pool bases keep the workload's code regions disjoint.
const (
	scanPCBase  = 0x40_0000
	chasePCBase = 0x50_0000
	writePCBase = 0x60_0000
)

// newScan materialises a coarse-object scan: sequential block reads (or
// read-modify-writes) over most of each region the object covers, all
// issued by one accessor PC — the paper's code↔data correlation.
func (g *Generator) newScan(t *task) {
	p := g.p
	regions := g.intBetween(p.ScanRegionsMin, p.ScanRegionsMax)
	base := g.objectBase(regions + 1)
	pc := g.pc(scanPCBase, p.ScanPCs)
	store := g.rng.Float64() < p.ScanStoreFrac
	typ := mem.Load
	if store {
		typ = mem.Store
	}

	startOff := uint(0)
	if g.rng.Float64() < p.UnalignedFrac {
		startOff = uint(g.intBetween(4, 12))
	}

	acc := t.accesses
	blocksPer := mem.BlocksPerRegion(mem.DefaultRegionShift)
	firstBlock := base.Block() + mem.BlockAddr(startOff)
	totalBlocks := uint(regions)*blocksPer - startOff
	covered := uint(float64(totalBlocks) * g.floatBetween(p.CoverageMin, p.CoverageMax))
	if g.rng.Float64() < p.ScanTinyFrac {
		covered = uint(g.intBetween(1, 3))
	}
	if covered == 0 {
		covered = 1
	}
	for i := uint(0); i < covered; i++ {
		acc = append(acc, mem.Access{
			PC:   pc,
			Addr: (firstBlock + mem.BlockAddr(i)).Addr(),
			Type: typ,
			Work: g.work(p.WorkMin, p.WorkMax),
		})
	}
	t.accesses = acc
}

// newChase materialises a dependent pointer chase across the footprint:
// one block per hop, long work gaps, a diverse PC pool — the paper's
// fine-grained, unpredictable traffic.
func (g *Generator) newChase(t *task) {
	p := g.p
	hops := g.intBetween(p.ChaseLenMin, p.ChaseLenMax)
	g.nextChain++
	if g.nextChain == 0 {
		g.nextChain = 1
	}
	chain := g.nextChain
	acc := t.accesses
	for i := 0; i < hops; i++ {
		b := mem.BlockAddr(g.rng.Int63n(int64(p.FootprintBlocks)))
		acc = append(acc, mem.Access{
			PC:    g.pc(chasePCBase, p.ChasePCs),
			Addr:  b.Addr(),
			Type:  mem.Load,
			Work:  g.work(p.ChaseWorkMin, p.ChaseWorkMax),
			Chain: chain, // each hop depends on the previous one's data
		})
	}
	t.accesses = acc
}

// newWriteBurst materialises the population of a fresh coarse object with
// stores (software caches, packet buffers, socket buffers): the stores
// fetch the blocks (store-triggered reads) and leave them dirty, to be
// written back on eviction.
func (g *Generator) newWriteBurst(t *task) {
	p := g.p
	regions := g.intBetween(p.ScanRegionsMin, p.ScanRegionsMax)
	base := g.objectBase(regions + 1)
	pc := g.pc(writePCBase, p.WritePCs)
	acc := t.accesses
	blocksPer := mem.BlocksPerRegion(mem.DefaultRegionShift)
	totalBlocks := uint(regions) * blocksPer
	covered := uint(float64(totalBlocks) * g.floatBetween(p.CoverageMin, p.CoverageMax))
	if g.rng.Float64() < p.ScanTinyFrac {
		covered = uint(g.intBetween(1, 3))
	}
	if covered == 0 {
		covered = 1
	}
	first := base.Block()
	for i := uint(0); i < covered; i++ {
		acc = append(acc, mem.Access{
			PC:   pc,
			Addr: (first + mem.BlockAddr(i)).Addr(),
			Type: mem.Store,
			Work: g.work(p.WorkMin, p.WorkMax),
		})
	}
	if g.rng.Float64() < p.WriteRevisitFrac {
		g.revisits = append(g.revisits, revisit{
			base:    base,
			pc:      pc,
			matures: g.taskCount + g.intBetween(200, 3000),
		})
	}
	t.accesses = acc
}

// newRevisit materialises a matured follow-up write: one or two stores
// into a previously written object.
func (g *Generator) newRevisit(t *task, rv revisit) {
	p := g.p
	n := g.intBetween(1, 2)
	acc := t.accesses
	first := rv.base.Block()
	for i := 0; i < n; i++ {
		off := mem.BlockAddr(g.rng.Intn(mem.DefaultBlocksPerRegion))
		acc = append(acc, mem.Access{
			PC:   rv.pc,
			Addr: (first + off).Addr(),
			Type: mem.Store,
			Work: g.work(p.WorkMin, p.WorkMax),
		})
	}
	t.accesses = acc
}

// newSparseWrite dirties a handful of scattered blocks (metadata updates,
// counters): low-density write traffic.
func (g *Generator) newSparseWrite(t *task) {
	p := g.p
	acc := t.accesses
	for i := 0; i < p.SparseWriteBlocks; i++ {
		b := mem.BlockAddr(g.rng.Int63n(int64(p.FootprintBlocks)))
		acc = append(acc, mem.Access{
			PC:   g.pc(chasePCBase, p.ChasePCs),
			Addr: b.Addr(),
			Type: mem.Store,
			Work: g.work(p.ChaseWorkMin, p.ChaseWorkMax),
		})
	}
	t.accesses = acc
}

// StreamPos implements Stream: the number of accesses drawn so far.
func (g *Generator) StreamPos() uint64 { return g.calls }

// Tasks returns the number of tasks the generator has started, including
// the OpenTasks materialised at construction. The scenario layer uses it
// to end task-bounded phases at a deterministic point in the stream.
func (g *Generator) Tasks() int { return g.taskCount }

// StreamFingerprint implements Stream. A generator's sequence is a
// pure function of (Params, seed), so the fingerprint digests every
// Params field plus the seed — two generators with tweaked weights but
// the same name must not fingerprint equal.
func (g *Generator) StreamFingerprint() uint64 {
	if g.fp != 0 {
		return g.fp
	}
	d, err := snapshot.CanonicalDigest("workload-generator-v1", g.p)
	if err != nil {
		// Params is a plain struct today; an unhashable field is a
		// programming error that must fail loudly, not degrade the
		// restore guard.
		panic("workload: Params not canonically hashable: " + err.Error())
	}
	h := fnvMix(binary.LittleEndian.Uint64(d[:8]), uint64(g.seed))
	if h == 0 {
		h = 1
	}
	g.fp = h
	return h
}

// SeekStream implements Stream by replaying pos draws on a freshly
// seeded generator. Determinism makes this exact: after the replay the
// generator's state (tasks, RNG, revisit queue, phase counters) is
// bit-identical to the checkpointed one.
func (g *Generator) SeekStream(pos uint64) error {
	if g.calls > pos {
		return fmt.Errorf("workload: cannot seek stream backwards (%d > %d)", g.calls, pos)
	}
	for g.calls < pos {
		g.Next()
	}
	return nil
}

// fillTask refills t in place with the next generated activity.
func (g *Generator) fillTask(t *task) {
	t.reset()
	g.taskCount++
	if len(g.revisits) > 0 && g.revisits[0].matures <= g.taskCount {
		rv := g.revisits[0]
		g.revisits = g.revisits[1:]
		g.newRevisit(t, rv)
		return
	}
	x := g.rng.Float64()
	switch {
	case x < g.weights[0]:
		g.newScan(t)
	case x < g.weights[0]+g.weights[1]:
		g.newChase(t)
	case x < g.weights[0]+g.weights[1]+g.weights[2]:
		g.newWriteBurst(t)
	default:
		g.newSparseWrite(t)
	}
}

// Next implements Stream: round-robin over the open tasks, replacing each
// finished task with a fresh one.
func (g *Generator) Next() mem.Access {
	g.calls++
	for {
		g.rr = (g.rr + 1) % len(g.tasks)
		t := g.tasks[g.rr]
		if t.pos < len(t.accesses) {
			a := t.accesses[t.pos]
			t.pos++
			return a
		}
		g.fillTask(t)
	}
}
