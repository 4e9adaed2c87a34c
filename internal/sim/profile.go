// Package sim wires the substrates into the paper's 16-core CMP and runs
// the evaluation: trace-driven cores with a bounded out-of-order window,
// per-core L1-D caches, a shared LLC, the BuMP predictor (or a baseline
// mechanism) beside the LLC, FR-FCFS memory controllers and DDR3 DRAM,
// with energy accounting and the opt-in region-density profiler that
// produces the characterisation figures.
package sim

import (
	"math/bits"

	"bump/internal/addrmap"
	"bump/internal/mem"
)

// DensityClass buckets region access density as in Fig. 5: low (<25% of
// blocks), medium (25-50%), high (>=50%).
type DensityClass int

// Density classes (Fig. 5).
const (
	LowDensity DensityClass = iota
	MediumDensity
	HighDensity
)

func (c DensityClass) String() string {
	switch c {
	case LowDensity:
		return "low"
	case MediumDensity:
		return "medium"
	default:
		return "high"
	}
}

func classify(blocks, perRegion uint) DensityClass {
	switch {
	case 4*blocks < perRegion:
		return LowDensity
	case 2*blocks < perRegion:
		return MediumDensity
	default:
		return HighDensity
	}
}

// ProfileCounters are the numeric results of the profiler; they support
// subtraction so the simulator can report measurement-window deltas.
type ProfileCounters struct {
	// Fig. 3: DRAM access mix.
	LoadReads  uint64
	StoreReads uint64
	Writes     uint64

	// Fig. 5: DRAM reads/writes by region density class.
	ReadsByClass  [3]uint64
	WritesByClass [3]uint64

	// Ideal row-buffer locality: region generations (reads) and write
	// epochs, each costing exactly one activation in the ideal system.
	ReadGenerations uint64
	WriteEpochs     uint64

	// Table I: blocks dirtied after their region's first dirty eviction
	// vs. all dirtied blocks.
	LateDirtyBlocks  uint64
	TotalDirtyBlocks uint64
}

// Sub returns c - o, counter-wise.
func (c ProfileCounters) Sub(o ProfileCounters) ProfileCounters {
	r := c
	r.LoadReads -= o.LoadReads
	r.StoreReads -= o.StoreReads
	r.Writes -= o.Writes
	for i := range r.ReadsByClass {
		r.ReadsByClass[i] -= o.ReadsByClass[i]
		r.WritesByClass[i] -= o.WritesByClass[i]
	}
	r.ReadGenerations -= o.ReadGenerations
	r.WriteEpochs -= o.WriteEpochs
	r.LateDirtyBlocks -= o.LateDirtyBlocks
	r.TotalDirtyBlocks -= o.TotalDirtyBlocks
	return r
}

// Profile is the region-density characterisation of one run. It feeds
// Fig. 3 (access mix), Fig. 5 (density breakdown), Table I (late writes)
// and the Ideal system of Figs. 2/13 (one activation per region
// generation). A System builds one only when Config.Profile is set.
type Profile struct {
	ProfileCounters

	regionShift uint
	perRegion   uint

	// Generation state is held by value in open-addressed tables: they
	// churn once per region residency, and every demand access updates
	// one in place.
	readGens  addrmap.Map[mem.RegionAddr, readGen]
	writeGens addrmap.Map[mem.RegionAddr, writeGen]
}

type readGen struct {
	pattern uint64
	reads   uint64
}

type writeGen struct {
	dirtied    uint64 // distinct blocks dirtied this epoch
	writebacks uint64
	closed     bool // first dirty eviction seen
}

// NewProfile builds a profiler for the given region size.
func NewProfile(regionShift uint) *Profile {
	return &Profile{
		regionShift: regionShift,
		perRegion:   mem.BlocksPerRegion(regionShift),
	}
}

// OnDemandAccess observes every demand access reaching the LLC, opening a
// read generation for the region if none is active.
func (p *Profile) OnDemandAccess(b mem.BlockAddr) {
	g, found := p.readGens.Upsert(b.Region(p.regionShift))
	if !found {
		p.ReadGenerations++
	}
	g.pattern |= 1 << b.Offset(p.regionShift)
}

// OnDRAMRead attributes one DRAM read (demand miss) to its region's
// active generation and to the Fig. 3 mix. storeTriggered distinguishes
// store-triggered reads.
func (p *Profile) OnDRAMRead(b mem.BlockAddr, storeTriggered bool) {
	if storeTriggered {
		p.StoreReads++
	} else {
		p.LoadReads++
	}
	if g := p.readGens.Find(b.Region(p.regionShift)); g != nil {
		g.reads++
	}
}

// OnDirty observes a block becoming dirty in the LLC (store completion).
func (p *Profile) OnDirty(b mem.BlockAddr) {
	g, found := p.writeGens.Upsert(b.Region(p.regionShift))
	if !found {
		p.WriteEpochs++
	}
	bit := uint64(1) << b.Offset(p.regionShift)
	if g.dirtied&bit == 0 {
		g.dirtied |= bit
		p.TotalDirtyBlocks++
		if g.closed {
			p.LateDirtyBlocks++
		}
	}
}

// OnDRAMWrite attributes one DRAM write (writeback) to its region's write
// epoch, classifying it by the epoch's modified-block density (Fig. 5 W).
func (p *Profile) OnDRAMWrite(b mem.BlockAddr) {
	p.Writes++
	g, found := p.writeGens.Upsert(b.Region(p.regionShift))
	if !found {
		// Writeback with no recorded store (e.g. warmup leakage):
		// attribute as a single-block epoch.
		g.dirtied = 1
		p.WriteEpochs++
	}
	g.writebacks++
	g.closed = true
	p.WritesByClass[classify(uint(bits.OnesCount64(g.dirtied)), p.perRegion)]++
}

// OnEvict observes an LLC eviction, closing the region's read generation
// (the paper's generation boundary: first eviction of a block of the
// region) and classifying its DRAM reads by final density.
func (p *Profile) OnEvict(b mem.BlockAddr) {
	if g, ok := p.readGens.Delete(b.Region(p.regionShift)); ok {
		p.ReadsByClass[classify(uint(bits.OnesCount64(g.pattern)), p.perRegion)] += g.reads
	}
}

// OnWriteEpochEnd closes a write epoch once the region has no dirty
// blocks left in the LLC; the next store opens a fresh epoch.
func (p *Profile) OnWriteEpochEnd(b mem.BlockAddr) {
	p.writeGens.Delete(b.Region(p.regionShift))
}

// Flush closes all open generations (end of measurement).
func (p *Profile) Flush() {
	for _, g := range p.readGens.All() {
		p.ReadsByClass[classify(uint(bits.OnesCount64(g.pattern)), p.perRegion)] += g.reads
	}
	p.readGens.Clear()
	p.writeGens.Clear()
}

// Reads returns total DRAM demand reads.
func (c ProfileCounters) Reads() uint64 { return c.LoadReads + c.StoreReads }

// Accesses returns total DRAM accesses (demand reads + writes).
func (c ProfileCounters) Accesses() uint64 { return c.Reads() + c.Writes }

// IdealHitRatio returns the row-buffer hit ratio of the ideal system: all
// row-buffer locality within a region's LLC residency is exploited, so
// each read generation and write epoch costs exactly one activation.
func (c ProfileCounters) IdealHitRatio() float64 {
	acc := c.Accesses()
	gens := c.ReadGenerations + c.WriteEpochs
	if acc == 0 || gens > acc {
		return 0
	}
	return float64(acc-gens) / float64(acc)
}

// IdealActivations returns the activation count of the ideal system (one
// per read generation / write epoch), for the Fig. 13 energy bar.
func (c ProfileCounters) IdealActivations() uint64 {
	return c.ReadGenerations + c.WriteEpochs
}

// LateWriteFraction returns Table I's metric: the fraction of dirtied
// blocks that were modified after their region's first dirty eviction.
func (c ProfileCounters) LateWriteFraction() float64 {
	if c.TotalDirtyBlocks == 0 {
		return 0
	}
	return float64(c.LateDirtyBlocks) / float64(c.TotalDirtyBlocks)
}

// HighDensityReadFraction returns the share of DRAM reads to high-density
// regions (Fig. 5 R, the paper's 57-75%).
func (c ProfileCounters) HighDensityReadFraction() float64 {
	total := c.ReadsByClass[0] + c.ReadsByClass[1] + c.ReadsByClass[2]
	if total == 0 {
		return 0
	}
	return float64(c.ReadsByClass[HighDensity]) / float64(total)
}

// HighDensityWriteFraction returns the share of DRAM writes to
// high-density modified regions (Fig. 5 W, the paper's 62-86%).
func (c ProfileCounters) HighDensityWriteFraction() float64 {
	total := c.WritesByClass[0] + c.WritesByClass[1] + c.WritesByClass[2]
	if total == 0 {
		return 0
	}
	return float64(c.WritesByClass[HighDensity]) / float64(total)
}
