// Package core implements the paper's contribution: the BuMP predictor
// (Bulk Memory Access Prediction and Streaming, Section IV).
//
// BuMP sits next to the LLC and watches its access and eviction streams.
// Three structures cooperate:
//
//   - The region density tracking table (RDTT) — a trigger table for
//     regions with a single accessed block plus a density table holding an
//     accessed-block bit vector — measures each cache-resident region's
//     access density and remembers the PC+offset of the access that
//     triggered it.
//   - The bulk history table (BHT) records PC+offset tuples whose regions
//     turned out to be high-density. On an LLC read miss whose PC+offset
//     hits in the BHT, BuMP streams the entire region from DRAM (bulk
//     read).
//   - The dirty region table (DRT) records cache-resident high-density
//     modified regions that left the RDTT. On a dirty LLC eviction that
//     hits an RDTT modified high-density region or the DRT, BuMP eagerly
//     writes back the region's remaining dirty blocks (bulk write).
//
// The predictor is a decision engine only: it consumes LLC events and
// reports "stream this region" / "write this region back". Request
// generation (scanning the LLC for missing or dirty blocks) is done by the
// caller, which owns the LLC — see internal/sim and the public bump
// package's generation helpers.
package core

import (
	"fmt"

	"bump/internal/cache"
	"bump/internal/mem"
)

// Config sizes the predictor (Section IV.D: ~14KB total).
type Config struct {
	// RegionShift is log2 of the region size in bytes (default 10 = 1KB).
	RegionShift uint
	// DensityThreshold is the minimum number of accessed blocks for a
	// region to be labelled high-density (default 8 of 16 = 50%).
	DensityThreshold uint

	TriggerEntries int // 256
	DensityEntries int // 256
	BHTEntries     int // 1024
	DRTEntries     int // 1024
	Ways           int // 16 (all structures are 16-way set-associative; at most 16)

	// FullRegion disables prediction and bulk-transfers every region on
	// any LLC miss / dirty eviction (the "Full-region" strawman of
	// Fig. 8-10).
	FullRegion bool

	// Footprint stores the trained access pattern in the BHT and
	// streams only the predicted blocks instead of the whole region —
	// the SMS-style alternative the paper argues against (footprints
	// cost more storage per entry and forgo guaranteed whole-row
	// transfers). Exposed as an ablation.
	Footprint bool
}

// DefaultConfig returns the paper's configuration.
func DefaultConfig() Config {
	return Config{
		RegionShift:      mem.DefaultRegionShift,
		DensityThreshold: 8,
		TriggerEntries:   256,
		DensityEntries:   256,
		BHTEntries:       1024,
		DRTEntries:       1024,
		Ways:             16,
	}
}

// Validate checks structural parameters.
func (c Config) Validate() error {
	if c.RegionShift <= mem.BlockShift || c.RegionShift > 16 {
		return fmt.Errorf("core: region shift %d out of range", c.RegionShift)
	}
	n := mem.BlocksPerRegion(c.RegionShift)
	if n > 64 {
		return fmt.Errorf("core: regions above 64 blocks unsupported")
	}
	if c.DensityThreshold == 0 || c.DensityThreshold > n {
		return fmt.Errorf("core: threshold %d invalid for %d-block regions", c.DensityThreshold, n)
	}
	if c.Ways <= 0 || c.Ways > cache.MaxWays {
		return fmt.Errorf("core: %d ways outside 1..%d", c.Ways, cache.MaxWays)
	}
	for _, e := range []int{c.TriggerEntries, c.DensityEntries, c.BHTEntries, c.DRTEntries} {
		if e < c.Ways || e%c.Ways != 0 {
			return fmt.Errorf("core: table size %d incompatible with %d ways", e, c.Ways)
		}
	}
	return nil
}

// StorageBits returns the predictor's total storage in bits, following the
// paper's accounting (Section IV.D: RDTT 2.5KB+3KB, BHT 4.5KB, DRT 4.25KB
// ≈ 14KB for the default configuration).
func (c Config) StorageBits() int {
	blocks := int(mem.BlocksPerRegion(c.RegionShift))
	offBits := 0
	for 1<<offBits < blocks {
		offBits++
	}
	const regionTag = 26 // region address tag bits (40-bit physical space)
	const pcBits = 32    // truncated virtual PC, as in SMS
	trigger := c.TriggerEntries * (regionTag + pcBits + offBits + 1 /*dirty*/ + 1 /*valid*/)
	density := c.DensityEntries * (regionTag + pcBits + offBits + blocks + 1 + 1)
	bht := c.BHTEntries * (pcBits + offBits + 1)
	drt := c.DRTEntries * (regionTag + 1 + 1)
	return trigger + density + bht + drt
}

// Stats counts predictor events.
type Stats struct {
	// Trained regions by classification at termination.
	HighDensityRegions uint64
	LowDensityRegions  uint64
	// BHT activity.
	BHTHits   uint64
	BHTMisses uint64
	// BulkReads counts regions streamed; BulkWrites counts regions
	// eagerly written back.
	BulkReads  uint64
	BulkWrites uint64
	// DRT activity.
	DRTInserts uint64
	DRTHits    uint64
	// Terminations by cause.
	EvictTerminations    uint64
	ConflictTerminations uint64
}

type rdttEntry struct {
	pc      mem.PC
	offset  uint
	pattern uint64 // accessed-block bit vector (bit i = block i of region)
	dirty   bool
}

type drtEntry struct{}

// Predictor is the BuMP engine.
type Predictor struct {
	cfg     Config
	trigger *cache.Table[rdttEntry]
	density *cache.Table[rdttEntry]
	bht     *cache.Table[uint64] // trained footprint pattern (union)
	drt     *cache.Table[drtEntry]
	stats   Stats
}

// New builds a predictor; it panics on invalid configuration (construction
// is setup-time).
func New(cfg Config) *Predictor {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Predictor{
		cfg:     cfg,
		trigger: cache.NewTable[rdttEntry](cfg.TriggerEntries, cfg.Ways),
		density: cache.NewTable[rdttEntry](cfg.DensityEntries, cfg.Ways),
		bht:     cache.NewTable[uint64](cfg.BHTEntries, cfg.Ways),
		drt:     cache.NewTable[drtEntry](cfg.DRTEntries, cfg.Ways),
	}
}

// Config returns the configuration.
func (p *Predictor) Config() Config { return p.cfg }

// Stats returns a copy of the counters.
func (p *Predictor) Stats() Stats { return p.stats }

// RegionOf maps a block to its region under the predictor's region size.
func (p *Predictor) RegionOf(b mem.BlockAddr) mem.RegionAddr {
	return b.Region(p.cfg.RegionShift)
}

// signature combines PC and region offset into a BHT tag, mirroring the
// paper's PC,offset indexing (Section IV.B).
func (p *Predictor) signature(pc mem.PC, offset uint) uint64 {
	return uint64(pc)<<4 ^ uint64(offset)
}

func (p *Predictor) popcount(pattern uint64) uint {
	n := uint(0)
	for x := pattern; x != 0; x &= x - 1 {
		n++
	}
	return n
}

func (p *Predictor) isHighDensity(e rdttEntry) bool {
	return p.popcount(e.pattern) >= p.cfg.DensityThreshold
}

// Touch feeds one LLC demand access (hit or miss) into the RDTT
// (Section IV.B, Fig. 7). write marks store-originated accesses, which set
// the region's dirty bit (Section IV.C).
func (p *Predictor) Touch(pc mem.PC, b mem.BlockAddr, write bool) {
	if p.cfg.FullRegion {
		return // the strawman tracks nothing
	}
	region := uint64(p.RegionOf(b))
	off := b.Offset(p.cfg.RegionShift)
	bit := uint64(1) << off

	if e, ok := p.density.Lookup(region); ok {
		e.pattern |= bit
		e.dirty = e.dirty || write
		return
	}
	if e, ok := p.trigger.Lookup(region); ok {
		// Second distinct access: transfer to the density table.
		ent := *e
		p.trigger.Remove(region)
		ent.pattern |= bit
		ent.dirty = ent.dirty || write
		if vTag, vVal, displaced := p.density.Insert(region, ent); displaced {
			p.terminate(mem.RegionAddr(vTag), vVal, false)
			p.stats.ConflictTerminations++
		}
		return
	}
	// First access: allocate in the trigger table.
	ent := rdttEntry{pc: pc, offset: off, pattern: bit, dirty: write}
	// Trigger-table conflicts carry no density information; the victim
	// is dropped (it had a single accessed block: low density).
	if _, _, displaced := p.trigger.Insert(region, ent); displaced {
		p.stats.LowDensityRegions++
	}
}

// terminate runs the RDTT termination logic for a region leaving the
// density table. evictedDirtyBlock reports whether the terminating LLC
// eviction (if any) was dirty; conflicts pass false.
// It returns whether the region is modified high-density.
func (p *Predictor) terminate(region mem.RegionAddr, e rdttEntry, evictedDirtyBlock bool) (modifiedHigh bool) {
	if p.isHighDensity(e) {
		p.stats.HighDensityRegions++
		sig := p.signature(e.pc, e.offset)
		pattern := e.pattern
		if old, ok := p.bht.Lookup(sig); ok {
			pattern |= *old // footprints accumulate across generations
		}
		p.bht.Insert(sig, pattern)
		if e.dirty {
			modifiedHigh = true
			if !evictedDirtyBlock {
				// Still cache-resident (conflict) or terminated by a
				// clean eviction: remember it for a later dirty
				// eviction (Section IV.C).
				p.drt.Insert(uint64(region), drtEntry{})
				p.stats.DRTInserts++
			}
		}
	} else {
		p.stats.LowDensityRegions++
	}
	return modifiedHigh
}

// ReadMiss consults the BHT on an LLC read miss (Section IV.B). It
// returns true when the predictor wants the whole region streamed from
// memory. The caller is responsible for generating the per-block requests
// (all region blocks not already cached, except the missing block itself).
func (p *Predictor) ReadMiss(pc mem.PC, b mem.BlockAddr) bool {
	stream, _ := p.ReadMissFootprint(pc, b)
	return stream
}

// ReadMissFootprint is ReadMiss plus the predicted block pattern. With
// Config.Footprint the pattern is the trained footprint (bit i = block i
// of the region); otherwise it covers the whole region — the paper's
// design, which guarantees a full-row transfer.
func (p *Predictor) ReadMissFootprint(pc mem.PC, b mem.BlockAddr) (stream bool, pattern uint64) {
	whole := uint64(1)<<mem.BlocksPerRegion(p.cfg.RegionShift) - 1
	if p.cfg.FullRegion {
		p.stats.BulkReads++
		return true, whole
	}
	off := b.Offset(p.cfg.RegionShift)
	if pat, ok := p.bht.Lookup(p.signature(pc, off)); ok {
		p.stats.BHTHits++
		p.stats.BulkReads++
		if p.cfg.Footprint {
			return true, *pat
		}
		return true, whole
	}
	p.stats.BHTMisses++
	return false, 0
}

// Evict feeds one LLC eviction into BuMP (RDTT termination and DRT probe).
// It returns true when the predictor wants a bulk writeback of the
// evicted block's region (all remaining dirty blocks of the region).
func (p *Predictor) Evict(b mem.BlockAddr, dirty bool) (bulkWriteback bool) {
	if p.cfg.FullRegion {
		if dirty {
			p.stats.BulkWrites++
			return true
		}
		return false
	}
	region := p.RegionOf(b)
	tag := uint64(region)

	// An eviction inside an active region terminates it.
	if e, ok := p.density.Remove(tag); ok {
		p.stats.EvictTerminations++
		modifiedHigh := p.terminate(region, e, dirty)
		if modifiedHigh && dirty {
			p.stats.BulkWrites++
			return true
		}
		return false
	}
	if _, ok := p.trigger.Remove(tag); ok {
		// Single-access region: low density by definition.
		p.stats.EvictTerminations++
		p.stats.LowDensityRegions++
		return false
	}

	// Not RDTT-active: probe the DRT for a previously identified
	// high-density modified region.
	if dirty {
		if _, ok := p.drt.Remove(tag); ok {
			p.stats.DRTHits++
			p.stats.BulkWrites++
			return true
		}
	}
	return false
}

// TableLens returns the live entry counts (introspection for tests and
// the design-space study).
func (p *Predictor) TableLens() (trigger, density, bht, drt int) {
	return p.trigger.Len(), p.density.Len(), p.bht.Len(), p.drt.Len()
}
