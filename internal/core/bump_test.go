package core

import (
	"testing"
	"testing/quick"

	"bump/internal/cache"
	"bump/internal/mem"
)

const shift = mem.DefaultRegionShift

func block(region uint64, off uint) mem.BlockAddr {
	return mem.RegionAddr(region).Block(shift, off)
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config: %v", err)
	}
	for _, mut := range []func(*Config){
		func(c *Config) { c.RegionShift = 6 },
		func(c *Config) { c.RegionShift = 17 },
		func(c *Config) { c.DensityThreshold = 0 },
		func(c *Config) { c.DensityThreshold = 99 },
		func(c *Config) { c.Ways = 0 },
		func(c *Config) { c.Ways = 32 },
		func(c *Config) { c.BHTEntries = 3 },
	} {
		c := DefaultConfig()
		mut(&c)
		if c.Validate() == nil {
			t.Errorf("config %+v must be invalid", c)
		}
	}
}

func TestStorageBudgetIsRoughly14KB(t *testing.T) {
	// Section IV.D: the default configuration needs ~14KB.
	bits := DefaultConfig().StorageBits()
	kb := float64(bits) / 8 / 1024
	if kb < 10 || kb > 18 {
		t.Errorf("storage = %.1fKB, want ~14KB", kb)
	}
}

// TestAssocTable pins the table behaviour the predictor's RDTT, BHT and
// DRT build on: LRU displacement reported to the caller, overwrite in
// place, and removal.
func TestAssocTable(t *testing.T) {
	a := cache.NewTable[int](4, 2) // 2 sets x 2 ways
	if _, ok := a.Lookup(0); ok {
		t.Fatal("empty table lookup must miss")
	}
	a.Insert(0, 10)
	a.Insert(2, 20) // same set (even tags)
	if v, ok := a.Lookup(0); !ok || *v != 10 {
		t.Fatal("lookup after insert")
	}
	// Insert a third even tag: LRU (tag 2) is displaced.
	vTag, vVal, displaced := a.Insert(4, 40)
	if !displaced || vTag != 2 || vVal != 20 {
		t.Errorf("displacement = %v %d %d", displaced, vTag, vVal)
	}
	// Overwrite in place does not displace.
	if _, _, d := a.Insert(0, 11); d {
		t.Error("overwrite must not displace")
	}
	if v, _ := a.Lookup(0); *v != 11 {
		t.Error("overwrite value lost")
	}
	if v, ok := a.Remove(0); !ok || v != 11 {
		t.Error("remove")
	}
	if a.Len() != 1 {
		t.Errorf("len = %d", a.Len())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("bad geometry must panic")
			}
		}()
		cache.NewTable[int](3, 2)
	}()
}

// touchRegion replays n distinct block accesses to a region with the given
// trigger PC.
func touchRegion(p *Predictor, region uint64, pc mem.PC, n uint) {
	for i := uint(0); i < n; i++ {
		p.Touch(pc, block(region, i), false)
	}
}

func TestHighDensityRegionTrainsBHT(t *testing.T) {
	p := New(DefaultConfig())
	touchRegion(p, 1, 0x400, 12) // 12 >= 8: high density
	p.Evict(block(1, 0), false)
	if p.Stats().HighDensityRegions != 1 {
		t.Fatalf("stats = %+v", p.Stats())
	}
	// Next region first-touched by the same PC at the same offset must
	// trigger a bulk read.
	if !p.ReadMiss(0x400, block(2, 0)) {
		t.Error("trained PC,offset must predict bulk")
	}
	if p.ReadMiss(0x999, block(3, 0)) {
		t.Error("unknown PC must not predict bulk")
	}
	if p.ReadMiss(0x400, block(3, 5)) {
		t.Error("same PC at different offset must not predict bulk")
	}
	st := p.Stats()
	if st.BHTHits != 1 || st.BHTMisses != 2 || st.BulkReads != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLowDensityRegionDoesNotTrain(t *testing.T) {
	p := New(DefaultConfig())
	touchRegion(p, 1, 0x400, 3) // 3 < 8: low density
	p.Evict(block(1, 0), false)
	if p.Stats().LowDensityRegions != 1 {
		t.Errorf("stats = %+v", p.Stats())
	}
	if p.ReadMiss(0x400, block(2, 0)) {
		t.Error("low-density trigger must not train the BHT")
	}
}

func TestOffsetMisalignmentHandled(t *testing.T) {
	// A software object starting at block 3 of its region trains
	// PC,offset=3; prediction must fire for a miss at offset 3 only.
	p := New(DefaultConfig())
	for i := uint(3); i < 16; i++ { // 13 blocks from offset 3
		p.Touch(0x400, block(1, i), false)
	}
	p.Evict(block(1, 3), false)
	if !p.ReadMiss(0x400, block(2, 3)) {
		t.Error("offset-3 trigger must predict at offset 3")
	}
	if p.ReadMiss(0x400, block(2, 0)) {
		t.Error("offset-0 miss must not match offset-3 training")
	}
}

func TestSingleAccessRegionIsLowDensity(t *testing.T) {
	p := New(DefaultConfig())
	p.Touch(0x400, block(1, 0), false)
	p.Evict(block(1, 0), false)
	st := p.Stats()
	if st.LowDensityRegions != 1 || st.HighDensityRegions != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestDirtyEvictionTriggersBulkWriteback(t *testing.T) {
	p := New(DefaultConfig())
	for i := uint(0); i < 10; i++ {
		p.Touch(0x500, block(1, i), true) // stores
	}
	if !p.Evict(block(1, 0), true) {
		t.Error("dirty eviction in modified high-density region must bulk-writeback")
	}
	if p.Stats().BulkWrites != 1 {
		t.Errorf("stats = %+v", p.Stats())
	}
}

func TestCleanEvictionDefersToDRT(t *testing.T) {
	p := New(DefaultConfig())
	for i := uint(0); i < 10; i++ {
		p.Touch(0x500, block(1, i), true)
	}
	// Clean eviction terminates the region without an eager writeback
	// but records it in the DRT.
	if p.Evict(block(1, 0), false) {
		t.Error("clean eviction must not bulk-writeback")
	}
	if p.Stats().DRTInserts != 1 {
		t.Errorf("stats = %+v", p.Stats())
	}
	// The later dirty eviction hits the DRT.
	if !p.Evict(block(1, 2), true) {
		t.Error("dirty eviction must hit the DRT")
	}
	if p.Stats().DRTHits != 1 {
		t.Errorf("stats = %+v", p.Stats())
	}
	// The DRT entry is consumed.
	if p.Evict(block(1, 3), true) {
		t.Error("DRT entry must be invalidated after use")
	}
}

func TestCleanRegionNeverBulkWrites(t *testing.T) {
	p := New(DefaultConfig())
	touchRegion(p, 1, 0x400, 12) // reads only
	if p.Evict(block(1, 0), true) {
		t.Error("region without stores must not bulk-writeback")
	}
	if p.Stats().DRTInserts != 0 {
		t.Error("clean region must not enter the DRT")
	}
}

func TestDensityTableConflictTerminatesToDRTAndBHT(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TriggerEntries = 16
	cfg.DensityEntries = 16 // single set: 17th active region conflicts
	cfg.Ways = 16
	p := New(cfg)
	// Activate 16 modified high-density regions.
	for r := uint64(0); r < 16; r++ {
		for i := uint(0); i < 9; i++ {
			p.Touch(mem.PC(0x400+r), block(r, i), true)
		}
	}
	// A 17th region displaces the LRU (region 0): conflict termination.
	p.Touch(0x999, block(100, 0), false)
	p.Touch(0x999, block(100, 1), false)
	if p.Stats().ConflictTerminations != 1 {
		t.Fatalf("stats = %+v", p.Stats())
	}
	if p.Stats().DRTInserts != 1 {
		t.Errorf("conflict-terminated modified region must enter DRT: %+v", p.Stats())
	}
	// Region 0 is still cache-resident; its dirty eviction hits the DRT.
	if !p.Evict(block(0, 5), true) {
		t.Error("DRT must catch the conflict-terminated region")
	}
	// And its trigger PC,offset is trained.
	if !p.ReadMiss(0x400, block(200, 0)) {
		t.Error("conflict termination must still train the BHT")
	}
}

func TestFullRegionMode(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FullRegion = true
	p := New(cfg)
	if !p.ReadMiss(0x1, block(1, 0)) {
		t.Error("full-region must always bulk read")
	}
	if !p.Evict(block(1, 0), true) {
		t.Error("full-region must always bulk write on dirty eviction")
	}
	if p.Evict(block(1, 0), false) {
		t.Error("full-region must not bulk write on clean eviction")
	}
	p.Touch(0x1, block(1, 0), true) // must be a no-op
	tr, de, bh, dr := p.TableLens()
	if tr+de+bh+dr != 0 {
		t.Error("full-region mode must not populate tables")
	}
}

func TestThresholdBoundary(t *testing.T) {
	p := New(DefaultConfig())
	touchRegion(p, 1, 0x400, 8) // exactly at the threshold
	p.Evict(block(1, 0), false)
	if p.Stats().HighDensityRegions != 1 {
		t.Error("8 of 16 blocks (50%) must classify as high-density")
	}
	p2 := New(DefaultConfig())
	touchRegion(p2, 1, 0x400, 7)
	p2.Evict(block(1, 0), false)
	if p2.Stats().HighDensityRegions != 0 {
		t.Error("7 of 16 blocks must classify as low-density")
	}
}

func TestRepeatedTouchesCountOnce(t *testing.T) {
	p := New(DefaultConfig())
	// 20 accesses to only 2 distinct blocks: density 2, low.
	for i := 0; i < 10; i++ {
		p.Touch(0x400, block(1, 0), false)
		p.Touch(0x400, block(1, 1), false)
	}
	p.Evict(block(1, 0), false)
	if p.Stats().HighDensityRegions != 0 {
		t.Error("pattern bits must deduplicate repeated accesses")
	}
}

func TestSmallerRegionAndThreshold(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RegionShift = 9 // 512B = 8 blocks
	cfg.DensityThreshold = 4
	p := New(cfg)
	b0 := mem.RegionAddr(1).Block(9, 0)
	for i := uint(0); i < 5; i++ {
		p.Touch(0x400, mem.RegionAddr(1).Block(9, i), false)
	}
	p.Evict(b0, false)
	if p.Stats().HighDensityRegions != 1 {
		t.Error("5 of 8 blocks must be high-density at threshold 4")
	}
	if !p.ReadMiss(0x400, mem.RegionAddr(2).Block(9, 0)) {
		t.Error("prediction must work at 512B regions")
	}
}

// Property: the predictor never reports a bulk writeback for a clean
// eviction, and table occupancy never exceeds configured capacity.
func TestPredictorInvariantsProperty(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TriggerEntries = 32
	cfg.DensityEntries = 32
	cfg.BHTEntries = 64
	cfg.DRTEntries = 64
	cfg.Ways = 16
	f := func(ops []uint32) bool {
		p := New(cfg)
		for _, op := range ops {
			region := uint64(op>>8) % 64
			off := uint(op>>2) % 16
			pc := mem.PC(0x400 + uint64(op>>20)%8)
			b := block(region, off)
			switch op % 4 {
			case 0:
				p.Touch(pc, b, false)
			case 1:
				p.Touch(pc, b, true)
			case 2:
				p.ReadMiss(pc, b)
			case 3:
				if p.Evict(b, op&4 == 0) && op&4 != 0 {
					return false // bulk writeback on clean eviction
				}
			}
			tr, de, bh, dr := p.TableLens()
			if tr > cfg.TriggerEntries || de > cfg.DensityEntries || bh > cfg.BHTEntries || dr > cfg.DRTEntries {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestFootprintVariant(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Footprint = true
	p := New(cfg)
	// Train a sparse-but-dense-enough pattern: blocks 0..7 only.
	for i := uint(0); i < 8; i++ {
		p.Touch(0x400, block(1, i), false)
	}
	p.Evict(block(1, 0), false)
	stream, pattern := p.ReadMissFootprint(0x400, block(2, 0))
	if !stream {
		t.Fatal("trained signature must stream")
	}
	if pattern != 0xFF {
		t.Errorf("pattern = %#x, want 0xFF (trained footprint)", pattern)
	}
	// Without Footprint the pattern covers the whole region.
	p2 := New(DefaultConfig())
	for i := uint(0); i < 8; i++ {
		p2.Touch(0x400, block(1, i), false)
	}
	p2.Evict(block(1, 0), false)
	_, whole := p2.ReadMissFootprint(0x400, block(2, 0))
	if whole != 0xFFFF {
		t.Errorf("whole-region pattern = %#x, want 0xFFFF", whole)
	}
}

func TestFootprintAccumulatesAcrossGenerations(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Footprint = true
	p := New(cfg)
	// Generation 1: blocks 0..7. Generation 2 (same signature): 8..15
	// with trigger offset 0... must keep offset-0 trigger: touch block 0
	// then 8..15.
	for i := uint(0); i < 8; i++ {
		p.Touch(0x400, block(1, i), false)
	}
	p.Evict(block(1, 0), false)
	p.Touch(0x400, block(2, 0), false)
	for i := uint(8); i < 16; i++ {
		p.Touch(0x400, block(2, i), false)
	}
	p.Evict(block(2, 0), false)
	_, pattern := p.ReadMissFootprint(0x400, block(3, 0))
	if pattern != 0xFFFF {
		t.Errorf("accumulated pattern = %#x, want 0xFFFF", pattern)
	}
}

func TestFullRegionFootprintIsWholeRegion(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FullRegion = true
	p := New(cfg)
	stream, pattern := p.ReadMissFootprint(0x1, block(1, 0))
	if !stream || pattern != 0xFFFF {
		t.Errorf("full-region: stream=%v pattern=%#x", stream, pattern)
	}
}
