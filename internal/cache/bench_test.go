package cache

import (
	"math/rand"
	"testing"

	"bump/internal/mem"
)

// Layer microbenchmarks at the paper's LLC geometry (Table II: 4 MB,
// 16-way, 64-byte blocks). The block stream is seeded and spans twice
// the LLC's capacity, so about half the lookups hit and every fill into
// a full set evicts.
const (
	benchLLCBytes = 4 << 20
	benchLLCWays  = 16
	benchStream   = 1 << 16 // blocks in the pre-drawn stream
)

func benchBlocks() []mem.BlockAddr {
	rng := rand.New(rand.NewSource(1))
	span := 2 * benchLLCBytes / mem.BlockBytes
	out := make([]mem.BlockAddr, benchStream)
	for i := range out {
		out[i] = mem.BlockAddr(rng.Intn(span))
	}
	return out
}

// warmLLC returns an LLC filled from the stream, a quarter of its lines
// dirty, plus the stream.
func warmLLC() (*Cache, []mem.BlockAddr) {
	c, blocks := New(benchLLCBytes, benchLLCWays), benchBlocks()
	for _, b := range blocks {
		if w, _ := c.Fill(b, false); b&3 == 0 {
			c.SetFlags(w, Dirty)
		}
	}
	return c, blocks
}

func BenchmarkLLCLookup(b *testing.B) {
	c, blocks := warmLLC()
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		c.Lookup(blocks[i%benchStream], true)
		i++
	}
}

func BenchmarkLLCFill(b *testing.B) {
	c, blocks := warmLLC()
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		c.Fill(blocks[i%benchStream], i&7 == 0)
		i++
	}
}

// BenchmarkLLCRegionScan times BuMP's two region scans over the default
// 1 KB region of each stream block: the missing-block scan that builds a
// bulk read and the dirty-block scan that builds a bulk writeback.
func BenchmarkLLCRegionScan(b *testing.B) {
	const shift = mem.DefaultRegionShift
	c, blocks := warmLLC()
	scratch := make([]mem.BlockAddr, 0, mem.BlocksPerRegion(shift))
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		blk := blocks[i%benchStream]
		r := blk.Region(shift)
		scratch = c.AppendMissingBlocksInRegion(scratch[:0], r, shift, blk)
		scratch = c.AppendDirtyBlocksInRegion(scratch[:0], r, shift)
		i++
	}
}
