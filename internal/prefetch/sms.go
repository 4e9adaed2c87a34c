package prefetch

import (
	"bump/internal/cache"
	"bump/internal/mem"
)

// SMS implements Spatial Memory Streaming (Somogyi et al., ISCA 2006),
// the state-of-the-art spatial prefetcher the paper compares against.
//
// SMS records, per "spatial region generation", the bit pattern of blocks
// accessed between the first access to a region and the eviction of any of
// its blocks. Patterns are stored in a pattern history table (PHT) indexed
// by the PC+offset of the generation's trigger access. On a later trigger
// (first access to an inactive region), the PHT's pattern — if any — is
// prefetched.
//
// Differences from BuMP that the paper calls out (Section II.C): SMS keys
// per-block footprints rather than whole regions, and — critically — it
// observes only load-triggered traffic: store misses and writebacks
// neither train it nor trigger streams. The simulator therefore only
// feeds loads to OnAccess (see internal/sim).
type SMS struct {
	regionShift uint

	// Active generation table: region -> accumulating pattern.
	agt map[mem.RegionAddr]*smsGen
	// agtCap bounds the AGT like the hardware's filter/accumulation
	// tables; overflowing generations are ended (trained) early.
	agtCap  int
	agtFIFO []mem.RegionAddr

	// pht is the pattern history table: trigger signature -> pattern.
	pht *cache.Table[uint64]

	// Trained counts generations committed to the PHT; Triggered counts
	// PHT hits that started a stream.
	Trained   uint64
	Triggered uint64
}

type smsGen struct {
	pc      mem.PC
	offset  uint
	pattern uint64
}

// NewSMS builds an SMS prefetcher over regions of 2^regionShift bytes
// with the given PHT geometry and active-generation capacity.
func NewSMS(regionShift uint, phtEntries, phtWays, agtCap int) *SMS {
	if agtCap <= 0 {
		panic("prefetch: AGT capacity must be positive")
	}
	return &SMS{
		regionShift: regionShift,
		agt:         make(map[mem.RegionAddr]*smsGen, agtCap),
		agtCap:      agtCap,
		pht:         cache.NewTable[uint64](phtEntries, phtWays),
	}
}

// DefaultSMS returns the LLC-side configuration used in the evaluation:
// 2K-pattern PHT over 1KB regions (roughly the 3x-BuMP storage the paper
// quotes), 128 active generations (the aggregate of the per-core filter
// and accumulation tables of the original design).
func DefaultSMS() *SMS { return NewSMS(mem.DefaultRegionShift, 2048, 16, 128) }

func (s *SMS) signature(pc mem.PC, offset uint) uint64 {
	return uint64(pc)<<4 ^ uint64(offset)
}

// OnAccess implements Prefetcher. Only load accesses should be fed here
// (the caller filters), matching SMS's load-only scope. The core id is
// ignored: SMS's prediction metadata is shared across cores, one of the
// benefits of placing it next to the LLC (Section V.A).
func (s *SMS) OnAccess(_ int, pc mem.PC, b mem.BlockAddr, miss bool) []mem.BlockAddr {
	region := b.Region(s.regionShift)
	off := b.Offset(s.regionShift)
	bit := uint64(1) << off

	if g, ok := s.agt[region]; ok {
		g.pattern |= bit
		return nil
	}

	// Trigger access: open a generation and consult the PHT.
	if len(s.agt) >= s.agtCap {
		// Retire the oldest generation early.
		old := s.agtFIFO[0]
		s.agtFIFO = s.agtFIFO[1:]
		if g, ok := s.agt[old]; ok {
			s.train(g)
			delete(s.agt, old)
		}
	}
	s.agt[region] = &smsGen{pc: pc, offset: off, pattern: bit}
	s.agtFIFO = append(s.agtFIFO, region)

	p, ok := s.pht.Lookup(s.signature(pc, off))
	if !ok {
		return nil
	}
	pattern := *p
	s.Triggered++
	var out []mem.BlockAddr
	n := mem.BlocksPerRegion(s.regionShift)
	for i := uint(0); i < n; i++ {
		if i != off && pattern&(1<<i) != 0 {
			out = append(out, region.Block(s.regionShift, i))
		}
	}
	return out
}

func (s *SMS) train(g *smsGen) {
	// Single-block generations carry no spatial information.
	if g.pattern&(g.pattern-1) == 0 {
		return
	}
	s.pht.Insert(s.signature(g.pc, g.offset), g.pattern)
	s.Trained++
}

// OnEvict implements Prefetcher: an eviction inside an active generation
// ends it and commits its pattern to the PHT.
func (s *SMS) OnEvict(b mem.BlockAddr) {
	region := b.Region(s.regionShift)
	g, ok := s.agt[region]
	if !ok {
		return
	}
	s.train(g)
	delete(s.agt, region)
	for i, r := range s.agtFIFO {
		if r == region {
			s.agtFIFO = append(s.agtFIFO[:i], s.agtFIFO[i+1:]...)
			break
		}
	}
}

// ActiveGenerations returns the AGT occupancy (introspection).
func (s *SMS) ActiveGenerations() int { return len(s.agt) }
