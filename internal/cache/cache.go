// Package cache implements the set-associative caches of the simulated
// CMP: per-core L1-D caches and the shared, banked last-level cache (LLC).
//
// The cache is a pure state container — lookup, fill, eviction, dirty
// tracking, LRU replacement — with no notion of time. Latency, banking
// conflicts and MSHR occupancy are imposed by the simulator driving it.
// Each line carries the state bits BuMP and the statistics need: whether
// it is dirty, whether the fill was a prefetch/bulk transfer, and whether
// a demand access referenced it after the fill (overfetch accounting,
// Fig. 8).
//
// The state is laid out struct-of-arrays: a tag array that lookups and
// region scans read (a 16-way set's tags span two host cache lines), one
// flag byte per line, and one recency word per set (Order) that hits and
// fills update and only the fill's victim search reads.
package cache

import (
	"fmt"

	"bump/internal/mem"
)

// invalidTag marks an empty way. Block addresses are byte addresses
// shifted right by mem.BlockShift, so no block reaches it.
const invalidTag = ^mem.BlockAddr(0)

// Flags are a line's state bits. Checkpoints store them as they are, with
// the snapshot encoding's valid bit in bit 0, so renumbering them changes
// the snapshot format.
type Flags uint8

// Line state bits.
const (
	// Dirty marks a line modified since its fill or its last eager
	// writeback.
	Dirty Flags = 1 << (iota + 1)
	// Prefetched marks lines filled by a prefetcher or bulk transfer
	// rather than a demand miss.
	Prefetched
	// Referenced marks lines touched by a demand access since fill; a
	// Prefetched line evicted without Referenced is overfetch.
	Referenced
	// Cleaned marks lines whose dirty data was written back eagerly
	// (VWQ / BuMP bulk writes) while staying resident; re-dirtying such
	// a line means the eager writeback was premature (Fig. 8's "extra
	// writebacks").
	Cleaned

	allFlags = Dirty | Prefetched | Referenced | Cleaned
)

// Line is a copy of one resident line's state.
type Line struct {
	Block mem.BlockAddr
	Flags Flags
}

// Eviction describes the victim displaced by a fill.
type Eviction struct {
	// Valid reports whether a valid line was displaced.
	Valid bool
	// Line is a copy of the displaced line's state.
	Line Line
}

// Way names one line of the cache: its index in the set-major line
// arrays. NoWay is a miss. A Way stays valid until the next Fill or
// Invalidate in its set.
type Way int

// NoWay is the Way of a block that is not resident.
const NoWay Way = -1

// Stats aggregates the cache's event counters.
type Stats struct {
	Lookups     uint64
	Hits        uint64
	Misses      uint64
	Fills       uint64
	Evictions   uint64
	DirtyEvicts uint64
	// PrefetchUnused counts prefetched/bulk lines evicted without any
	// demand reference (overfetch at the LLC level).
	PrefetchUnused uint64
	// PrefetchUsed counts prefetched/bulk lines that a demand access hit.
	PrefetchUsed uint64
}

// Cache is a set-associative, write-back, write-allocate cache with LRU
// replacement.
type Cache struct {
	sets int
	ways int
	// Per-line state, sets*ways entries each, set-major.
	tags  []mem.BlockAddr // invalidTag for an empty way
	flags []Flags
	order []Order // per set
	stats Stats
}

// New builds a cache of totalBytes capacity with the given associativity,
// at most MaxWays. totalBytes must be a multiple of ways*mem.BlockBytes
// and the resulting set count must be a power of two (matching real
// indexing hardware).
func New(totalBytes, ways int) *Cache {
	if ways <= 0 {
		panic("cache: ways must be positive")
	}
	blocks := totalBytes / mem.BlockBytes
	if blocks*mem.BlockBytes != totalBytes {
		panic("cache: size must be a multiple of the block size")
	}
	sets := blocks / ways
	if sets == 0 || sets*ways != blocks {
		panic("cache: size must be a multiple of ways*blockBytes")
	}
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d must be a power of two", sets))
	}
	c := &Cache{
		sets:  sets,
		ways:  ways,
		tags:  make([]mem.BlockAddr, blocks),
		flags: make([]Flags, blocks),
		order: NewOrders(sets, ways),
	}
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	return c
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// Stats returns a copy of the event counters.
func (c *Cache) Stats() Stats { return c.stats }

func (c *Cache) setOf(b mem.BlockAddr) int { return int(uint64(b) & uint64(c.sets-1)) }

// find returns the Way holding block b, touching no state.
func (c *Cache) find(b mem.BlockAddr) Way {
	base := c.setOf(b) * c.ways
	for i, t := range c.tags[base : base+c.ways] {
		if t == b {
			return Way(base + i)
		}
	}
	return NoWay
}

// Lookup finds the line holding block b, returning NoWay on a miss. When
// touch is true the access updates LRU state, marks the line Referenced,
// and counts in hit/miss statistics; probe-only lookups (touch == false)
// leave all state intact.
func (c *Cache) Lookup(b mem.BlockAddr, touch bool) Way {
	w := c.find(b)
	if !touch {
		return w
	}
	c.stats.Lookups++
	if w == NoWay {
		c.stats.Misses++
		return NoWay
	}
	c.stats.Hits++
	s := c.setOf(b)
	c.order[s].Touch(int(w) - s*c.ways)
	f := c.flags[w]
	if f&(Prefetched|Referenced) == Prefetched {
		c.stats.PrefetchUsed++
	}
	c.flags[w] = f | Referenced
	return w
}

// Contains reports whether block b is resident, without touching any state.
func (c *Cache) Contains(b mem.BlockAddr) bool { return c.find(b) != NoWay }

// Flags returns the state bits of the line at w.
func (c *Cache) Flags(w Way) Flags { return c.flags[w] }

// SetFlags replaces the state bits of the line at w.
func (c *Cache) SetFlags(w Way, f Flags) { c.flags[w] = f }

// Fill inserts block b, evicting the LRU line of its set if necessary, and
// returns the new line plus the eviction record. Filling a block that is
// already resident refreshes its LRU position and keeps its state bits.
func (c *Cache) Fill(b mem.BlockAddr, prefetched bool) (Way, Eviction) {
	if b == invalidTag {
		panic(fmt.Sprintf("cache: block %#x is reserved", uint64(b)))
	}
	c.stats.Fills++
	s := c.setOf(b)
	base := s * c.ways
	tags := c.tags[base : base+c.ways]
	order := &c.order[s]
	victim := -1
	for i, t := range tags {
		if t == b { // already resident: refresh
			order.Touch(i)
			return Way(base + i), Eviction{}
		}
		if t == invalidTag && victim < 0 {
			victim = i
		}
	}
	if victim < 0 { // full set: the least recently used line goes
		victim = order.LRU(c.ways)
	}
	w := base + victim
	var ev Eviction
	if tags[victim] != invalidTag {
		ev = Eviction{Valid: true, Line: Line{Block: tags[victim], Flags: c.flags[w]}}
		c.noteEvict(c.flags[w])
	}
	order.Touch(victim)
	tags[victim] = b
	c.flags[w] = 0
	if prefetched {
		c.flags[w] = Prefetched
	}
	return Way(w), ev
}

func (c *Cache) noteEvict(f Flags) {
	c.stats.Evictions++
	if f&Dirty != 0 {
		c.stats.DirtyEvicts++
	}
	if f&(Prefetched|Referenced) == Prefetched {
		c.stats.PrefetchUnused++
	}
}

// Invalidate removes block b, returning a copy of the removed line. Used
// for eager writeback mechanisms that clean or remove blocks out of band.
func (c *Cache) Invalidate(b mem.BlockAddr) (Line, bool) {
	w := c.find(b)
	if w == NoWay {
		return Line{}, false
	}
	l := Line{Block: b, Flags: c.flags[w]}
	c.noteEvict(l.Flags)
	c.tags[w], c.flags[w] = invalidTag, 0
	return l, true
}

// CleanBlock clears the dirty bit of block b if resident, returning whether
// the block was dirty. Eager writeback (VWQ, BuMP bulk writes) uses this to
// write back blocks without evicting them.
func (c *Cache) CleanBlock(b mem.BlockAddr) (wasDirty bool) {
	w := c.find(b)
	if w == NoWay || c.flags[w]&Dirty == 0 {
		return false
	}
	c.flags[w] = c.flags[w]&^Dirty | Cleaned
	return true
}

// DirtyBlocksInRegion returns the resident dirty blocks of region r in
// ascending block order. BuMP's writeback generation logic and VWQ's
// adjacent-block search both scan the LLC this way.
func (c *Cache) DirtyBlocksInRegion(r mem.RegionAddr, regionShift uint) []mem.BlockAddr {
	return c.AppendDirtyBlocksInRegion(nil, r, regionShift)
}

// AppendDirtyBlocksInRegion is DirtyBlocksInRegion into a caller-supplied
// buffer (typically a reused scratch slice), avoiding a per-scan
// allocation on the bulk-writeback path.
func (c *Cache) AppendDirtyBlocksInRegion(dst []mem.BlockAddr, r mem.RegionAddr, regionShift uint) []mem.BlockAddr {
	n := mem.BlocksPerRegion(regionShift)
	for i := uint(0); i < n; i++ {
		b := r.Block(regionShift, i)
		if w := c.find(b); w != NoWay && c.flags[w]&Dirty != 0 {
			dst = append(dst, b)
		}
	}
	return dst
}

// MissingBlocksInRegion returns region r's blocks that are not resident, in
// ascending order, excluding the block `except` (the demand trigger).
// BuMP's access generation logic uses it to build a bulk read.
func (c *Cache) MissingBlocksInRegion(r mem.RegionAddr, regionShift uint, except mem.BlockAddr) []mem.BlockAddr {
	return c.AppendMissingBlocksInRegion(nil, r, regionShift, except)
}

// AppendMissingBlocksInRegion is MissingBlocksInRegion into a
// caller-supplied buffer (typically a reused scratch slice), avoiding a
// per-scan allocation on the bulk-read generation path.
func (c *Cache) AppendMissingBlocksInRegion(dst []mem.BlockAddr, r mem.RegionAddr, regionShift uint, except mem.BlockAddr) []mem.BlockAddr {
	n := mem.BlocksPerRegion(regionShift)
	for i := uint(0); i < n; i++ {
		b := r.Block(regionShift, i)
		if b != except && c.find(b) == NoWay {
			dst = append(dst, b)
		}
	}
	return dst
}
