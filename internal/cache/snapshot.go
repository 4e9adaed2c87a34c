package cache

import (
	"fmt"
	"slices"

	"bump/internal/addrmap"
	"bump/internal/mem"
	"bump/internal/snapshot"
)

// lineValid is the snapshot encoding's valid bit; a valid line's byte
// carries its Flags in the bits above it.
const lineValid = 1 << 0

// SnapshotTo serializes the cache: geometry (validated on restore), each
// set's recency word, statistics, and every line. Invalid lines collapse
// to a single zero flag byte.
func (c *Cache) SnapshotTo(w *snapshot.Writer) {
	w.Section("cache")
	w.U32(uint32(c.sets))
	w.U32(uint32(c.ways))
	SnapshotOrders(w, c.order)
	w.Any(c.stats)
	for i, t := range c.tags {
		if t == invalidTag {
			w.U8(0)
			continue
		}
		w.U8(lineValid | uint8(c.flags[i]))
		w.U64(uint64(t))
	}
}

// RestoreFrom replaces the cache's state with a snapshot's. The target
// cache must have the same geometry the snapshot was taken from.
func (c *Cache) RestoreFrom(r *snapshot.Reader) error {
	r.Section("cache")
	sets, ways := r.U32(), r.U32()
	if r.Err() != nil {
		return r.Err()
	}
	if int(sets) != c.sets || int(ways) != c.ways {
		return fmt.Errorf("cache: snapshot geometry %dx%d, cache is %dx%d", sets, ways, c.sets, c.ways)
	}
	if err := RestoreOrders(r, c.order, c.ways); err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	r.AnyInto(&c.stats)
	for i := range c.tags {
		bits := r.U8()
		if r.Err() != nil {
			return r.Err()
		}
		if bits&lineValid == 0 {
			if bits != 0 {
				return fmt.Errorf("cache: invalid line with non-zero flags %#x", bits)
			}
			c.tags[i], c.flags[i] = invalidTag, 0
			continue
		}
		f := Flags(bits &^ lineValid)
		if f&^allFlags != 0 {
			return fmt.Errorf("cache: line %d has unknown flags %#x", i, bits)
		}
		b := mem.BlockAddr(r.U64())
		if r.Err() != nil {
			return r.Err()
		}
		// A resident line must live in the set its address indexes, or
		// lookups would silently miss it after restore; and a set must
		// hold a block at most once, or lookups would see only the first
		// copy while the second could still be evicted and written back.
		set := i / c.ways
		if b == invalidTag || c.setOf(b) != set {
			return fmt.Errorf("cache: line %d holds block %#x belonging to set %d", i, uint64(b), c.setOf(b))
		}
		for j := set * c.ways; j < i; j++ {
			if c.tags[j] == b {
				return fmt.Errorf("cache: set %d holds block %#x in ways %d and %d", set, uint64(b), j-set*c.ways, i-set*c.ways)
			}
		}
		c.tags[i], c.flags[i] = b, f
	}
	return r.Err()
}

// SnapshotTo serializes the MSHR table: capacity (validated), counters,
// and the outstanding entries in ascending block order (the pool of
// recycled entries is transient and skipped).
func (t *MSHRTable) SnapshotTo(w *snapshot.Writer) {
	w.Section("mshr")
	w.U32(uint32(t.cap))
	w.U64(t.Allocs)
	w.U64(t.Merges)
	w.U64(t.Stalls)
	blocks := slices.Sorted(t.entries.Keys())
	w.U32(uint32(len(blocks)))
	for _, b := range blocks {
		e := *t.entries.Find(b)
		w.U64(uint64(b))
		w.Bool(e.Demand)
		w.U32(uint32(len(e.Waiters)))
		for _, tok := range e.Waiters {
			w.U64(tok)
		}
	}
}

// RestoreFrom replaces the table's outstanding entries with a
// snapshot's.
func (t *MSHRTable) RestoreFrom(r *snapshot.Reader) error {
	r.Section("mshr")
	capGot := r.U32()
	if r.Err() != nil {
		return r.Err()
	}
	if int(capGot) != t.cap {
		return fmt.Errorf("cache: MSHR capacity %d, table has %d", capGot, t.cap)
	}
	t.Allocs = r.U64()
	t.Merges = r.U64()
	t.Stalls = r.U64()
	n := r.Len(8 + 1 + 4)
	if r.Err() != nil {
		return r.Err()
	}
	if n > t.cap {
		return fmt.Errorf("cache: %d outstanding MSHRs exceed capacity %d", n, t.cap)
	}
	t.entries = addrmap.Map[mem.BlockAddr, *MSHR]{}
	t.pool = nil
	for i := 0; i < n; i++ {
		b := mem.BlockAddr(r.U64())
		e := &MSHR{Block: b, Demand: r.Bool()}
		nw := r.Len(8)
		if r.Err() != nil {
			return r.Err()
		}
		e.Waiters = make([]uint64, nw)
		for j := range e.Waiters {
			e.Waiters[j] = r.U64()
		}
		if b == invalidTag {
			return fmt.Errorf("cache: MSHR for reserved block %#x", uint64(b))
		}
		p, dup := t.entries.Upsert(b)
		if dup {
			return fmt.Errorf("cache: duplicate MSHR for block %#x", uint64(b))
		}
		*p = e
	}
	return r.Err()
}
