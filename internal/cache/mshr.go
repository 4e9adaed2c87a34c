package cache

import (
	"iter"

	"bump/internal/addrmap"
	"bump/internal/mem"
)

// MSHR is one miss-status holding register: an outstanding fill and the
// demand accesses coalesced onto it.
type MSHR struct {
	Block mem.BlockAddr
	// Demand reports whether any waiter is a demand access (a pure
	// prefetch MSHR can be upgraded when a demand access merges).
	Demand bool
	// Waiters are opaque tokens (the simulator stores continuation IDs).
	Waiters []uint64
}

// MSHRTable tracks outstanding misses with a bounded number of entries,
// modelling the 10 L1-D MSHRs of Table II and the LLC's fill queue. The
// index grows with the live entries, not with the capacity: the LLC's
// fill queue is bounded at 65,536 but holds hundreds.
type MSHRTable struct {
	cap     int
	entries addrmap.Map[mem.BlockAddr, *MSHR]
	// pool recycles completed entries (and their Waiters backing arrays)
	// so steady-state miss traffic allocates nothing.
	pool []*MSHR

	// Allocs counts successful allocations; Merges counts accesses
	// coalesced onto an existing entry; Stalls counts rejected
	// allocations (structure full).
	Allocs uint64
	Merges uint64
	Stalls uint64
}

// NewMSHRTable creates a table with the given capacity.
func NewMSHRTable(capacity int) *MSHRTable {
	if capacity <= 0 {
		panic("cache: MSHR capacity must be positive")
	}
	return &MSHRTable{cap: capacity}
}

// Cap returns the capacity.
func (t *MSHRTable) Cap() int { return t.cap }

// Len returns the number of outstanding entries.
func (t *MSHRTable) Len() int { return t.entries.Len() }

// Full reports whether a new allocation would be rejected.
func (t *MSHRTable) Full() bool { return t.entries.Len() >= t.cap }

// Lookup returns the outstanding entry for block b, if any.
func (t *MSHRTable) Lookup(b mem.BlockAddr) (*MSHR, bool) {
	if p := t.entries.Find(b); p != nil {
		return *p, true
	}
	return nil, false
}

// Allocate records a miss on block b. If an entry already exists the
// request merges onto it and merged == true. If the table is full and no
// entry exists, ok == false and the caller must retry later.
func (t *MSHRTable) Allocate(b mem.BlockAddr, demand bool, waiter uint64) (m *MSHR, merged, ok bool) {
	var p **MSHR
	if t.Full() { // only a merge can succeed
		if p = t.entries.Find(b); p == nil {
			t.Stalls++
			return nil, false, false
		}
	} else if p, merged = t.entries.Upsert(b); !merged {
		*p = t.newEntry(b, demand, waiter)
		t.Allocs++
		return *p, false, true
	}
	e := *p
	t.Merges++
	e.Demand = e.Demand || demand
	e.Waiters = append(e.Waiters, waiter)
	return e, true, true
}

func (t *MSHRTable) newEntry(b mem.BlockAddr, demand bool, waiter uint64) *MSHR {
	var e *MSHR
	if n := len(t.pool); n > 0 {
		e = t.pool[n-1]
		t.pool = t.pool[:n-1]
		e.Block, e.Demand, e.Waiters = b, demand, e.Waiters[:0]
	} else {
		e = &MSHR{Block: b, Demand: demand}
	}
	if waiter != 0 {
		e.Waiters = append(e.Waiters, waiter)
	}
	return e
}

// All yields every outstanding entry, in no particular order.
func (t *MSHRTable) All() iter.Seq[*MSHR] {
	return func(yield func(*MSHR) bool) {
		for _, e := range t.entries.All() {
			if !yield(*e) {
				return
			}
		}
	}
}

// Complete removes and returns the entry for block b when its fill
// arrives. Returns false if no entry is outstanding.
func (t *MSHRTable) Complete(b mem.BlockAddr) (*MSHR, bool) {
	return t.entries.Delete(b)
}

// Release returns a completed entry to the table's pool for reuse. The
// caller must be finished with the entry and its Waiters slice; callers
// that retain completed entries simply skip Release and let the GC have
// them.
func (t *MSHRTable) Release(e *MSHR) { t.pool = append(t.pool, e) }
