package cache

import (
	"fmt"

	"bump/internal/snapshot"
)

// Table is a fixed-geometry set-associative table with LRU replacement:
// the BuMP predictor's trigger, density, bulk history and dirty region
// tables, and the SMS pattern history table. Keys are uint64 tags
// (region addresses or PC⊕offset signatures) whose low bits pick the
// set; values are small per-entry structs. Each set keeps one recency
// word (Order).
type Table[V any] struct {
	sets  int
	ways  int
	tags  []uint64
	ok    []bool
	val   []V
	order []Order // per set
}

// NewTable returns an empty table of entries/ways sets. It panics unless
// entries is a positive multiple of ways, the set count is a power of
// two and ways is at most MaxWays.
func NewTable[V any](entries, ways int) *Table[V] {
	if entries <= 0 || ways <= 0 || entries%ways != 0 {
		panic("cache: table entries must be a positive multiple of ways")
	}
	sets := entries / ways
	if sets&(sets-1) != 0 {
		panic("cache: table set count must be a power of two")
	}
	return &Table[V]{
		sets:  sets,
		ways:  ways,
		tags:  make([]uint64, entries),
		ok:    make([]bool, entries),
		val:   make([]V, entries),
		order: NewOrders(sets, ways),
	}
}

func (t *Table[V]) setOf(tag uint64) int { return int(tag & uint64(t.sets-1)) }

// Lookup returns a pointer to tag's value, making it the set's most
// recently used entry on a hit.
func (t *Table[V]) Lookup(tag uint64) (*V, bool) {
	s := t.setOf(tag)
	base := s * t.ways
	for i := base; i < base+t.ways; i++ {
		if t.ok[i] && t.tags[i] == tag {
			t.order[s].Touch(i - base)
			return &t.val[i], true
		}
	}
	return nil, false
}

// Insert places tag with value v in the set's first way that is empty
// or holds tag, else in its least recently used way, and returns the
// displaced entry (if any) so the caller can run its termination logic
// (RDTT conflicts inform the BHT/DRT). The scan stops at the first
// empty way, which takes the entry even if tag sits in a later way.
func (t *Table[V]) Insert(tag uint64, v V) (victimTag uint64, victimVal V, displaced bool) {
	s := t.setOf(tag)
	base := s * t.ways
	victim := -1
	for i := base; i < base+t.ways; i++ {
		if t.ok[i] && t.tags[i] == tag {
			// Overwrite in place.
			t.val[i] = v
			t.order[s].Touch(i - base)
			return 0, victimVal, false
		}
		if !t.ok[i] {
			victim = i
			break
		}
	}
	if victim < 0 { // full set: the least recently used entry goes
		victim = base + t.order[s].LRU(t.ways)
		victimTag, victimVal, displaced = t.tags[victim], t.val[victim], true
	}
	t.tags[victim] = tag
	t.ok[victim] = true
	t.val[victim] = v
	t.order[s].Touch(victim - base)
	return victimTag, victimVal, displaced
}

// Remove invalidates tag, returning its value.
func (t *Table[V]) Remove(tag uint64) (V, bool) {
	var zero V
	s := t.setOf(tag)
	for i := s * t.ways; i < (s+1)*t.ways; i++ {
		if t.ok[i] && t.tags[i] == tag {
			v := t.val[i]
			t.ok[i] = false
			t.val[i] = zero
			return v, true
		}
	}
	return zero, false
}

// Len returns the number of valid entries.
func (t *Table[V]) Len() int {
	n := 0
	for _, v := range t.ok {
		if v {
			n++
		}
	}
	return n
}

// SnapshotTo serializes the table: geometry, each set's recency word,
// and every entry as a valid byte, then the tag and enc's encoding of
// the value. Invalid ways collapse to the single zero byte (their stale
// tags are unreachable).
func (t *Table[V]) SnapshotTo(w *snapshot.Writer, enc func(*snapshot.Writer, V)) {
	w.U32(uint32(t.sets))
	w.U32(uint32(t.ways))
	SnapshotOrders(w, t.order)
	for i := range t.tags {
		if !t.ok[i] {
			w.Bool(false)
			continue
		}
		w.Bool(true)
		w.U64(t.tags[i])
		enc(w, t.val[i])
	}
}

// RestoreFrom replaces the table's state with a snapshot's, decoding
// values with dec. The table must have the snapshot's geometry, and
// every entry must sit in its tag's set.
func (t *Table[V]) RestoreFrom(r *snapshot.Reader, dec func(*snapshot.Reader) V) error {
	sets, ways := r.U32(), r.U32()
	if r.Err() != nil {
		return r.Err()
	}
	if int(sets) != t.sets || int(ways) != t.ways {
		return fmt.Errorf("cache: table geometry %dx%d, have %dx%d", sets, ways, t.sets, t.ways)
	}
	if err := RestoreOrders(r, t.order, t.ways); err != nil {
		return fmt.Errorf("cache: table %w", err)
	}
	var zero V
	for i := range t.tags {
		ok := r.Bool()
		if r.Err() != nil {
			return r.Err()
		}
		t.ok[i] = ok
		if !ok {
			t.tags[i], t.val[i] = 0, zero
			continue
		}
		t.tags[i] = r.U64()
		t.val[i] = dec(r)
		if r.Err() == nil && t.setOf(t.tags[i]) != i/t.ways {
			return fmt.Errorf("cache: table entry %d holds tag %#x belonging to set %d", i, t.tags[i], t.setOf(t.tags[i]))
		}
	}
	return r.Err()
}
