package core

import "bump/internal/cache"

// assoc is a fixed-geometry set-associative table with LRU replacement,
// shared by the RDTT's trigger and density tables, the bulk history table
// and the dirty region table. Keys are uint64 tags (region addresses or
// PC⊕offset signatures); values are small per-entry structs. Each set
// keeps one recency word (cache.Order).
type assoc[V any] struct {
	sets  int
	ways  int
	tags  []uint64
	ok    []bool
	val   []V
	order []cache.Order // per set
}

func newAssoc[V any](entries, ways int) *assoc[V] {
	if entries <= 0 || ways <= 0 || entries%ways != 0 {
		panic("core: table entries must be a positive multiple of ways")
	}
	sets := entries / ways
	if sets&(sets-1) != 0 {
		panic("core: table set count must be a power of two")
	}
	return &assoc[V]{
		sets:  sets,
		ways:  ways,
		tags:  make([]uint64, entries),
		ok:    make([]bool, entries),
		val:   make([]V, entries),
		order: cache.NewOrders(sets, ways),
	}
}

func (t *assoc[V]) setOf(tag uint64) int { return int(tag & uint64(t.sets-1)) }

// lookup returns a pointer to tag's value, touching LRU state on hit.
func (t *assoc[V]) lookup(tag uint64) (*V, bool) {
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

// insert places tag with value v, returning the displaced entry (if any)
// so the caller can run its termination logic (RDTT conflicts inform the
// BHT/DRT). The scan stops at the set's first empty way, which takes the
// entry even if tag sits in a later way.
func (t *assoc[V]) insert(tag uint64, v V) (victimTag uint64, victimVal V, displaced bool) {
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

// remove invalidates tag, returning its value.
func (t *assoc[V]) remove(tag uint64) (V, bool) {
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

// len returns the number of valid entries (test/introspection helper).
func (t *assoc[V]) len() int {
	n := 0
	for _, v := range t.ok {
		if v {
			n++
		}
	}
	return n
}
