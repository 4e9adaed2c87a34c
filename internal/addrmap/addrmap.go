// Package addrmap is an open-addressed hash table keyed by simulated
// addresses (block or region numbers). The simulator keeps its
// per-region and per-block bookkeeping here: one linear probe finds a
// key's slot and the caller updates the value in place through the
// returned pointer, where a Go map needs a lookup plus an assign.
// Deletion shifts the rest of the probe run back into the hole, so the
// table never accumulates tombstones.
package addrmap

import "iter"

// minSlots is the slot count of a map's first allocation.
const minSlots = 16

// Map is a hash table from K to V. The zero value is an empty map ready
// to use. The all-ones key is reserved and cannot be stored; simulated
// block and region numbers never reach it.
//
// Pointers returned by Find and Upsert stay valid until the next Upsert
// or Delete on the map.
type Map[K ~uint64, V any] struct {
	slots []slot[K, V] // power-of-two length, at most half full
	n     int
	shift uint // 64 - log2(len(slots)): Fibonacci hashing keeps the top bits
}

type slot[K ~uint64, V any] struct {
	tag K // key + 1; zero marks an empty slot
	val V
}

// Len returns the number of keys.
func (m *Map[K, V]) Len() int { return m.n }

func (m *Map[K, V]) home(tag K) int {
	return int((uint64(tag-1) * 0x9E3779B97F4A7C15) >> m.shift)
}

// lookup returns the slot holding k, or the empty slot ending its probe
// run with found == false. The map must have slots.
func (m *Map[K, V]) lookup(k K) (i int, found bool) {
	tag := k + 1
	mask := len(m.slots) - 1
	for i = m.home(tag); ; i = (i + 1) & mask {
		switch m.slots[i].tag {
		case 0: // checked first: the reserved key's tag is 0 too
			return i, false
		case tag:
			return i, true
		}
	}
}

// Find returns a pointer to k's value, or nil if k is absent.
func (m *Map[K, V]) Find(k K) *V {
	if m.n == 0 {
		return nil
	}
	if i, ok := m.lookup(k); ok {
		return &m.slots[i].val
	}
	return nil
}

// Upsert returns a pointer to k's value, first adding k with the zero
// value if it is absent; found reports whether k was present.
func (m *Map[K, V]) Upsert(k K) (v *V, found bool) {
	if k+1 == 0 {
		panic("addrmap: the all-ones key is reserved")
	}
	if len(m.slots) == 0 {
		m.grow()
	}
	i, ok := m.lookup(k)
	if ok {
		return &m.slots[i].val, true
	}
	if 2*(m.n+1) > len(m.slots) {
		m.grow()
		i, _ = m.lookup(k)
	}
	m.slots[i].tag = k + 1
	m.n++
	return &m.slots[i].val, false
}

// grow doubles the slot array (or makes the first one) and re-inserts
// every key.
func (m *Map[K, V]) grow() {
	old := m.slots
	size := 2 * len(old)
	if size < minSlots {
		size = minSlots
	}
	m.slots = make([]slot[K, V], size)
	m.shift = 64
	for s := size; s > 1; s >>= 1 {
		m.shift--
	}
	mask := size - 1
	for _, s := range old {
		if s.tag == 0 {
			continue
		}
		i := m.home(s.tag)
		for m.slots[i].tag != 0 {
			i = (i + 1) & mask
		}
		m.slots[i] = s
	}
}

// Delete removes k, returning its value and whether it was present.
func (m *Map[K, V]) Delete(k K) (v V, found bool) {
	if m.n == 0 {
		return v, false
	}
	i, ok := m.lookup(k)
	if !ok {
		return v, false
	}
	v = m.slots[i].val
	m.n--
	// Backward-shift deletion: walk the rest of the probe run (wrapping
	// past the end of the array) and move each entry whose home lies
	// cyclically at or before the hole into it.
	mask := len(m.slots) - 1
	for j := (i + 1) & mask; m.slots[j].tag != 0; j = (j + 1) & mask {
		if (j-m.home(m.slots[j].tag))&mask >= (j-i)&mask {
			m.slots[i] = m.slots[j]
			i = j
		}
	}
	m.slots[i] = slot[K, V]{}
	return v, true
}

// Clear removes every key, keeping the slot array for reuse.
func (m *Map[K, V]) Clear() {
	clear(m.slots)
	m.n = 0
}

// All yields every key with a pointer to its value, in slot order (a
// function of the insertion history, not of the keys alone: sort the
// keys where the order must be canonical). The map must not change
// during the iteration.
func (m *Map[K, V]) All() iter.Seq2[K, *V] {
	return func(yield func(K, *V) bool) {
		for i := range m.slots {
			if s := &m.slots[i]; s.tag != 0 && !yield(s.tag-1, &s.val) {
				return
			}
		}
	}
}

// Keys yields every key, in the order All does.
func (m *Map[K, V]) Keys() iter.Seq[K] {
	return func(yield func(K) bool) {
		for k := range m.All() {
			if !yield(k) {
				return
			}
		}
	}
}
