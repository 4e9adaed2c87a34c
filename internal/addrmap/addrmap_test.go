package addrmap

import (
	"maps"
	"slices"
	"testing"
)

// checkAgainst fails unless m holds exactly ref's keys and values, every
// key reachable by probing from its home slot.
func checkAgainst(t *testing.T, m *Map[uint64, uint64], ref map[uint64]uint64) {
	t.Helper()
	if m.Len() != len(ref) {
		t.Fatalf("Len = %d, reference has %d", m.Len(), len(ref))
	}
	seen := 0
	for k, v := range m.All() {
		seen++
		want, ok := ref[k]
		if !ok || *v != want {
			t.Fatalf("iteration yields %d=%d, reference has %d (present %v)", k, *v, want, ok)
		}
		if p := m.Find(k); p != v {
			t.Fatalf("Find(%d) does not reach the slot iteration yields", k)
		}
	}
	if seen != len(ref) {
		t.Fatalf("iteration yields %d keys, reference has %d", seen, len(ref))
	}
	if len(m.slots) > 0 && 2*m.n > len(m.slots) {
		t.Fatalf("%d keys in %d slots exceeds the load bound", m.n, len(m.slots))
	}
}

func TestZeroValueAndBasics(t *testing.T) {
	var m Map[uint64, uint64]
	if m.Len() != 0 || m.Find(7) != nil {
		t.Fatal("zero map is not empty")
	}
	if _, ok := m.Delete(7); ok {
		t.Fatal("Delete on an empty map reports a key")
	}
	v, found := m.Upsert(7)
	if found || *v != 0 {
		t.Fatalf("first Upsert: found=%v value=%d", found, *v)
	}
	*v = 41
	v, found = m.Upsert(7)
	if !found || *v != 41 {
		t.Fatalf("second Upsert: found=%v value=%d", found, *v)
	}
	*v++
	if p := m.Find(7); p == nil || *p != 42 {
		t.Fatal("in-place update lost")
	}
	if got, ok := m.Delete(7); !ok || got != 42 || m.Len() != 0 || m.Find(7) != nil {
		t.Fatalf("Delete = %d, %v; Len %d", got, ok, m.Len())
	}
	// Key 0 is an ordinary key: the stored tag, not the key, marks empty slots.
	*must(m.Upsert(0)) = 5
	if p := m.Find(0); p == nil || *p != 5 {
		t.Fatal("key 0 not stored")
	}
}

func must(v *uint64, _ bool) *uint64 { return v }

func TestReservedKey(t *testing.T) {
	var m Map[uint64, uint64]
	m.Upsert(1)
	if m.Find(^uint64(0)) != nil {
		t.Error("Find of the reserved key matched an empty slot")
	}
	if _, ok := m.Delete(^uint64(0)); ok {
		t.Error("Delete of the reserved key reported a key")
	}
	defer func() {
		if recover() == nil {
			t.Error("Upsert of the reserved key must panic")
		}
	}()
	m.Upsert(^uint64(0))
}

func TestGrowKeepsEveryKey(t *testing.T) {
	var m Map[uint64, uint64]
	ref := map[uint64]uint64{}
	for k := uint64(0); k < 5000; k++ {
		key := k * 1024 // region-like strides
		*must(m.Upsert(key)) = k
		ref[key] = k
	}
	checkAgainst(t, &m, ref)
	for k := uint64(0); k < 5000; k += 3 {
		delete(ref, k*1024)
		m.Delete(k * 1024)
	}
	checkAgainst(t, &m, ref)
	m.Clear()
	checkAgainst(t, &m, map[uint64]uint64{})
}

// TestDeleteWrapsAround builds a probe run that starts in the last slot
// and wraps to the front, then deletes from it: backward shift must move
// the wrapped entries across the end of the array.
func TestDeleteWrapsAround(t *testing.T) {
	var m Map[uint64, uint64]
	m.grow() // minSlots, empty
	last := len(m.slots) - 1
	var keys []uint64
	for k := uint64(0); len(keys) < 3; k++ {
		if m.home(k+1) == last {
			keys = append(keys, k)
		}
	}
	ref := map[uint64]uint64{}
	for i, k := range keys {
		*must(m.Upsert(k)) = uint64(i)
		ref[k] = uint64(i)
	}
	if m.slots[0].tag != keys[1]+1 || m.slots[1].tag != keys[2]+1 {
		t.Fatalf("probe run did not wrap: slots %v", m.slots)
	}
	m.Delete(keys[0])
	delete(ref, keys[0])
	if m.slots[last].tag != keys[1]+1 || m.slots[0].tag != keys[2]+1 || m.slots[1].tag != 0 {
		t.Fatalf("backward shift did not wrap: slots %v", m.slots)
	}
	checkAgainst(t, &m, ref)
}

func TestKeysSorted(t *testing.T) {
	var m Map[uint64, struct{}]
	for _, k := range []uint64{9, 3, 27, 1} {
		m.Upsert(k)
	}
	if got := slices.Sorted(m.Keys()); !slices.Equal(got, []uint64{1, 3, 9, 27}) {
		t.Errorf("Keys = %v", got)
	}
}

// FuzzMap runs an op stream through the map and a Go map side by side.
// Each op is two bytes: the op, then a key drawn from a small space (so
// deletes hit, and probe runs collide and wrap in small tables).
func FuzzMap(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0, 3, 2, 1, 4, 0})
	f.Add([]byte{0, 200, 0, 17, 1, 17, 2, 200, 3, 17, 4, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var m Map[uint64, uint64]
		ref := map[uint64]uint64{}
		for i := 0; i+1 < len(ops); i += 2 {
			k := uint64(ops[i+1])
			switch ops[i] % 5 {
			case 0: // insert or overwrite
				v, found := m.Upsert(k)
				if _, ok := ref[k]; ok != found {
					t.Fatalf("op %d: Upsert(%d) found=%v, reference %v", i/2, k, found, ok)
				}
				*v = uint64(i)
				ref[k] = uint64(i)
			case 1: // update in place if present
				if v := m.Find(k); v != nil {
					*v++
					ref[k]++
				} else if _, ok := ref[k]; ok {
					t.Fatalf("op %d: Find(%d) missed a present key", i/2, k)
				}
			case 2:
				got, found := m.Delete(k)
				want, ok := ref[k]
				if found != ok || got != want {
					t.Fatalf("op %d: Delete(%d) = %d,%v, reference %d,%v", i/2, k, got, found, want, ok)
				}
				delete(ref, k)
			case 3:
				v := m.Find(k)
				want, ok := ref[k]
				if (v != nil) != ok || (v != nil && *v != want) {
					t.Fatalf("op %d: Find(%d) disagrees with the reference", i/2, k)
				}
			case 4:
				checkAgainst(t, &m, ref)
				if got, want := slices.Sorted(m.Keys()), slices.Sorted(maps.Keys(ref)); !slices.Equal(got, want) {
					t.Fatalf("op %d: Keys = %v, reference %v", i/2, got, want)
				}
			}
			if m.Len() != len(ref) {
				t.Fatalf("op %d: Len = %d, reference %d", i/2, m.Len(), len(ref))
			}
		}
		checkAgainst(t, &m, ref)
	})
}
