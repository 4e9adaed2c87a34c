package cache

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"bump/internal/snapshot"
)

// refAssoc is Table as it was before the per-set recency word: an LRU
// stamp per entry and a global tick, victim = the smallest stamp. It is
// the reference the differential test drives side by side with Table.
type refAssoc struct {
	sets, ways int
	tags       []uint64
	ok         []bool
	val        []int
	use        []uint64
	tick       uint64
}

func newRefAssoc(entries, ways int) *refAssoc {
	return &refAssoc{
		sets: entries / ways, ways: ways,
		tags: make([]uint64, entries), ok: make([]bool, entries),
		val: make([]int, entries), use: make([]uint64, entries),
	}
}

func (t *refAssoc) setOf(tag uint64) int { return int(tag & uint64(t.sets-1)) }

func (t *refAssoc) lookup(tag uint64) (*int, bool) {
	s := t.setOf(tag)
	for i := s * t.ways; i < (s+1)*t.ways; i++ {
		if t.ok[i] && t.tags[i] == tag {
			t.tick++
			t.use[i] = t.tick
			return &t.val[i], true
		}
	}
	return nil, false
}

func (t *refAssoc) insert(tag uint64, v int) (victimTag uint64, victimVal int, displaced bool) {
	s := t.setOf(tag)
	victim := s * t.ways
	for i := s * t.ways; i < (s+1)*t.ways; i++ {
		if t.ok[i] && t.tags[i] == tag {
			t.tick++
			t.val[i] = v
			t.use[i] = t.tick
			return 0, victimVal, false
		}
		if !t.ok[i] {
			victim = i
			break
		}
		if t.use[i] < t.use[victim] {
			victim = i
		}
	}
	if t.ok[victim] {
		victimTag, victimVal, displaced = t.tags[victim], t.val[victim], true
	}
	t.tick++
	t.tags[victim], t.ok[victim], t.val[victim], t.use[victim] = tag, true, v, t.tick
	return victimTag, victimVal, displaced
}

// emptyBefore reports whether tag's set has an empty way before a way
// holding tag, where insert takes the empty way and leaves tag twice.
func (t *refAssoc) emptyBefore(tag uint64) bool {
	s := t.setOf(tag)
	empty := false
	for i := s * t.ways; i < (s+1)*t.ways; i++ {
		if !t.ok[i] {
			empty = true
		} else if t.tags[i] == tag {
			return empty
		}
	}
	return false
}

func (t *refAssoc) remove(tag uint64) (int, bool) {
	s := t.setOf(tag)
	for i := s * t.ways; i < (s+1)*t.ways; i++ {
		if t.ok[i] && t.tags[i] == tag {
			v := t.val[i]
			t.ok[i], t.val[i] = false, 0
			return v, true
		}
	}
	return 0, false
}

// sameSet fails unless set s holds the same entries in the same ways in
// both tables and its recency word ranks the valid ways as the
// reference's stamps do, most recent first.
func sameSet(a *Table[int], ref *refAssoc, s int) error {
	var want, got []int
	for i := s * a.ways; i < (s+1)*a.ways; i++ {
		if a.ok[i] != ref.ok[i] || a.ok[i] && (a.tags[i] != ref.tags[i] || a.val[i] != ref.val[i]) {
			return fmt.Errorf("entry %d: %v %#x=%d, reference %v %#x=%d", i, a.ok[i], a.tags[i], a.val[i], ref.ok[i], ref.tags[i], ref.val[i])
		}
		if ref.ok[i] {
			want = append(want, i-s*a.ways)
		}
	}
	slices.SortFunc(want, func(x, y int) int { return cmp.Compare(ref.use[s*a.ways+y], ref.use[s*a.ways+x]) })
	for k := 0; k < a.ways; k++ {
		if w := int(a.order[s] >> (4 * k) & 0xF); ref.ok[s*a.ways+w] {
			got = append(got, w)
		}
	}
	if !slices.Equal(got, want) {
		return fmt.Errorf("set %d: recency word %#x ranks valid ways %v, reference stamps rank %v", s, uint64(a.order[s]), got, want)
	}
	return nil
}

// roundTrip encodes a, restores it into a fresh table of the same
// geometry, checks the copy re-encodes to the same bytes, and returns it.
func roundTrip(t *testing.T, a *Table[int], entries int) *Table[int] {
	t.Helper()
	enc := func(w *snapshot.Writer, v int) { w.I64(int64(v)) }
	encode := func(a *Table[int]) []byte {
		w := snapshot.NewWriter()
		a.SnapshotTo(w, enc)
		var buf bytes.Buffer
		if err := w.Flush(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	data := encode(a)
	r, err := snapshot.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	restored := NewTable[int](entries, a.ways)
	if err := restored.RestoreFrom(r, func(r *snapshot.Reader) int { return int(r.I64()) }); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(restored), data) {
		t.Fatal("restored table re-encodes to different bytes")
	}
	return restored
}

// TestAssocDifferentialAgainstStamps drives Table and the stamp-based
// reference with seeded streams of lookups (some writing through the
// returned pointer, as the predictor does), inserts and removes over a
// few sets with twice as many tags as ways, so sets fill, evict and
// have holes, and inserts meet an empty way before a copy of their tag.
// Every return value and displaced entry must agree, and so must the
// op's set afterwards. Half way through, the table is snapshotted and
// restored into a fresh one.
func TestAssocDifferentialAgainstStamps(t *testing.T) {
	for _, g := range []struct{ entries, ways int }{{256, 16}, {16, 2}, {12, 3}, {4, 1}} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%dx%d/seed%d", g.entries/g.ways, g.ways, seed), func(t *testing.T) {
				a, ref := NewTable[int](g.entries, g.ways), newRefAssoc(g.entries, g.ways)
				rng := rand.New(rand.NewSource(seed))
				sets := min(a.sets, 4)
				var displaced, removed, doubled int
				const ops = 20_000
				for i := 0; i < ops; i++ {
					if i == ops/2 {
						a = roundTrip(t, a, g.entries)
					}
					tag := uint64(rng.Intn(sets) + a.sets*rng.Intn(2*g.ways))
					switch rng.Intn(6) {
					case 0, 1:
						v, ok := a.Lookup(tag)
						rv, rok := ref.lookup(tag)
						if ok != rok || ok && *v != *rv {
							t.Fatalf("op %d: lookup(%#x) disagrees", i, tag)
						}
						if ok && rng.Intn(2) == 0 {
							n := rng.Int()
							*v, *rv = n, n
						}
					case 2, 3, 4:
						v := rng.Int()
						if ref.emptyBefore(tag) {
							doubled++
						}
						vt, vv, d := a.Insert(tag, v)
						rt, rv, rd := ref.insert(tag, v)
						if vt != rt || vv != rv || d != rd {
							t.Fatalf("op %d: insert(%#x) displaced %v %#x=%d, reference %v %#x=%d", i, tag, d, vt, vv, rd, rt, rv)
						}
						if d {
							displaced++
						}
					case 5:
						v, ok := a.Remove(tag)
						rv, rok := ref.remove(tag)
						if v != rv || ok != rok {
							t.Fatalf("op %d: remove(%#x) = %d,%v, reference %d,%v", i, tag, v, ok, rv, rok)
						}
						if ok {
							removed++
						}
					}
					if err := sameSet(a, ref, a.setOf(tag)); err != nil {
						t.Fatalf("op %d: %v", i, err)
					}
				}
				for s := 0; s < a.sets; s++ {
					if err := sameSet(a, ref, s); err != nil {
						t.Fatal(err)
					}
				}
				if displaced == 0 || removed == 0 || g.ways > 1 && doubled == 0 {
					t.Fatalf("stream left a path unexercised: %d displaced, %d removed, %d inserts into an empty way before a copy", displaced, removed, doubled)
				}
			})
		}
	}
}
