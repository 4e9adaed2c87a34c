package prefetch

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"bump/internal/mem"
	"bump/internal/snapshot"
)

// refPHT is the pattern history table as it was before the per-set
// recency word: an LRU stamp per entry and a global tick, victim = the
// smallest stamp. It is the reference the differential test drives side
// by side with SMS's table.
type refPHT struct {
	sets, ways int
	tags, pats []uint64
	valid      []bool
	use        []uint64
	tick       uint64
}

func newRefPHT(entries, ways int) *refPHT {
	return &refPHT{
		sets: entries / ways, ways: ways,
		tags: make([]uint64, entries), pats: make([]uint64, entries),
		valid: make([]bool, entries), use: make([]uint64, entries),
	}
}

func (t *refPHT) lookup(sig uint64) (uint64, bool) {
	s := int(sig % uint64(t.sets))
	for i := s * t.ways; i < (s+1)*t.ways; i++ {
		if t.valid[i] && t.tags[i] == sig {
			t.tick++
			t.use[i] = t.tick
			return t.pats[i], true
		}
	}
	return 0, false
}

func (t *refPHT) insert(sig, pattern uint64) {
	s := int(sig % uint64(t.sets))
	victim := s * t.ways
	for i := s * t.ways; i < (s+1)*t.ways; i++ {
		if t.valid[i] && t.tags[i] == sig {
			victim = i
			break
		}
		if !t.valid[i] {
			victim = i
			break
		}
		if t.use[i] < t.use[victim] {
			victim = i
		}
	}
	t.tick++
	t.tags[victim], t.pats[victim], t.valid[victim], t.use[victim] = sig, pattern, true, t.tick
}

// smsRoundTrip encodes s, restores it into a fresh SMS of the same
// geometry, checks the copy re-encodes to the same bytes, and returns it.
func smsRoundTrip(t *testing.T, s *SMS, entries, ways int) *SMS {
	t.Helper()
	encode := func(s *SMS) []byte {
		w := snapshot.NewWriter()
		s.SnapshotTo(w)
		var buf bytes.Buffer
		if err := w.Flush(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	data := encode(s)
	r, err := snapshot.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	restored := NewSMS(s.regionShift, entries, ways, s.agtCap)
	if err := restored.RestoreFrom(r); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(restored), data) {
		t.Fatal("restored SMS re-encodes to different bytes")
	}
	return restored
}

// TestPHTDifferentialAgainstStamps drives SMS's pattern history table
// and the stamp-based reference with seeded streams of lookups and
// inserts (new signatures and refreshes) over a few sets with twice as
// many signatures as ways, so sets fill from empty ways and then evict.
// Every lookup must agree. Half way through, the SMS is snapshotted and
// restored into a fresh one, and at the end every signature is looked
// up in both. (The table's ways and recency words are compared with
// the reference set by set in internal/cache, which owns the type.)
func TestPHTDifferentialAgainstStamps(t *testing.T) {
	for _, g := range []struct{ entries, ways int }{{2048, 16}, {16, 2}, {12, 3}, {4, 1}} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%dx%d/seed%d", g.entries/g.ways, g.ways, seed), func(t *testing.T) {
				sms, ref := NewSMS(mem.DefaultRegionShift, g.entries, g.ways, 4), newRefPHT(g.entries, g.ways)
				rng := rand.New(rand.NewSource(seed))
				sets := min(ref.sets, 4)
				sigs := uint64(ref.sets * 2 * g.ways)
				lookup := func(op int, sig uint64) bool {
					p, ok := sms.pht.Lookup(sig)
					rpat, rok := ref.lookup(sig)
					if ok != rok || ok && *p != rpat {
						t.Fatalf("op %d: lookup(%#x) = %v, reference %#x,%v", op, sig, ok, rpat, rok)
					}
					return ok
				}
				var hits, evictions int
				const ops = 20_000
				for i := 0; i < ops; i++ {
					if i == ops/2 {
						sms = smsRoundTrip(t, sms, g.entries, g.ways)
					}
					sig := uint64(rng.Intn(sets) + ref.sets*rng.Intn(2*g.ways))
					if rng.Intn(2) == 0 {
						if lookup(i, sig) {
							hits++
						}
						continue
					}
					set := int(sig%uint64(ref.sets)) * ref.ways
					if !slices.Contains(ref.valid[set:set+ref.ways], false) && !slices.Contains(ref.tags[set:set+ref.ways], sig) {
						evictions++
					}
					pat := rng.Uint64()
					sms.pht.Insert(sig, pat)
					ref.insert(sig, pat)
				}
				for sig := uint64(0); sig < sigs; sig++ {
					lookup(ops, sig)
				}
				if hits == 0 || evictions == 0 {
					t.Fatalf("stream left a path unexercised: %d hits, %d evictions", hits, evictions)
				}
			})
		}
	}
}
