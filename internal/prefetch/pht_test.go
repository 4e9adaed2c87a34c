package prefetch

import (
	"bytes"
	"cmp"
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
// by side with phtTable.
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

// samePHTSet fails unless set s holds the same entries in the same ways
// in both tables and its recency word ranks the valid ways as the
// reference's stamps do, most recent first.
func samePHTSet(p *phtTable, ref *refPHT, s int) error {
	var want, got []int
	base := s * p.ways
	for i := base; i < base+p.ways; i++ {
		if p.valid[i] != ref.valid[i] || p.valid[i] && (p.tags[i] != ref.tags[i] || p.pats[i] != ref.pats[i]) {
			return fmt.Errorf("entry %d: %v %#x=%#x, reference %v %#x=%#x", i, p.valid[i], p.tags[i], p.pats[i], ref.valid[i], ref.tags[i], ref.pats[i])
		}
		if ref.valid[i] {
			want = append(want, i-base)
		}
	}
	slices.SortFunc(want, func(x, y int) int { return cmp.Compare(ref.use[base+y], ref.use[base+x]) })
	for k := 0; k < p.ways; k++ {
		if w := int(p.order[s] >> (4 * k) & 0xF); ref.valid[base+w] {
			got = append(got, w)
		}
	}
	if !slices.Equal(got, want) {
		return fmt.Errorf("set %d: recency word %#x ranks valid ways %v, reference stamps rank %v", s, uint64(p.order[s]), got, want)
	}
	return nil
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

// TestPHTDifferentialAgainstStamps drives the pattern history table and
// the stamp-based reference with seeded streams of lookups and inserts
// (new signatures and refreshes) over a few sets with twice as many
// signatures as ways, so sets fill from empty ways and then evict. Every
// lookup must agree, and so must the op's set afterwards. Half way
// through, the table is snapshotted and restored into a fresh one.
func TestPHTDifferentialAgainstStamps(t *testing.T) {
	for _, g := range []struct{ entries, ways int }{{2048, 16}, {16, 2}, {12, 3}, {4, 1}} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%dx%d/seed%d", g.entries/g.ways, g.ways, seed), func(t *testing.T) {
				sms, ref := NewSMS(mem.DefaultRegionShift, g.entries, g.ways, 4), newRefPHT(g.entries, g.ways)
				rng := rand.New(rand.NewSource(seed))
				sets := min(sms.pht.sets, 4)
				var hits, evictions int
				const ops = 20_000
				for i := 0; i < ops; i++ {
					if i == ops/2 {
						sms = smsRoundTrip(t, sms, g.entries, g.ways)
					}
					p := sms.pht
					sig := uint64(rng.Intn(sets) + p.sets*rng.Intn(2*g.ways))
					s := p.setOf(sig)
					if rng.Intn(2) == 0 {
						pat, ok := p.lookup(sig)
						rpat, rok := ref.lookup(sig)
						if pat != rpat || ok != rok {
							t.Fatalf("op %d: lookup(%#x) = %#x,%v, reference %#x,%v", i, sig, pat, ok, rpat, rok)
						}
						if ok {
							hits++
						}
					} else {
						set := s * p.ways
						if !slices.Contains(p.valid[set:set+p.ways], false) && !slices.Contains(p.tags[set:set+p.ways], sig) {
							evictions++
						}
						pat := rng.Uint64()
						p.insert(sig, pat)
						ref.insert(sig, pat)
					}
					if err := samePHTSet(sms.pht, ref, s); err != nil {
						t.Fatalf("op %d: %v", i, err)
					}
				}
				if hits == 0 || evictions == 0 {
					t.Fatalf("stream left a path unexercised: %d hits, %d evictions", hits, evictions)
				}
			})
		}
	}
}
