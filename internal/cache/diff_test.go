package cache

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

// refCache is the array-of-structs cache this package used before the
// struct-of-arrays layout (one struct per line, LRU stamp inside it),
// kept as the reference the differential test drives side by side with
// Cache. Only the dead per-line PC and core fields are gone; it keeps
// its stamps and global tick, against which each set's recency word is
// checked.
type refCache struct {
	sets, ways int
	lines      []refLine
	tick       uint64
	stats      Stats
}

type refLine struct {
	Block                                mem.BlockAddr
	Valid, Dirty, Prefetched, Referenced bool
	Cleaned                              bool
	lastUse                              uint64
}

func newRef(totalBytes, ways int) *refCache {
	sets := totalBytes / mem.BlockBytes / ways
	return &refCache{sets: sets, ways: ways, lines: make([]refLine, sets*ways)}
}

func (l *refLine) flags() Flags {
	var f Flags
	for _, b := range []struct {
		on  bool
		bit Flags
	}{{l.Dirty, Dirty}, {l.Prefetched, Prefetched}, {l.Referenced, Referenced}, {l.Cleaned, Cleaned}} {
		if b.on {
			f |= b.bit
		}
	}
	return f
}

func (c *refCache) set(b mem.BlockAddr) []refLine {
	s := int(uint64(b) & uint64(c.sets-1))
	return c.lines[s*c.ways : (s+1)*c.ways]
}

func (c *refCache) lookup(b mem.BlockAddr, touch bool) *refLine {
	set := c.set(b)
	if touch {
		c.stats.Lookups++
	}
	for i := range set {
		if set[i].Valid && set[i].Block == b {
			if touch {
				c.stats.Hits++
				c.tick++
				set[i].lastUse = c.tick
				if set[i].Prefetched && !set[i].Referenced {
					c.stats.PrefetchUsed++
				}
				set[i].Referenced = true
			}
			return &set[i]
		}
	}
	if touch {
		c.stats.Misses++
	}
	return nil
}

func (c *refCache) fill(b mem.BlockAddr, prefetched bool) (*refLine, Eviction) {
	set := c.set(b)
	c.stats.Fills++
	for i := range set {
		if set[i].Valid && set[i].Block == b {
			c.tick++
			set[i].lastUse = c.tick
			return &set[i], Eviction{}
		}
	}
	victim := 0
	for i := range set {
		if !set[i].Valid {
			victim = i
			break
		}
		if set[i].lastUse < set[victim].lastUse {
			victim = i
		}
	}
	var ev Eviction
	if set[victim].Valid {
		ev = Eviction{Valid: true, Line: Line{Block: set[victim].Block, Flags: set[victim].flags()}}
		c.noteEvict(&set[victim])
	}
	c.tick++
	set[victim] = refLine{Block: b, Valid: true, Prefetched: prefetched, lastUse: c.tick}
	return &set[victim], ev
}

func (c *refCache) noteEvict(l *refLine) {
	c.stats.Evictions++
	if l.Dirty {
		c.stats.DirtyEvicts++
	}
	if l.Prefetched && !l.Referenced {
		c.stats.PrefetchUnused++
	}
}

func (c *refCache) invalidate(b mem.BlockAddr) (Line, bool) {
	set := c.set(b)
	for i := range set {
		if set[i].Valid && set[i].Block == b {
			c.noteEvict(&set[i])
			l := Line{Block: b, Flags: set[i].flags()}
			set[i] = refLine{}
			return l, true
		}
	}
	return Line{}, false
}

func (c *refCache) cleanBlock(b mem.BlockAddr) bool {
	if l := c.lookup(b, false); l != nil && l.Dirty {
		l.Dirty = false
		l.Cleaned = true
		return true
	}
	return false
}

func (c *refCache) dirtyBlocksInRegion(r mem.RegionAddr, shift uint) []mem.BlockAddr {
	var out []mem.BlockAddr
	for i := uint(0); i < mem.BlocksPerRegion(shift); i++ {
		if l := c.lookup(r.Block(shift, i), false); l != nil && l.Dirty {
			out = append(out, r.Block(shift, i))
		}
	}
	return out
}

func (c *refCache) missingBlocksInRegion(r mem.RegionAddr, shift uint, except mem.BlockAddr) []mem.BlockAddr {
	var out []mem.BlockAddr
	for i := uint(0); i < mem.BlocksPerRegion(shift); i++ {
		if b := r.Block(shift, i); b != except && c.lookup(b, false) == nil {
			out = append(out, b)
		}
	}
	return out
}

// sameLine fails unless the Way returned by Cache and the line returned
// by the reference agree: both miss, or both hold the same block with
// the same state bits.
func sameLine(c *Cache, w Way, l *refLine) error {
	if (w == NoWay) != (l == nil) {
		return fmt.Errorf("hit disagreement: way %d, reference line %v", w, l)
	}
	if w == NoWay {
		return nil
	}
	if c.tags[w] != l.Block || c.flags[w] != l.flags() {
		return fmt.Errorf("line %#x flags %#x, reference %#x flags %#x",
			uint64(c.tags[w]), c.flags[w], uint64(l.Block), l.flags())
	}
	return nil
}

// sameOrder fails unless set s's recency word ranks the reference's
// valid ways as their LRU stamps do, most recent first. An empty way
// keeps a stale place in the word, so only valid ways are compared.
func sameOrder(c *Cache, ref *refCache, s int) error {
	set := ref.lines[s*ref.ways : (s+1)*ref.ways]
	var want, got []int
	for i := range set {
		if set[i].Valid {
			want = append(want, i)
		}
	}
	slices.SortFunc(want, func(a, b int) int { return cmp.Compare(set[b].lastUse, set[a].lastUse) })
	for k := 0; k < c.ways; k++ {
		if w := int(c.order[s] >> (4 * k) & 0xF); set[w].Valid {
			got = append(got, w)
		}
	}
	if !slices.Equal(got, want) {
		return fmt.Errorf("set %d: recency word %#x ranks valid ways %v, reference stamps rank %v", s, uint64(c.order[s]), got, want)
	}
	return nil
}

// sameState compares every line, every set's recency order and the
// statistics.
func sameState(c *Cache, ref *refCache) error {
	if err := sameStats(c, ref); err != nil {
		return err
	}
	for i := range ref.lines {
		l := &ref.lines[i]
		if !l.Valid {
			if c.tags[i] != invalidTag {
				return fmt.Errorf("line %d holds %#x, reference line is invalid", i, uint64(c.tags[i]))
			}
			continue
		}
		if err := sameLine(c, Way(i), l); err != nil {
			return fmt.Errorf("line %d: %w", i, err)
		}
	}
	for s := 0; s < c.sets; s++ {
		if err := sameOrder(c, ref, s); err != nil {
			return err
		}
	}
	return nil
}

// diffGeometry is one cache shape the differential test drives.
type diffGeometry struct {
	name        string
	bytes, ways int
}

var diffGeometries = []diffGeometry{
	{"L1-32KB-2way", 32 << 10, 2},
	{"LLC-4MB-16way", 4 << 20, 16},
}

// TestDifferentialAgainstArrayOfStructs drives Cache and the reference
// with seeded random op streams — touching and probing lookups, fills,
// stores that dirty a hit line the way the simulator does, invalidates,
// cleans and both region scans — comparing every return value, every
// eviction record, the statistics and the recency order of the op's set
// after each op. Half way through, the Cache is snapshotted and restored
// into a fresh one, which carries on against the same reference.
func TestDifferentialAgainstArrayOfStructs(t *testing.T) {
	const shift = mem.DefaultRegionShift
	for _, g := range diffGeometries {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", g.name, seed), func(t *testing.T) {
				ops := 60_000
				if testing.Short() {
					ops = 10_000
				}
				c, ref := New(g.bytes, g.ways), newRef(g.bytes, g.ways)
				rng := rand.New(rand.NewSource(seed))
				// Blocks come from a window of 64 consecutive sets (four
				// regions wide) with twice as many tags as ways, so sets
				// overflow and evict, hits and dirty lines are common, and
				// region scans find resident blocks.
				const window = 64
				first := rng.Intn(c.Sets()-window+1) &^ (window - 1)
				block := func() mem.BlockAddr {
					set, tag := first+rng.Intn(window), rng.Intn(2*g.ways)
					return mem.BlockAddr(tag*c.Sets() + set)
				}
				for i := 0; i < ops; i++ {
					if i == ops/2 {
						c = snapshotRoundTrip(t, c, g)
					}
					b := block()
					if err := diffOp(c, ref, rng, b, shift); err != nil {
						t.Fatalf("op %d: %v", i, err)
					}
					if err := sameStats(c, ref); err != nil {
						t.Fatalf("op %d: %v", i, err)
					}
					if err := sameOrder(c, ref, c.setOf(b)); err != nil {
						t.Fatalf("op %d: %v", i, err)
					}
				}
				if err := sameState(c, ref); err != nil {
					t.Fatal(err)
				}
				if st := ref.stats; st.Evictions == 0 || st.DirtyEvicts == 0 || st.PrefetchUsed == 0 || st.PrefetchUnused == 0 {
					t.Fatalf("stream left a path unexercised: %+v", st)
				}
			})
		}
	}
}

func sameStats(c *Cache, ref *refCache) error {
	if c.Stats() != ref.stats {
		return fmt.Errorf("stats %+v, reference %+v", c.Stats(), ref.stats)
	}
	return nil
}

// diffOp applies one random op to both caches and compares the results.
func diffOp(c *Cache, ref *refCache, rng *rand.Rand, b mem.BlockAddr, shift uint) error {
	switch op := rng.Intn(8); op {
	case 0, 1: // touching or probing lookup
		touch := op == 0
		return sameLine(c, c.Lookup(b, touch), ref.lookup(b, touch))
	case 2: // store: a touching lookup that dirties the hit line, as the simulator's markDirty does
		w, l := c.Lookup(b, true), ref.lookup(b, true)
		if err := sameLine(c, w, l); err != nil || w == NoWay {
			return err
		}
		c.SetFlags(w, c.Flags(w)&^Cleaned|Dirty)
		l.Dirty, l.Cleaned = true, false
		return sameLine(c, w, l)
	case 3: // fill
		prefetched := rng.Intn(3) == 0
		w, ev := c.Fill(b, prefetched)
		l, refEv := ref.fill(b, prefetched)
		if ev != refEv {
			return fmt.Errorf("Fill(%#x) evicted %+v, reference %+v", uint64(b), ev, refEv)
		}
		return sameLine(c, w, l)
	case 4:
		got, ok := c.Invalidate(b)
		want, refOK := ref.invalidate(b)
		if got != want || ok != refOK {
			return fmt.Errorf("Invalidate(%#x) = %+v,%v, reference %+v,%v", uint64(b), got, ok, want, refOK)
		}
	case 5:
		if got, want := c.CleanBlock(b), ref.cleanBlock(b); got != want {
			return fmt.Errorf("CleanBlock(%#x) = %v, reference %v", uint64(b), got, want)
		}
	case 6:
		r := b.Region(shift)
		if got, want := c.DirtyBlocksInRegion(r, shift), ref.dirtyBlocksInRegion(r, shift); !slices.Equal(got, want) {
			return fmt.Errorf("DirtyBlocksInRegion(%#x) = %v, reference %v", uint64(r), got, want)
		}
	case 7:
		r := b.Region(shift)
		got, want := c.MissingBlocksInRegion(r, shift, b), ref.missingBlocksInRegion(r, shift, b)
		if !slices.Equal(got, want) {
			return fmt.Errorf("MissingBlocksInRegion(%#x) = %v, reference %v", uint64(r), got, want)
		}
	}
	return nil
}

// snapshotRoundTrip encodes c, restores it into a fresh cache of the
// same geometry, checks the restored cache re-encodes to the same bytes,
// and returns it.
func snapshotRoundTrip(t *testing.T, c *Cache, g diffGeometry) *Cache {
	t.Helper()
	encode := func(c *Cache) []byte {
		w := snapshot.NewWriter()
		c.SnapshotTo(w)
		var buf bytes.Buffer
		if err := w.Flush(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	data := encode(c)
	r, err := snapshot.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	restored := New(g.bytes, g.ways)
	if err := restored.RestoreFrom(r); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(restored), data) {
		t.Fatal("restored cache re-encodes to different bytes")
	}
	return restored
}
