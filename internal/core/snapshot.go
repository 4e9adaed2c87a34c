package core

import (
	"fmt"

	"bump/internal/cache"
	"bump/internal/mem"
	"bump/internal/snapshot"
)

// snapAssoc serializes a set-associative table: geometry, each set's
// recency word, and every entry. Invalid ways collapse to a single zero
// byte (their stale tags are unreachable).
func snapAssoc[V any](w *snapshot.Writer, t *assoc[V], enc func(*snapshot.Writer, V)) {
	w.U32(uint32(t.sets))
	w.U32(uint32(t.ways))
	cache.SnapshotOrders(w, t.order)
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

func restoreAssoc[V any](r *snapshot.Reader, t *assoc[V], dec func(*snapshot.Reader) V) error {
	sets, ways := r.U32(), r.U32()
	if r.Err() != nil {
		return r.Err()
	}
	if int(sets) != t.sets || int(ways) != t.ways {
		return fmt.Errorf("core: table geometry %dx%d, have %dx%d", sets, ways, t.sets, t.ways)
	}
	if err := cache.RestoreOrders(r, t.order, t.ways); err != nil {
		return fmt.Errorf("core: table %w", err)
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
			return fmt.Errorf("core: entry %d holds tag %#x belonging to set %d", i, t.tags[i], t.setOf(t.tags[i]))
		}
	}
	return r.Err()
}

func encRDTT(w *snapshot.Writer, e rdttEntry) {
	w.U64(uint64(e.pc))
	w.U32(uint32(e.offset))
	w.U64(e.pattern)
	w.Bool(e.dirty)
}

func decRDTT(r *snapshot.Reader) rdttEntry {
	return rdttEntry{
		pc:      mem.PC(r.U64()),
		offset:  uint(r.U32()),
		pattern: r.U64(),
		dirty:   r.Bool(),
	}
}

// SnapshotTo serializes the predictor's four tables and counters.
func (p *Predictor) SnapshotTo(w *snapshot.Writer) {
	w.Section("predictor")
	w.Any(p.stats)
	snapAssoc(w, p.trigger, encRDTT)
	snapAssoc(w, p.density, encRDTT)
	snapAssoc(w, p.bht, func(w *snapshot.Writer, v uint64) { w.U64(v) })
	snapAssoc(w, p.drt, func(*snapshot.Writer, drtEntry) {})
}

// RestoreFrom replaces the predictor's state with a snapshot's. The
// predictor must be configured with the geometry the snapshot was taken
// from.
func (p *Predictor) RestoreFrom(r *snapshot.Reader) error {
	r.Section("predictor")
	r.AnyInto(&p.stats)
	if err := restoreAssoc(r, p.trigger, decRDTT); err != nil {
		return err
	}
	if err := restoreAssoc(r, p.density, decRDTT); err != nil {
		return err
	}
	if err := restoreAssoc(r, p.bht, func(r *snapshot.Reader) uint64 { return r.U64() }); err != nil {
		return err
	}
	if err := restoreAssoc(r, p.drt, func(*snapshot.Reader) drtEntry { return drtEntry{} }); err != nil {
		return err
	}
	return r.Err()
}
