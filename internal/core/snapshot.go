package core

import (
	"bump/internal/mem"
	"bump/internal/snapshot"
)

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
	p.trigger.SnapshotTo(w, encRDTT)
	p.density.SnapshotTo(w, encRDTT)
	p.bht.SnapshotTo(w, func(w *snapshot.Writer, v uint64) { w.U64(v) })
	p.drt.SnapshotTo(w, func(*snapshot.Writer, drtEntry) {})
}

// RestoreFrom replaces the predictor's state with a snapshot's. The
// predictor must be configured with the geometry the snapshot was taken
// from.
func (p *Predictor) RestoreFrom(r *snapshot.Reader) error {
	r.Section("predictor")
	r.AnyInto(&p.stats)
	if err := p.trigger.RestoreFrom(r, decRDTT); err != nil {
		return err
	}
	if err := p.density.RestoreFrom(r, decRDTT); err != nil {
		return err
	}
	if err := p.bht.RestoreFrom(r, func(r *snapshot.Reader) uint64 { return r.U64() }); err != nil {
		return err
	}
	if err := p.drt.RestoreFrom(r, func(*snapshot.Reader) drtEntry { return drtEntry{} }); err != nil {
		return err
	}
	return r.Err()
}
