package stats

import "bump/internal/snapshot"

// SnapshotTo serializes the distribution as its counts, one per value
// from 0 up to the largest sample; N and the sum are recomputed on
// restore.
func (d *Dist) SnapshotTo(w *snapshot.Writer) {
	w.Section("dist")
	w.U32(uint32(len(d.counts)))
	for _, c := range d.counts {
		w.U64(c)
	}
}

// RestoreFrom replaces the distribution with a snapshot's counts.
func (d *Dist) RestoreFrom(r *snapshot.Reader) error {
	r.Section("dist")
	n := r.Len(8)
	if r.Err() != nil {
		return r.Err()
	}
	*d = Dist{}
	if n == 0 {
		return nil
	}
	d.counts = make([]uint64, n)
	for v := range d.counts {
		c := r.U64()
		d.counts[v] = c
		d.n += c
		d.sum += c * uint64(v)
	}
	if r.Err() == nil && d.counts[n-1] == 0 {
		r.Failf("dist: count array ends in a zero count")
	}
	return r.Err()
}
