package prefetch

import (
	"fmt"

	"bump/internal/mem"
	"bump/internal/snapshot"
)

// SnapshotTo serializes the stride prefetcher's reference-prediction
// table. Invalid entries collapse to one byte so equal states encode
// identically.
func (s *Stride) SnapshotTo(w *snapshot.Writer) {
	w.Section("stride")
	w.U32(uint32(s.degree))
	w.U32(uint32(len(s.entries)))
	w.U64(s.Issued)
	for i := range s.entries {
		e := &s.entries[i]
		if !e.valid {
			w.Bool(false)
			continue
		}
		w.Bool(true)
		w.U64(uint64(e.pc))
		w.U64(uint64(e.last))
		w.I64(e.stride)
		w.Bool(e.confirmed)
	}
}

// RestoreFrom replaces the stride state with a snapshot's.
func (s *Stride) RestoreFrom(r *snapshot.Reader) error {
	r.Section("stride")
	degree, entries := r.U32(), r.U32()
	if r.Err() != nil {
		return r.Err()
	}
	if int(degree) != s.degree || int(entries) != len(s.entries) {
		return fmt.Errorf("prefetch: stride geometry %d/%d, have %d/%d", degree, entries, s.degree, len(s.entries))
	}
	s.Issued = r.U64()
	for i := range s.entries {
		if !r.Bool() {
			s.entries[i] = strideEntry{}
			continue
		}
		s.entries[i] = strideEntry{
			pc:        mem.PC(r.U64()),
			last:      mem.BlockAddr(r.U64()),
			stride:    r.I64(),
			confirmed: r.Bool(),
			valid:     true,
		}
		if r.Err() != nil {
			return r.Err()
		}
	}
	return r.Err()
}

// SnapshotTo serializes SMS: the active generation table in FIFO order
// (which rebuilds both the map and the retirement queue) and the pattern
// history table.
func (s *SMS) SnapshotTo(w *snapshot.Writer) {
	w.Section("sms")
	w.U32(uint32(s.regionShift))
	w.U32(uint32(s.agtCap))
	w.U64(s.Trained)
	w.U64(s.Triggered)
	w.U32(uint32(len(s.agtFIFO)))
	for _, region := range s.agtFIFO {
		w.U64(uint64(region))
		g, ok := s.agt[region]
		w.Bool(ok)
		if ok {
			w.U64(uint64(g.pc))
			w.U32(uint32(g.offset))
			w.U64(g.pattern)
		}
	}
	s.pht.SnapshotTo(w, func(w *snapshot.Writer, pattern uint64) { w.U64(pattern) })
}

// RestoreFrom replaces the SMS state with a snapshot's.
func (s *SMS) RestoreFrom(r *snapshot.Reader) error {
	r.Section("sms")
	shift, agtCap := r.U32(), r.U32()
	if r.Err() != nil {
		return r.Err()
	}
	if uint(shift) != s.regionShift || int(agtCap) != s.agtCap {
		return fmt.Errorf("prefetch: SMS geometry shift=%d cap=%d, have shift=%d cap=%d", shift, agtCap, s.regionShift, s.agtCap)
	}
	s.Trained = r.U64()
	s.Triggered = r.U64()
	n := r.Len(8 + 1)
	if r.Err() != nil {
		return r.Err()
	}
	if n > s.agtCap {
		return fmt.Errorf("prefetch: %d active generations exceed capacity %d", n, s.agtCap)
	}
	s.agt = make(map[mem.RegionAddr]*smsGen, n)
	s.agtFIFO = make([]mem.RegionAddr, 0, n)
	for i := 0; i < n; i++ {
		region := mem.RegionAddr(r.U64())
		hasGen := r.Bool()
		if r.Err() != nil {
			return r.Err()
		}
		s.agtFIFO = append(s.agtFIFO, region)
		if hasGen {
			if _, dup := s.agt[region]; dup {
				return fmt.Errorf("prefetch: duplicate active generation for region %#x", uint64(region))
			}
			s.agt[region] = &smsGen{
				pc:      mem.PC(r.U64()),
				offset:  uint(r.U32()),
				pattern: r.U64(),
			}
		}
	}
	if err := s.pht.RestoreFrom(r, func(r *snapshot.Reader) uint64 { return r.U64() }); err != nil {
		return fmt.Errorf("prefetch: PHT: %w", err)
	}
	return r.Err()
}
