package prefetch

import (
	"testing"

	"bump/internal/mem"
)

func TestStrideDetection(t *testing.T) {
	s := DefaultStride()
	pc := mem.PC(0x400)
	if got := s.OnAccess(0, pc, 100, true); got != nil {
		t.Error("first access must not prefetch")
	}
	if got := s.OnAccess(0, pc, 101, true); got != nil {
		t.Error("one stride sample must not prefetch")
	}
	got := s.OnAccess(0, pc, 102, true)
	if len(got) != 4 {
		t.Fatalf("confirmed stride must prefetch 4 blocks, got %v", got)
	}
	for i, b := range got {
		if b != mem.BlockAddr(103+i) {
			t.Errorf("prefetch[%d] = %d, want %d", i, b, 103+i)
		}
	}
	// Continuing the stream keeps prefetching ahead.
	got = s.OnAccess(0, pc, 103, true)
	if len(got) != 4 || got[0] != 104 {
		t.Errorf("stream continuation: %v", got)
	}
	if s.Issued != 8 {
		t.Errorf("Issued = %d", s.Issued)
	}
}

func TestStrideNegativeAndChange(t *testing.T) {
	s := DefaultStride()
	pc := mem.PC(0x400)
	s.OnAccess(0, pc, 100, true)
	s.OnAccess(0, pc, 98, true)
	got := s.OnAccess(0, pc, 96, true)
	if len(got) != 4 || got[0] != 94 {
		t.Errorf("negative stride: %v", got)
	}
	// Changing the stride resets confirmation.
	if got := s.OnAccess(0, pc, 90, true); got != nil {
		t.Error("stride change must pause prefetching")
	}
	// Descending below zero truncates.
	s2 := DefaultStride()
	s2.OnAccess(0, pc, 2, true)
	s2.OnAccess(0, pc, 1, true)
	if got := s2.OnAccess(0, pc, 0, true); len(got) != 0 {
		t.Errorf("prefetch below address zero: %v", got)
	}
}

func TestStrideZeroStrideIgnored(t *testing.T) {
	s := DefaultStride()
	pc := mem.PC(0x400)
	s.OnAccess(0, pc, 100, true)
	s.OnAccess(0, pc, 100, true)
	s.OnAccess(0, pc, 100, true)
	if got := s.OnAccess(0, pc, 100, true); got != nil {
		t.Error("zero stride must never prefetch")
	}
}

func TestStridePerPCTracking(t *testing.T) {
	s := DefaultStride()
	// Interleaved streams from two PCs must both be detected (the PCs
	// must not collide in the 256-entry direct-mapped table).
	a, b := mem.PC(0x400), mem.PC(0x504)
	s.OnAccess(0, a, 100, true)
	s.OnAccess(0, b, 5000, true)
	s.OnAccess(0, a, 110, true)
	s.OnAccess(0, b, 5002, true)
	ga := s.OnAccess(0, a, 120, true)
	gb := s.OnAccess(0, b, 5004, true)
	if len(ga) != 4 || ga[0] != 130 {
		t.Errorf("stream a: %v", ga)
	}
	if len(gb) != 4 || gb[0] != 5006 {
		t.Errorf("stream b: %v", gb)
	}
}

func TestStrideValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewStride(0, 16) },
		func() { NewStride(4, 0) },
		func() { NewStride(4, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func region(r uint64, off uint) mem.BlockAddr {
	return mem.RegionAddr(r).Block(mem.DefaultRegionShift, off)
}

func TestSMSTrainAndTrigger(t *testing.T) {
	s := DefaultSMS()
	pc := mem.PC(0x400)
	// Generation in region 1: blocks 0,2,5 accessed, then eviction.
	s.OnAccess(0, pc, region(1, 0), true)
	s.OnAccess(0, pc, region(1, 2), false)
	s.OnAccess(0, pc, region(1, 5), false)
	s.OnEvict(region(1, 2))
	if s.Trained != 1 {
		t.Fatalf("Trained = %d", s.Trained)
	}
	// New region, same trigger PC+offset: prefetch the learned footprint
	// minus the trigger block.
	got := s.OnAccess(0, pc, region(7, 0), true)
	if len(got) != 2 {
		t.Fatalf("prefetch = %v", got)
	}
	want := map[mem.BlockAddr]bool{region(7, 2): true, region(7, 5): true}
	for _, b := range got {
		if !want[b] {
			t.Errorf("unexpected prefetch %v", b)
		}
	}
	if s.Triggered != 1 {
		t.Errorf("Triggered = %d", s.Triggered)
	}
}

func TestSMSOffsetSensitivity(t *testing.T) {
	s := DefaultSMS()
	pc := mem.PC(0x400)
	s.OnAccess(0, pc, region(1, 3), true)
	s.OnAccess(0, pc, region(1, 4), false)
	s.OnEvict(region(1, 3))
	if got := s.OnAccess(0, pc, region(2, 0), true); got != nil {
		t.Error("different trigger offset must not stream")
	}
	if got := s.OnAccess(0, pc, region(3, 3), true); len(got) != 1 {
		t.Errorf("matching offset must stream: %v", got)
	}
}

func TestSMSSingleBlockGenerationsNotTrained(t *testing.T) {
	s := DefaultSMS()
	pc := mem.PC(0x400)
	s.OnAccess(0, pc, region(1, 0), true)
	s.OnEvict(region(1, 0))
	if s.Trained != 0 {
		t.Error("single-block generation must not train")
	}
	if got := s.OnAccess(0, pc, region(2, 0), true); got != nil {
		t.Error("nothing learned: no stream")
	}
}

func TestSMSAGTCapacityRetiresOldest(t *testing.T) {
	s := NewSMS(mem.DefaultRegionShift, 256, 16, 2)
	pc := mem.PC(0x400)
	s.OnAccess(0, pc, region(1, 0), true)
	s.OnAccess(0, pc, region(1, 1), false)
	s.OnAccess(0, pc, region(2, 0), true)
	if s.ActiveGenerations() != 2 {
		t.Fatalf("AGT = %d", s.ActiveGenerations())
	}
	// Third generation forces region 1 out, training its 2-block pattern.
	s.OnAccess(0, pc, region(3, 0), true)
	if s.ActiveGenerations() != 2 {
		t.Errorf("AGT = %d after overflow", s.ActiveGenerations())
	}
	if s.Trained != 1 {
		t.Errorf("Trained = %d", s.Trained)
	}
}

func TestSMSEvictOutsideGenerationIgnored(t *testing.T) {
	s := DefaultSMS()
	s.OnEvict(region(9, 0)) // no active generation: no-op
	if s.Trained != 0 {
		t.Error("eviction without generation must not train")
	}
}

func TestSMSValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewSMS(10, 0, 16, 4) },
		func() { NewSMS(10, 48, 16, 4) }, // 3 sets: not a power of two
		func() { NewSMS(10, 256, 16, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}
