package memctrl

import (
	"testing"
	"testing/quick"

	"bump/internal/dram"
	"bump/internal/event"
	"bump/internal/mem"
)

func TestMapperValidation(t *testing.T) {
	cfg := dram.DefaultConfig()
	if _, err := NewMapper(BlockInterleave, cfg, mem.DefaultRegionShift); err != nil {
		t.Fatalf("default mapper: %v", err)
	}
	bad := cfg
	bad.Channels = 3
	if _, err := NewMapper(BlockInterleave, bad, mem.DefaultRegionShift); err == nil {
		t.Error("non-power-of-two channels must fail")
	}
	// A region larger than the row must fail.
	if _, err := NewMapper(RegionInterleave, cfg, 14); err == nil {
		t.Error("16KB region in 8KB row must fail")
	}
	if _, err := NewMapper(Interleave(9), cfg, 10); err == nil {
		t.Error("unknown interleave must fail")
	}
}

func TestBlockInterleaveSpreadsConsecutiveBlocks(t *testing.T) {
	m, err := NewMapper(BlockInterleave, dram.DefaultConfig(), mem.DefaultRegionShift)
	if err != nil {
		t.Fatal(err)
	}
	l0 := m.Map(0)
	l1 := m.Map(1)
	if l0.Channel == l1.Channel {
		t.Error("consecutive blocks must alternate channels under block interleave")
	}
	// Blocks 0 and 2 share a channel but differ in bank.
	l2 := m.Map(2)
	if l2.Channel != l0.Channel || l2.Bank == l0.Bank {
		t.Errorf("block 2: %+v vs block 0: %+v", l2, l0)
	}
}

func TestRegionInterleaveKeepsRegionInOneRow(t *testing.T) {
	const shift = mem.DefaultRegionShift
	m, err := NewMapper(RegionInterleave, dram.DefaultConfig(), shift)
	if err != nil {
		t.Fatal(err)
	}
	r := mem.RegionAddr(12345)
	first := m.Map(r.Block(shift, 0))
	for i := uint(1); i < mem.BlocksPerRegion(shift); i++ {
		if loc := m.Map(r.Block(shift, i)); loc != first {
			t.Fatalf("block %d of region maps to %+v, want %+v", i, loc, first)
		}
	}
	// Consecutive regions land on different channels.
	next := m.Map((r + 1).Block(shift, 0))
	if next.Channel == first.Channel {
		t.Error("consecutive regions must alternate channels")
	}
}

// Property: mapped locations are always within the organisation's bounds,
// and blocks that share a (channel,rank,bank,row) under SameRow are
// reflexive/symmetric.
func TestMapperBoundsProperty(t *testing.T) {
	cfg := dram.DefaultConfig()
	for _, il := range []Interleave{BlockInterleave, RegionInterleave} {
		m, err := NewMapper(il, cfg, mem.DefaultRegionShift)
		if err != nil {
			t.Fatal(err)
		}
		f := func(raw uint64) bool {
			b := mem.BlockAddr(raw % (1 << 34))
			loc := m.Map(b)
			if loc.Channel < 0 || loc.Channel >= cfg.Channels {
				return false
			}
			if loc.Rank < 0 || loc.Rank >= cfg.RanksPerChannel {
				return false
			}
			if loc.Bank < 0 || loc.Bank >= cfg.BanksPerRank {
				return false
			}
			return m.SameRow(b, b)
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%v: %v", il, err)
		}
	}
}

// Property: under RegionInterleave, any two blocks of the same region are
// in the same row; the row then holds exactly rowBytes/regionBytes regions.
func TestRegionRowCapacityProperty(t *testing.T) {
	const shift = mem.DefaultRegionShift
	cfg := dram.DefaultConfig()
	m, _ := NewMapper(RegionInterleave, cfg, shift)
	f := func(raw uint64, i, j uint8) bool {
		r := mem.RegionAddr(raw % (1 << 24))
		n := mem.BlocksPerRegion(shift)
		bi := r.Block(shift, uint(i)%n)
		bj := r.Block(shift, uint(j)%n)
		return m.SameRow(bi, bj)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// drain runs eng until nothing is pending, leaving the clock at the
// last event's cycle.
func drain(eng *event.Engine) {
	for eng.Pending() > 0 {
		eng.Run(eng.Now() + 1)
	}
}

func defaultController(t *testing.T, p Policy, il Interleave) (*Controller, *dram.DRAM, *event.Engine) {
	t.Helper()
	eng := event.New()
	d := dram.New(dram.DefaultConfig())
	c, err := New(DefaultConfig(p, il), d, eng, 0)
	if err != nil {
		t.Fatal(err)
	}
	return c, d, eng
}

func TestControllerConfigValidation(t *testing.T) {
	eng := event.New()
	d := dram.New(dram.DefaultConfig())
	bad := DefaultConfig(OpenRow, BlockInterleave)
	bad.QueueDepth = 0
	if _, err := New(bad, d, eng, 0); err == nil {
		t.Error("zero queue depth must fail")
	}
	bad = DefaultConfig(OpenRow, BlockInterleave)
	bad.ClockRatio = 0
	if _, err := New(bad, d, eng, 0); err == nil {
		t.Error("zero clock ratio must fail")
	}
	bad = DefaultConfig(OpenRow, BlockInterleave)
	bad.WriteHighWatermark = 1
	bad.WriteLowWatermark = 5
	if _, err := New(bad, d, eng, 0); err == nil {
		t.Error("inverted watermarks must fail")
	}
}

func TestSingleReadCompletes(t *testing.T) {
	c, d, eng := defaultController(t, OpenRow, RegionInterleave)
	var got []Completion
	c.Handler = func(cp Completion) { got = append(got, cp) }
	c.Enqueue(mem.Request{Op: mem.MemRead, Addr: 0x10000, PC: 0x400})
	drain(eng)
	if len(got) != 1 {
		t.Fatalf("completions = %d", len(got))
	}
	if got[0].Outcome != dram.RowClosed {
		t.Errorf("outcome = %v", got[0].Outcome)
	}
	if got[0].Done == 0 {
		t.Error("completion time must be positive")
	}
	if d.Stats().ReadBursts != 1 {
		t.Error("dram must see one read")
	}
	if c.Stats().Reads != 1 {
		t.Error("controller read count")
	}
}

func TestFRFCFSPrioritisesRowHits(t *testing.T) {
	c, d, eng := defaultController(t, OpenRow, RegionInterleave)
	var order []mem.Addr
	c.Handler = func(cp Completion) { order = append(order, cp.Req.Addr) }

	// Open a row with block 0 of region 0, then enqueue: a conflict
	// (same bank, different row) and a row hit (same region). The hit
	// must complete first despite arriving later.
	c.Enqueue(mem.Request{Op: mem.MemRead, Addr: 0})
	drain(eng)
	conflictAddr := func() mem.Addr {
		// Find an address mapping to the same bank, different row.
		base := c.Mapper().Map(0)
		for b := mem.BlockAddr(16); b < 1<<20; b += 16 {
			if loc := c.Mapper().Map(b); loc.Channel == base.Channel && loc.Rank == base.Rank && loc.Bank == base.Bank && loc.Row != base.Row {
				return b.Addr()
			}
		}
		t.Fatal("no conflicting address found")
		return 0
	}()
	c.Enqueue(mem.Request{Op: mem.MemRead, Addr: conflictAddr})
	c.Enqueue(mem.Request{Op: mem.MemRead, Addr: 64}) // block 1 of region 0: row hit
	drain(eng)
	if len(order) != 3 {
		t.Fatalf("completions = %d", len(order))
	}
	if order[1] != 64 {
		t.Errorf("row hit should complete before conflict: order = %v", order)
	}
	if d.Stats().RowHits == 0 {
		t.Error("expected at least one row hit")
	}
}

func TestCloseRowNeverHits(t *testing.T) {
	c, d, eng := defaultController(t, CloseRow, BlockInterleave)
	c.Handler = func(Completion) {}
	for i := 0; i < 16; i++ {
		c.Enqueue(mem.Request{Op: mem.MemRead, Addr: mem.Addr(i * 64)})
	}
	drain(eng)
	if hits := d.Stats().RowHits; hits != 0 {
		t.Errorf("close-row policy produced %d row hits", hits)
	}
}

func TestOpenRowSequentialRegionHits(t *testing.T) {
	c, d, eng := defaultController(t, OpenRow, RegionInterleave)
	c.Handler = func(Completion) {}
	// All 16 blocks of one region, enqueued together: 1 activation + 15 hits.
	for i := 0; i < 16; i++ {
		c.Enqueue(mem.Request{Op: mem.MemRead, Addr: mem.Addr(i * 64)})
	}
	drain(eng)
	s := d.Stats()
	if s.Activations != 1 {
		t.Errorf("activations = %d, want 1", s.Activations)
	}
	if s.RowHits != 15 {
		t.Errorf("row hits = %d, want 15", s.RowHits)
	}
}

func TestWriteDrainHysteresis(t *testing.T) {
	c, _, eng := defaultController(t, OpenRow, RegionInterleave)
	var reads, writes int
	c.Handler = func(cp Completion) {
		if cp.Req.Op == mem.MemWrite {
			writes++
		} else {
			reads++
		}
	}
	// Fill one channel's write queue past the high watermark (even
	// region indices all map to channel 0 under region interleave);
	// writes must drain even while reads keep arriving.
	for i := 0; i < 50; i++ {
		c.Enqueue(mem.Request{Op: mem.MemWrite, Addr: mem.Addr(i * 2048)})
	}
	for i := 0; i < 10; i++ {
		c.Enqueue(mem.Request{Op: mem.MemRead, Addr: mem.Addr(1 << 30)})
	}
	drain(eng)
	if writes != 50 || reads != 10 {
		t.Errorf("writes=%d reads=%d", writes, reads)
	}
	if c.Stats().WriteDrains == 0 {
		t.Error("expected a write drain episode")
	}
}

func TestReadsPreferredOverIdleWrites(t *testing.T) {
	c, _, eng := defaultController(t, OpenRow, RegionInterleave)
	var order []mem.MemOp
	c.Handler = func(cp Completion) { order = append(order, cp.Req.Op) }
	// Below the high watermark, a read arriving with writes queued is
	// served ahead of the backlog... but the first write may already be
	// in flight; assert the read does not finish last.
	c.Enqueue(mem.Request{Op: mem.MemWrite, Addr: 0})
	c.Enqueue(mem.Request{Op: mem.MemWrite, Addr: 2048})
	c.Enqueue(mem.Request{Op: mem.MemRead, Addr: 4096})
	drain(eng)
	if order[len(order)-1] == mem.MemRead {
		t.Errorf("read starved behind idle writes: %v", order)
	}
}

func TestQueueLenAndDelayAccounting(t *testing.T) {
	c, _, eng := defaultController(t, OpenRow, RegionInterleave)
	c.Handler = func(Completion) {}
	for i := 0; i < 100; i++ {
		c.Enqueue(mem.Request{Op: mem.MemRead, Addr: mem.Addr(i) * 1024 * 64})
	}
	if c.QueueLen() == 0 {
		t.Error("queue should hold pending transactions")
	}
	drain(eng)
	if c.QueueLen() != 0 {
		t.Error("queue must drain")
	}
	st := c.Stats()
	if st.Reads != 100 {
		t.Errorf("reads = %d", st.Reads)
	}
	if st.ReadQueueDelay == 0 {
		t.Error("queue delay must accumulate under load")
	}
	if st.MaxQueue < 50 {
		t.Errorf("MaxQueue = %d", st.MaxQueue)
	}
}

// Property: every enqueued transaction completes exactly once, regardless
// of op mix and address pattern.
func TestCompletionConservationProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		eng := event.New()
		d := dram.New(dram.DefaultConfig())
		c, err := New(DefaultConfig(OpenRow, RegionInterleave), d, eng, 0)
		if err != nil {
			return false
		}
		var completed int
		c.Handler = func(Completion) { completed++ }
		for _, r := range raw {
			op := mem.MemRead
			if r&1 != 0 {
				op = mem.MemWrite
			}
			c.Enqueue(mem.Request{Op: op, Addr: mem.Addr(r) * mem.BlockBytes})
		}
		drain(eng)
		return completed == len(raw) && c.QueueLen() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestRowHitStreakCap(t *testing.T) {
	// With a cap of 2, a long run of row hits must be broken up by
	// oldest-first picks. Construct: open row A, then queue many hits
	// to A plus one old conflict transaction; with the cap the conflict
	// completes before all hits, without it the hits all go first.
	run := func(cap int) (conflictPos int) {
		eng := event.New()
		d := dram.New(dram.DefaultConfig())
		cfg := DefaultConfig(OpenRow, RegionInterleave)
		cfg.MaxRowHitStreak = cap
		c, err := New(cfg, d, eng, 0)
		if err != nil {
			t.Fatal(err)
		}
		var order []mem.Addr
		c.Handler = func(cp Completion) { order = append(order, cp.Req.Addr) }
		c.Enqueue(mem.Request{Op: mem.MemRead, Addr: 0})
		drain(eng)
		// Conflicting address: same bank, different row.
		base := c.Mapper().Map(0)
		var conflict mem.Addr
		for b := mem.BlockAddr(16); b < 1<<22; b += 16 {
			if loc := c.Mapper().Map(b); loc.Channel == base.Channel && loc.Rank == base.Rank && loc.Bank == base.Bank && loc.Row != base.Row {
				conflict = b.Addr()
				break
			}
		}
		c.Enqueue(mem.Request{Op: mem.MemRead, Addr: conflict})
		for i := 1; i < 10; i++ {
			c.Enqueue(mem.Request{Op: mem.MemRead, Addr: mem.Addr(i * 64)}) // row hits
		}
		drain(eng)
		for i, a := range order {
			if a == conflict {
				return i
			}
		}
		t.Fatal("conflict transaction never completed")
		return -1
	}
	uncapped := run(0)
	capped := run(2)
	if capped >= uncapped {
		t.Errorf("cap must promote the starved transaction: pos %d (capped) vs %d (uncapped)", capped, uncapped)
	}
}
