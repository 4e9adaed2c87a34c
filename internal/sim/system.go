package sim

import (
	"bump/internal/addrmap"
	"bump/internal/cache"
	"bump/internal/core"
	"bump/internal/dram"
	"bump/internal/event"
	"bump/internal/mem"
	"bump/internal/memctrl"
	"bump/internal/noc"
	"bump/internal/prefetch"
	"bump/internal/scenario"
	"bump/internal/stats"
	"bump/internal/workload"
	"bump/internal/writeback"
)

// Counters are the simulator-level event counts used by the coverage and
// overhead analyses (Figs. 8 and 12).
type Counters struct {
	// DemandReads counts read transactions sent to DRAM for demand
	// misses (a demand miss that merges onto an in-flight bulk fill
	// does not count — the bulk transfer covered it).
	DemandReads uint64
	// BulkReads counts region-streaming reads issued by BuMP or
	// Full-region; PrefetchReads counts stride/SMS prefetch fills.
	BulkReads     uint64
	PrefetchReads uint64
	// LateBulkReads counts demand accesses that merged onto an
	// in-flight bulk/prefetch fill: the DRAM read was shared but the
	// data did not arrive before the request, so the paper's coverage
	// metric counts it as on-demand, not predicted.
	LateBulkReads uint64
	// DemandWrites counts ordinary dirty-eviction writebacks;
	// EagerWrites counts bulk/VWQ writebacks of still-resident blocks.
	DemandWrites uint64
	EagerWrites  uint64
	// PrematureWrites counts eagerly written-back blocks that were
	// re-dirtied before eviction (each caused an extra DRAM write).
	PrematureWrites uint64
	// LLCProbes counts generation-logic and VWQ lookups into the LLC
	// (traffic beyond demand lookups, Fig. 12).
	LLCProbes uint64
	// Instructions is the committed work+memory-op count across cores.
	Instructions uint64
	// WindowStalls/MSHRStalls/ChainStalls count core stall episodes.
	WindowStalls uint64
	MSHRStalls   uint64
	ChainStalls  uint64
}

// waiterSlot is one pooled demand-transaction record, tracking a memory
// access from core issue to data delivery. Slots live in the System's
// slab, indexed by token; next is the free-list link. A token packs the
// slot index (low 32 bits, +1 so tokens are non-zero) with the slot's
// generation (high 32 bits), so a stale token can never touch a recycled
// slot.
type waiterSlot struct {
	acc   mem.Access // the access in flight to the LLC
	pos   uint64
	issue uint64 // cycle the access left the core (for latency stats)
	core  int32
	chain uint32
	gen   uint32
	load  bool
	state uint8
	next  int32
}

const (
	waiterFree    uint8 = iota
	waiterActive        // in NOC flight to the LLC, or parked on an MSHR
	waiterClaimed       // data on its way back to the core
)

// Receiver references of the simulator's event ports: a checkpoint
// names each pending event's port by its handler name and one of these.
const (
	objRefSystem   = 0
	objRefMemctrl  = 1
	objRefCoreBase = 16 // core i is objRefCoreBase+i
)

// System is one fully wired simulated server.
type System struct {
	cfg Config
	eng *event.Engine
	// llcAccessP lands a core's access at the LLC (payload: waiter
	// token); deliverP lands the response at the core (payload: token,
	// block).
	llcAccessP, deliverP event.Port

	cores    []*coreRunner
	llc      *cache.Cache
	llcMSHRs *cache.MSHRTable
	xbar     *noc.Crossbar
	mc       *memctrl.Controller
	dram     *dram.DRAM
	prof     *Profile // nil unless cfg.Profile

	bump        *core.Predictor
	pf          prefetch.Prefetcher
	vwq         *writeback.VWQ
	regionShift uint
	carriesPC   bool

	// dirtyCount holds each region's dirty-block count in the LLC.
	dirtyCount addrmap.Map[mem.RegionAddr, int]
	waiters    []waiterSlot
	freeWaiter int32

	counters Counters
	// scratch is the reusable buffer for region scans on the bulk
	// generation paths.
	scratch []mem.BlockAddr
	// loadLatency counts demand-load round trips (issue to data back at
	// the core, in whole cycles) within the measurement window.
	loadLatency stats.Dist

	// primed records that the cores' initial advance events have been
	// posted; a restored system arrives primed (its events are in the
	// queue) and must not be re-armed.
	primed bool
	// base is the measurement baseline: the counter snapshot taken the
	// moment the warmup window completes. It is part of the
	// checkpointable state so a run split after the warmup boundary
	// still reports exact measurement-window deltas.
	base      snap
	baseTaken bool
}

// New builds a system from cfg.
func New(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	eng := event.New()
	d := dram.New(cfg.DRAM)
	// The controller starts with the canonical zero cap; runTo applies
	// the configured one at the bind cycle.
	ctrlCfg := cfg.controllerConfig()
	ctrlCfg.MaxRowHitStreak = 0
	mc, err := memctrl.New(ctrlCfg, d, eng, objRefMemctrl)
	if err != nil {
		return nil, err
	}
	s := &System{
		cfg:         cfg,
		eng:         eng,
		llc:         cache.New(cfg.LLCBytes, cfg.LLCWays),
		llcMSHRs:    cache.NewMSHRTable(1 << 16), // effectively unbounded fill queue
		xbar:        noc.New(cfg.NOCLatencyCycles),
		mc:          mc,
		dram:        d,
		regionShift: cfg.BuMP.RegionShift,
		freeWaiter:  -1,
	}
	mc.Handler = s.onMemComplete
	s.llcAccessP = eng.Port("sim.llcAccess", objRefSystem, func(tok, _ uint64) { s.llcAccess(tok) })
	s.deliverP = eng.Port("sim.deliver", objRefSystem, func(tok, blk uint64) { s.deliver(tok, mem.BlockAddr(blk)) })
	if cfg.Profile {
		s.prof = NewProfile(cfg.BuMP.RegionShift)
	}

	switch cfg.Mechanism {
	case BaseClose, BaseOpen:
		s.pf = prefetch.DefaultStride()
	case SMSOnly:
		s.pf = prefetch.DefaultSMS()
	case VWQOnly:
		s.pf = prefetch.DefaultStride()
		s.vwq = writeback.Default()
	case SMSVWQ:
		s.pf = prefetch.DefaultSMS()
		s.vwq = writeback.Default()
	case FullRegion:
		bc := cfg.BuMP
		bc.FullRegion = true
		s.bump = core.New(bc)
	case BuMP:
		s.bump = core.New(cfg.BuMP)
		s.carriesPC = true
	case BuMPVWQ:
		s.bump = core.New(cfg.BuMP)
		s.carriesPC = true
		s.vwq = writeback.Default()
	}
	if cfg.DisablePrefetcher {
		s.pf = nil
	}

	s.cores = make([]*coreRunner, cfg.Cores)
	for i := range s.cores {
		var stream workload.Stream
		if cfg.Scenario.Enabled() {
			tl, err := cfg.Scenario.TimelineFor(i)
			if err != nil {
				return nil, err
			}
			comp, err := scenario.NewComposite(tl, workload.CoreSeed(cfg.Seed, i))
			if err != nil {
				return nil, err
			}
			stream = comp
		} else {
			gen, err := workload.NewGenerator(cfg.Workload, workload.CoreSeed(cfg.Seed, i))
			if err != nil {
				return nil, err
			}
			stream = gen
		}
		c := &coreRunner{
			id:     i,
			sys:    s,
			stream: stream,
			l1:     cache.New(cfg.L1Bytes, cfg.L1Ways),
			chains: make(map[uint32]bool),
		}
		ref := objRefCoreBase + uint32(i)
		c.advanceP = eng.Port("sim.coreAdvance", ref, func(_, _ uint64) { c.advance() })
		c.chainDoneP = eng.Port("sim.chainDone", ref, func(chain, _ uint64) { c.chainDone(uint32(chain)) })
		s.cores[i] = c
	}
	return s, nil
}

// Engine exposes the event engine (tests drive it directly).
func (s *System) Engine() *event.Engine { return s.eng }

// Predictor exposes the BuMP predictor, if the mechanism has one.
func (s *System) Predictor() *core.Predictor { return s.bump }

// allocWaiter hands the issuing core a waiter token for an access
// leaving for the LLC, allocating its slab slot.
func (s *System) allocWaiter(acc mem.Access, core int, load bool, pos uint64, issue uint64) uint64 {
	idx := s.freeWaiter
	if idx >= 0 {
		s.freeWaiter = s.waiters[idx].next
	} else {
		s.waiters = append(s.waiters, waiterSlot{})
		idx = int32(len(s.waiters) - 1)
	}
	w := &s.waiters[idx]
	w.acc, w.core, w.load, w.pos, w.chain, w.issue = acc, int32(core), load, pos, acc.Chain, issue
	w.state = waiterActive
	return waiterTok(idx, w.gen)
}

// waiterTok is the token of slab slot idx at generation gen.
func waiterTok(idx int32, gen uint32) uint64 { return uint64(gen)<<32 | uint64(uint32(idx+1)) }

// waiterByTok resolves a token, returning nil for stale or invalid ones.
func (s *System) waiterByTok(tok uint64) (int32, *waiterSlot) {
	idx := int32(uint32(tok)) - 1
	if idx < 0 || int(idx) >= len(s.waiters) {
		return -1, nil
	}
	w := &s.waiters[idx]
	if w.gen != uint32(tok>>32) || w.state == waiterFree {
		return -1, nil
	}
	return idx, w
}

func (s *System) freeWaiterSlot(idx int32) {
	w := &s.waiters[idx]
	w.gen++
	w.state = waiterFree
	w.next = s.freeWaiter
	s.freeWaiter = idx
}

// ---- core model ------------------------------------------------------

type coreRunner struct {
	id     int
	sys    *System
	stream workload.Stream
	l1     *cache.Cache
	// advanceP runs the issue loop; chainDoneP ends a dependent chain
	// after an L1 hit (payload: chain id).
	advanceP, chainDoneP event.Port

	cur     mem.Access
	hasCur  bool
	freeAt  uint64
	pos     uint64   // retired-instruction position
	pending []uint64 // program positions of outstanding blocking loads
	mshrs   int
	chains  map[uint32]bool

	instructions uint64
	armed        bool
}

func (c *coreRunner) arm(at uint64) {
	if c.armed {
		return
	}
	c.armed = true
	c.sys.eng.Post(at, c.advanceP, 0, 0)
}

func (c *coreRunner) wake() {
	if !c.armed {
		c.arm(c.sys.eng.Now())
	}
}

// advance is the core's issue loop: consume work, respect the
// out-of-order window, dependent chains and MSHR limits, then hand memory
// accesses to the LLC over the NOC.
func (c *coreRunner) advance() {
	c.armed = false
	s := c.sys
	now := s.eng.Now()
	if now < c.freeAt {
		c.arm(c.freeAt)
		return
	}
	for spins := 0; spins < 64; spins++ {
		if !c.hasCur {
			c.cur = c.stream.Next()
			c.hasCur = true
		}
		a := &c.cur

		// Data dependency: a chained access waits for the previous
		// link's data.
		if a.Chain != 0 && c.chains[a.Chain] {
			s.counters.ChainStalls++
			return // chain completion wakes us
		}
		// Window: the oldest outstanding load blocks retirement; we
		// cannot run more than WindowSize instructions past it.
		newPos := c.pos + uint64(a.Work) + 1
		if len(c.pending) > 0 && newPos-c.pending[0] > uint64(s.cfg.WindowSize) {
			s.counters.WindowStalls++
			return // load completion wakes us
		}

		isLoad := a.Type == mem.Load
		block := a.Addr.Block()
		l1Hit := isLoad && c.l1.Lookup(block, true) != cache.NoWay
		if !l1Hit && c.mshrs >= s.cfg.L1MSHRs {
			s.counters.MSHRStalls++
			return // MSHR release wakes us
		}

		// Commit the access.
		c.pos = newPos
		c.instructions += uint64(a.Work) + 1
		acc := c.cur
		c.hasCur = false
		w := (uint64(a.Work) + uint64(s.cfg.RetireWidth) - 1) / uint64(s.cfg.RetireWidth)
		issueAt := now + w
		c.freeAt = issueAt

		if l1Hit {
			if acc.Chain != 0 {
				c.chains[acc.Chain] = true
				done := issueAt + s.cfg.L1LatencyCycles
				s.eng.Post(done, c.chainDoneP, uint64(acc.Chain), 0)
			}
		} else {
			c.mshrs++
			if isLoad {
				c.pending = append(c.pending, c.pos)
				if acc.Chain != 0 {
					c.chains[acc.Chain] = true
				}
			}
			tok := s.allocWaiter(acc, c.id, isLoad, c.pos, issueAt)
			lat := s.xbar.Send(noc.Control, s.carriesPC)
			s.eng.Post(issueAt+lat, s.llcAccessP, tok, 0)
		}

		if c.freeAt > now {
			c.arm(c.freeAt)
			return
		}
	}
	// Yield after many zero-work issues to keep events bounded.
	c.arm(now + 1)
}

func (c *coreRunner) chainDone(chain uint32) {
	delete(c.chains, chain)
	c.wake()
}

// ---- LLC and memory path ---------------------------------------------

// llcAccess handles a demand access arriving at the LLC. The access
// itself rides in the token's waiter slot.
func (s *System) llcAccess(tok uint64) {
	_, w := s.waiterByTok(tok)
	if w == nil || w.state != waiterActive {
		return
	}
	a := w.acc
	b := a.Addr.Block()
	isStore := a.Type == mem.Store
	now := s.eng.Now()

	if s.prof != nil {
		s.prof.OnDemandAccess(b)
	}
	if s.bump != nil {
		s.bump.Touch(a.PC, b, isStore)
	}

	core := int(w.core)
	if way := s.llc.Lookup(b, true); way != cache.NoWay {
		if isStore {
			s.markDirty(way, b)
		}
		s.finishWaiter(tok, b, now+s.cfg.LLCLatencyCycles)
		if !isStore && s.pf != nil {
			s.issuePrefetches(s.pf.OnAccess(core, a.PC, b, false), a.PC)
		}
		return
	}

	// LLC miss.
	if _, merged, _ := s.llcMSHRs.Allocate(b, true, tok); !merged {
		kind := mem.ReadDemandLoad
		if isStore {
			kind = mem.ReadDemandStore
		}
		s.counters.DemandReads++
		s.mc.Enqueue(mem.Request{
			Op: mem.MemRead, Kind: kind, Addr: b.Addr(), PC: a.PC,
			Core: core, Issue: now,
		})
		if s.bump != nil {
			if stream, pattern := s.bump.ReadMissFootprint(a.PC, b); stream {
				s.generateBulkRead(a.PC, b, pattern)
			}
		}
	}
	if !isStore && s.pf != nil {
		s.issuePrefetches(s.pf.OnAccess(core, a.PC, b, true), a.PC)
	}
}

// generateBulkRead is BuMP's access generation logic: stream every
// not-yet-cached block of the region covered by the predicted pattern
// (except the demand trigger). The paper's design passes a whole-region
// pattern; the footprint ablation restricts it.
func (s *System) generateBulkRead(pc mem.PC, trigger mem.BlockAddr, pattern uint64) {
	region := trigger.Region(s.regionShift)
	// The generation logic reads the region's tags in wide, banked
	// tag-array accesses (4 tags per probe).
	s.counters.LLCProbes += uint64(mem.BlocksPerRegion(s.regionShift)+3) / 4
	s.scratch = s.llc.AppendMissingBlocksInRegion(s.scratch[:0], region, s.regionShift, trigger)
	for _, nb := range s.scratch {
		if pattern&(1<<nb.Offset(s.regionShift)) == 0 {
			continue
		}
		if _, outstanding := s.llcMSHRs.Lookup(nb); outstanding {
			continue
		}
		s.llcMSHRs.Allocate(nb, false, 0)
		s.counters.BulkReads++
		s.mc.Enqueue(mem.Request{
			Op: mem.MemRead, Kind: mem.ReadPrefetch, Addr: nb.Addr(), PC: pc,
			Bulk: true, BulkGroup: uint64(region) + 1, Issue: s.eng.Now(),
		})
	}
}

// issuePrefetches files stride/SMS prefetch candidates.
func (s *System) issuePrefetches(blocks []mem.BlockAddr, pc mem.PC) {
	for _, nb := range blocks {
		if s.llc.Contains(nb) {
			continue
		}
		if _, outstanding := s.llcMSHRs.Lookup(nb); outstanding {
			continue
		}
		s.llcMSHRs.Allocate(nb, false, 0)
		s.counters.PrefetchReads++
		s.mc.Enqueue(mem.Request{
			Op: mem.MemRead, Kind: mem.ReadPrefetch, Addr: nb.Addr(), PC: pc,
			Issue: s.eng.Now(),
		})
	}
}

// finishWaiter claims a waiter and starts the data (or store-ack) trip
// back to the requesting core; deliver completes it.
func (s *System) finishWaiter(tok uint64, b mem.BlockAddr, at uint64) {
	_, w := s.waiterByTok(tok)
	if w == nil || w.state != waiterActive {
		return
	}
	w.state = waiterClaimed
	if w.load {
		s.xbar.Send(noc.Data, false)
	}
	s.eng.Post(at+s.cfg.NOCLatencyCycles, s.deliverP, tok, uint64(b))
}

// deliver lands the response at the core: latency accounting, MSHR and
// window release, L1 fill for loads, and a core wakeup. The waiter slot
// is recycled here.
func (s *System) deliver(tok uint64, b mem.BlockAddr) {
	idx, w := s.waiterByTok(tok)
	if w == nil || w.state != waiterClaimed {
		return
	}
	load, pos, chain, issue := w.load, w.pos, w.chain, w.issue
	cr := s.cores[w.core]
	now := s.eng.Now()
	s.freeWaiterSlot(idx)
	if load && now >= s.cfg.WarmupCycles && now < s.cfg.WarmupCycles+s.cfg.MeasureCycles {
		s.loadLatency.Add(now - issue)
	}
	cr.mshrs--
	if load {
		for i, p := range cr.pending {
			if p == pos {
				cr.pending = append(cr.pending[:i], cr.pending[i+1:]...)
				break
			}
		}
		if chain != 0 {
			delete(cr.chains, chain)
		}
		cr.l1.Fill(b, false)
	}
	cr.wake()
}

// markDirty transitions the LLC line of block b at way to dirty,
// maintaining the region dirty-count and premature-writeback accounting.
func (s *System) markDirty(way cache.Way, b mem.BlockAddr) {
	f := s.llc.Flags(way)
	if f&cache.Dirty != 0 {
		return
	}
	if f&cache.Cleaned != 0 {
		s.counters.PrematureWrites++
	}
	s.llc.SetFlags(way, f&^cache.Cleaned|cache.Dirty)
	n, _ := s.dirtyCount.Upsert(b.Region(s.regionShift))
	*n++
	if s.prof != nil {
		s.prof.OnDirty(b)
	}
}

// decDirty drops one dirty block of region r (b is that block); the
// region's write epoch ends with its last dirty block.
func (s *System) decDirty(r mem.RegionAddr, b mem.BlockAddr) {
	if n := s.dirtyCount.Find(r); n != nil && *n > 1 {
		*n--
		return
	}
	s.dirtyCount.Delete(r)
	if s.prof != nil {
		s.prof.OnWriteEpochEnd(b)
	}
}

// onMemComplete handles DRAM completions: writebacks finish silently;
// read fills install blocks, trigger evictions, and wake waiters.
func (s *System) onMemComplete(cp memctrl.Completion) {
	b := cp.Req.Addr.Block()
	if cp.Req.Op == mem.MemWrite {
		if s.prof != nil {
			s.prof.OnDRAMWrite(b)
		}
		return
	}

	if s.prof != nil && cp.Req.Kind != mem.ReadPrefetch {
		s.prof.OnDRAMRead(b, cp.Req.Kind == mem.ReadDemandStore)
	}
	way, ev := s.llc.Fill(b, cp.Req.Kind == mem.ReadPrefetch)
	if ev.Valid {
		s.onEvict(ev.Line)
	}
	if m, ok := s.llcMSHRs.Complete(b); ok {
		now := s.eng.Now()
		for _, tok := range m.Waiters {
			_, w := s.waiterByTok(tok)
			if w == nil || w.state != waiterActive {
				continue
			}
			if f := s.llc.Flags(way); f&(cache.Prefetched|cache.Referenced) == cache.Prefetched {
				// The demand request raced the bulk/prefetch fill:
				// the block is used, but it was not timely.
				s.counters.LateBulkReads++
				s.llc.SetFlags(way, f|cache.Referenced)
			}
			if !w.load {
				s.markDirty(way, b)
			}
			s.finishWaiter(tok, b, now+s.cfg.LLCLatencyCycles)
		}
		s.llcMSHRs.Release(m)
	}
}

// llcProber adapts the LLC for VWQ's adjacent-block search.
type llcProber struct{ s *System }

// ProbeDirty implements writeback.DirtyProber.
func (p llcProber) ProbeDirty(b mem.BlockAddr) bool {
	p.s.counters.LLCProbes++
	way := p.s.llc.Lookup(b, false)
	return way != cache.NoWay && p.s.llc.Flags(way)&cache.Dirty != 0
}

// onEvict processes an LLC eviction: writeback, BuMP termination/DRT,
// VWQ eager writeback, SMS generation closure, density profiling.
func (s *System) onEvict(l cache.Line) {
	b := l.Block
	dirty := l.Flags&cache.Dirty != 0
	region := b.Region(s.regionShift)
	if s.prof != nil {
		s.prof.OnEvict(b)
	}
	if s.pf != nil {
		s.pf.OnEvict(b)
	}

	var bulkWB bool
	if s.bump != nil {
		bulkWB = s.bump.Evict(b, dirty)
	}

	if dirty {
		s.counters.DemandWrites++
		s.mc.Enqueue(mem.Request{Op: mem.MemWrite, Addr: b.Addr(), Issue: s.eng.Now()})
		s.decDirty(region, b)
		// With BuMP+VWQ, VWQ handles only the dirty evictions BuMP did
		// not claim (non-high-density regions, Section V.G footnote).
		if s.vwq != nil && !bulkWB {
			for _, nb := range s.vwq.OnDirtyEvict(b, llcProber{s}) {
				s.llc.CleanBlock(nb)
				s.counters.EagerWrites++
				s.decDirty(nb.Region(s.regionShift), nb)
				s.mc.Enqueue(mem.Request{Op: mem.MemWrite, Addr: nb.Addr(), Bulk: true, Issue: s.eng.Now()})
			}
		}
	}

	if bulkWB {
		s.counters.LLCProbes += uint64(mem.BlocksPerRegion(s.regionShift)+3) / 4
		s.scratch = s.llc.AppendDirtyBlocksInRegion(s.scratch[:0], region, s.regionShift)
		for _, db := range s.scratch {
			s.llc.CleanBlock(db)
			s.counters.EagerWrites++
			s.decDirty(region, db)
			s.mc.Enqueue(mem.Request{
				Op: mem.MemWrite, Addr: db.Addr(), Bulk: true,
				BulkGroup: uint64(region) + 1, Issue: s.eng.Now(),
			})
		}
	}
}
