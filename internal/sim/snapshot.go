package sim

import (
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"

	"bump/internal/addrmap"
	"bump/internal/mem"
	"bump/internal/snapshot"
)

// structuralDigestVersion versions the structural-compatibility check.
// Bump alongside snapshot.FormatVersion when restore semantics change.
// v2: Config gained the Scenario field (covered by the digest walk), so
// v1 checkpoints are rejected with a clear incompatibility error.
// v3: ForkAt/ForkCycles joined MeasureCycles and MaxRowHitStreak as
// measured (digest-excluded) parameters — a checkpoint-tree node is
// shared across every fork schedule of the same structure.
// v4: Config gained Profile (covered by the digest walk), so a profiled
// system never restores a checkpoint that lacks the profiler's state.
const structuralDigestVersion = "bump-snapshot-struct-v4"

// structuralDigest identifies the configurations a snapshot can restore
// into: every Config field except the *measured* parameters —
// MeasureCycles, MaxRowHitStreak, ForkAt and ForkCycles, which shape only
// the measurement window, never the structure or the warmed state.
// Sweeping a measured parameter across a shared warm checkpoint is
// therefore exact functional warmup, not an approximation of a different
// machine. The walk covers Config itself, with those fields zeroed, so a
// new Config field joins the digest automatically.
func structuralDigest(cfg Config) ([32]byte, error) {
	cfg.MeasureCycles, cfg.MaxRowHitStreak = 0, 0
	cfg.ForkAt, cfg.ForkCycles = 0, nil
	return snapshot.CanonicalDigest(structuralDigestVersion, cfg)
}

// latePrefix names the measured-parameter trajectory the simulated
// state has followed up to absolute cycle `at`: "" up to the bind cycle,
// or whenever every measured parameter holds its canonical zero value
// (the shared trunk), else the bound values and their bind cycle.
// Snapshots write it as the last field of their meta section so a
// restore can refuse state whose pre-cut trajectory diverges from what
// the target config would have simulated.
func latePrefix(cfg Config, at uint64) string {
	bind := cfg.BindCycle()
	if cfg.MaxRowHitStreak == 0 || at <= bind {
		return ""
	}
	return fmt.Sprintf("streak=%d@%d", cfg.MaxRowHitStreak, bind)
}

// forkNodeVersion versions checkpoint-tree node keying. Bump alongside
// structuralDigestVersion.
const forkNodeVersion = "bump-warmtree-v1"

// ForkNodeKey returns the checkpoint-tree node key for cfg's canonical
// trunk at the given cut cycle. Cuts at or before the warmup boundary
// collapse onto the tree root — the plain WarmKey — so warmup-end
// checkpoints keep their established digest in the memory and blob
// tiers and as the cluster's affinity key. Deeper nodes get their own
// content address over (structural digest, cut). Keys are lowercase
// hex, blob-store safe. ok is false when cfg is not warm-cacheable.
func ForkNodeKey(cfg Config, cut uint64) (key string, ok bool) {
	if cut <= cfg.WarmupCycles {
		return WarmKey(cfg)
	}
	if cfg.WarmupCycles == 0 {
		return "", false
	}
	sd, err := structuralDigest(cfg)
	if err != nil {
		return "", false
	}
	d, err := snapshot.CanonicalDigest(forkNodeVersion, struct {
		Structural [32]byte
		Cut        uint64
	}{sd, cut})
	if err != nil {
		return "", false
	}
	return hex.EncodeToString(d[:]), true
}

// WarmKey returns the warm-checkpoint cache key for cfg: configurations
// with equal keys share identical warmup trajectories and may restore
// one another's warmup-end checkpoints. ok is false for a configuration
// without a warmup window, which has no warmup-end state to share.
func WarmKey(cfg Config) (key string, ok bool) {
	if cfg.WarmupCycles == 0 {
		return "", false
	}
	d, err := structuralDigest(cfg)
	if err != nil {
		return "", false
	}
	return hex.EncodeToString(d[:]), true
}

// Snapshot serializes the complete simulator state — event queue, caches
// and MSHRs, predictor tables, memory-system queues and bank state,
// workload stream positions, and every statistics counter — as one
// versioned, deterministic, CRC-framed binary blob. Restoring it into a
// freshly built System of the same structural configuration resumes the
// run bit-identically: the continued run dispatches the exact event
// sequence, and reports the exact statistics, of an uninterrupted one.
func (s *System) Snapshot(out io.Writer) error {
	w := snapshot.NewWriter()
	if err := s.writeState(w); err != nil {
		return err
	}
	return w.Flush(out)
}

func (s *System) writeState(w *snapshot.Writer) error {
	digest, err := structuralDigest(s.cfg)
	if err != nil {
		return fmt.Errorf("sim: snapshot: %w", err)
	}
	w.Section("meta")
	w.Bytes(digest[:])
	w.U8(uint8(s.cfg.Mechanism))
	w.String(s.cfg.WorkloadLabel())
	w.I64(s.cfg.Seed)
	w.U32(uint32(s.cfg.Cores))
	w.U64(s.eng.Now())
	w.String(latePrefix(s.cfg, s.eng.Now()))

	s.eng.Snapshot(w)

	w.Section("system")
	w.Bool(s.primed)
	w.Any(s.counters)
	w.Bool(s.baseTaken)
	if s.baseTaken {
		writeStatsSnap(w, s.base)
	}

	// Region dirty counts, sorted for canonical bytes.
	regions := slices.Sorted(s.dirtyCount.Keys())
	w.U32(uint32(len(regions)))
	for _, r := range regions {
		w.U64(uint64(r))
		w.I64(int64(*s.dirtyCount.Find(r)))
	}

	// Waiter slab: preserved slot-for-slot (tokens in flight embed slot
	// indices and generations). Free slots reduce to their generation
	// and free-list link.
	w.U32(uint32(len(s.waiters)))
	for i := range s.waiters {
		sl := &s.waiters[i]
		w.U8(sl.state)
		w.U32(sl.gen)
		if sl.state == waiterFree {
			w.I64(int64(sl.next))
			continue
		}
		writeAccess(w, sl.acc)
		w.U64(sl.pos)
		w.U64(sl.issue)
		w.I64(int64(sl.core))
		w.U32(sl.chain)
		w.Bool(sl.load)
	}
	w.I64(int64(s.freeWaiter))
	s.loadLatency.SnapshotTo(w)

	if s.prof != nil {
		writeProfile(w, s.prof)
	}
	s.llc.SnapshotTo(w)
	s.llcMSHRs.SnapshotTo(w)
	s.xbar.SnapshotTo(w)
	s.mc.SnapshotTo(w)
	s.dram.SnapshotTo(w)

	w.Section("mechanism")
	w.Bool(s.bump != nil)
	if s.bump != nil {
		s.bump.SnapshotTo(w)
	}
	w.Bool(s.pf != nil)
	if s.pf != nil {
		s.pf.SnapshotTo(w)
	}
	w.Bool(s.vwq != nil)
	if s.vwq != nil {
		s.vwq.SnapshotTo(w)
	}

	w.Section("cores")
	for _, c := range s.cores {
		writeAccess(w, c.cur)
		w.Bool(c.hasCur)
		w.U64(c.freeAt)
		w.U64(c.pos)
		w.U32(uint32(len(c.pending)))
		for _, p := range c.pending {
			w.U64(p)
		}
		w.I64(int64(c.mshrs))
		chains := make([]uint32, 0, len(c.chains))
		for ch := range c.chains {
			chains = append(chains, ch)
		}
		sort.Slice(chains, func(i, j int) bool { return chains[i] < chains[j] })
		w.U32(uint32(len(chains)))
		for _, ch := range chains {
			w.U32(ch)
		}
		w.U64(c.instructions)
		w.Bool(c.armed)
		c.l1.SnapshotTo(w)
		w.U64(c.stream.StreamFingerprint())
		w.U64(c.stream.StreamPos())
	}
	return nil
}

// Restore replaces a freshly built System's state with a checkpoint's.
// The system must have been built from a structurally identical
// configuration (same everything except the measured parameters —
// MeasureCycles and MaxRowHitStreak may differ, which is what warmed
// sweeps exploit). Restore into a system that has already run is an
// error. On failure the system is in an undefined state and must be
// discarded.
func (s *System) Restore(in io.Reader) error {
	if s.primed || s.eng.Executed > 0 || s.eng.Now() > 0 {
		return errors.New("sim: Restore requires a freshly built System")
	}
	r, err := snapshot.NewReader(in)
	if err != nil {
		return err
	}
	return s.readState(r)
}

// restoreInPlace is Restore for a freshly built System from checkpoint
// bytes held in memory. The body is decoded where it lies
// (snapshot.Open), so concurrent restores of one cached node share its
// bytes instead of each copying them; no restored state aliases data.
func (s *System) restoreInPlace(data []byte) error {
	r, err := snapshot.Open(data)
	if err != nil {
		return err
	}
	return s.readState(r)
}

func (s *System) readState(r *snapshot.Reader) error {
	want, err := structuralDigest(s.cfg)
	if err != nil {
		return fmt.Errorf("sim: restore: %w", err)
	}
	r.Section("meta")
	got := r.Bytes()
	mech := r.U8()
	wl := r.String()
	seed := r.I64()
	cores := r.U32()
	cycle := r.U64()
	prefix := r.String()
	if r.Err() != nil {
		return r.Err()
	}
	if string(got) != string(want[:]) {
		return fmt.Errorf("sim: snapshot of %s/%s seed %d (%d cores, cycle %d) is structurally incompatible with this configuration",
			Mechanism(mech), wl, seed, cores, cycle)
	}
	// The checkpoint's measured-parameter trajectory up to its cut must
	// match what this configuration would itself have simulated. Up to
	// the bind cycle that is the canonical trunk for every
	// configuration, which is what lets siblings share a node.
	if want := latePrefix(s.cfg, cycle); prefix != want {
		return fmt.Errorf("sim: checkpoint cut at cycle %d followed measured-parameter trajectory %q; this configuration expects %q",
			cycle, prefix, want)
	}

	if err := s.eng.Restore(r); err != nil {
		return err
	}

	r.Section("system")
	s.primed = r.Bool()
	r.AnyInto(&s.counters)
	s.baseTaken = r.Bool()
	if s.baseTaken {
		if err := readStatsSnap(r, &s.base); err != nil {
			return err
		}
	} else {
		s.base = snap{}
	}

	nDirty := r.Len(8 + 8)
	if r.Err() != nil {
		return r.Err()
	}
	s.dirtyCount = addrmap.Map[mem.RegionAddr, int]{}
	for i := 0; i < nDirty; i++ {
		region := mem.RegionAddr(r.U64())
		count := int(r.I64())
		if r.Err() != nil {
			return r.Err()
		}
		if count <= 0 {
			return fmt.Errorf("sim: restore: non-positive dirty count for region %#x", uint64(region))
		}
		n, err := restoreRegion(&s.dirtyCount, region, "dirty count")
		if err != nil {
			return err
		}
		*n = count
	}

	nWaiters := r.Len(1 + 4)
	if r.Err() != nil {
		return r.Err()
	}
	s.waiters = make([]waiterSlot, nWaiters)
	for i := range s.waiters {
		sl := &s.waiters[i]
		sl.state = r.U8()
		sl.gen = r.U32()
		if r.Err() != nil {
			return r.Err()
		}
		if sl.state > waiterClaimed {
			return fmt.Errorf("sim: restore: bad waiter state %d", sl.state)
		}
		if sl.state == waiterFree {
			next := r.I64()
			if next < -1 || next >= int64(nWaiters) {
				return fmt.Errorf("sim: restore: waiter free link %d out of range", next)
			}
			sl.next = int32(next)
			continue
		}
		acc, err := readAccess(r)
		if err != nil {
			return err
		}
		sl.acc = acc
		sl.pos = r.U64()
		sl.issue = r.U64()
		core := r.I64()
		if core < 0 || core >= int64(len(s.cores)) {
			return fmt.Errorf("sim: restore: waiter core %d out of range", core)
		}
		sl.core = int32(core)
		sl.chain = r.U32()
		sl.load = r.Bool()
		sl.next = -1
	}
	freeWaiter := r.I64()
	if r.Err() != nil {
		return r.Err()
	}
	if freeWaiter < -1 || freeWaiter >= int64(nWaiters) {
		return fmt.Errorf("sim: restore: waiter free head %d out of range", freeWaiter)
	}
	s.freeWaiter = int32(freeWaiter)
	if err := s.loadLatency.RestoreFrom(r); err != nil {
		return err
	}

	if s.prof != nil {
		if err := readProfile(r, s.prof); err != nil {
			return err
		}
	}
	if err := s.llc.RestoreFrom(r); err != nil {
		return err
	}
	if err := s.llcMSHRs.RestoreFrom(r); err != nil {
		return err
	}
	if err := s.checkIssueCycles(cycle); err != nil {
		return err
	}
	if err := s.xbar.RestoreFrom(r); err != nil {
		return err
	}
	if err := s.mc.RestoreFrom(r); err != nil {
		return err
	}
	if err := s.dram.RestoreFrom(r); err != nil {
		return err
	}

	r.Section("mechanism")
	if hasBump := r.Bool(); r.Err() == nil {
		if hasBump != (s.bump != nil) {
			return errors.New("sim: restore: predictor presence mismatch")
		}
		if hasBump {
			if err := s.bump.RestoreFrom(r); err != nil {
				return err
			}
		}
	}
	if hasPf := r.Bool(); r.Err() == nil {
		if hasPf != (s.pf != nil) {
			return errors.New("sim: restore: prefetcher presence mismatch")
		}
		if hasPf {
			if err := s.pf.RestoreFrom(r); err != nil {
				return err
			}
		}
	}
	if hasVWQ := r.Bool(); r.Err() == nil {
		if hasVWQ != (s.vwq != nil) {
			return errors.New("sim: restore: VWQ presence mismatch")
		}
		if hasVWQ {
			if err := s.vwq.RestoreFrom(r); err != nil {
				return err
			}
		}
	}
	if r.Err() != nil {
		return r.Err()
	}

	r.Section("cores")
	for _, c := range s.cores {
		acc, err := readAccess(r)
		if err != nil {
			return err
		}
		c.cur = acc
		c.hasCur = r.Bool()
		c.freeAt = r.U64()
		c.pos = r.U64()
		nPending := r.Len(8)
		if r.Err() != nil {
			return r.Err()
		}
		c.pending = make([]uint64, nPending)
		for i := range c.pending {
			c.pending[i] = r.U64()
		}
		c.mshrs = int(r.I64())
		nChains := r.Len(4)
		if r.Err() != nil {
			return r.Err()
		}
		c.chains = make(map[uint32]bool, nChains)
		for i := 0; i < nChains; i++ {
			c.chains[r.U32()] = true
		}
		c.instructions = r.U64()
		c.armed = r.Bool()
		if err := c.l1.RestoreFrom(r); err != nil {
			return err
		}
		fp := r.U64()
		pos := r.U64()
		if r.Err() != nil {
			return r.Err()
		}
		// The structural digest covers the parameters each stream is
		// built from; the fingerprint checks the stream itself, so a
		// checkpoint never resumes under a sequence other than the one
		// it saved.
		if got := c.stream.StreamFingerprint(); got != fp {
			return fmt.Errorf("sim: restore: core %d stream carries a different access sequence than the checkpoint", c.id)
		}
		if err := c.stream.SeekStream(pos); err != nil {
			return err
		}
	}
	return r.Finish()
}

// checkIssueCycles refuses a waiter that could deliver before its issue
// cycle: its load-latency sample would wrap. A waiter issued past the
// checkpoint's clock is still in NOC flight to the LLC, so it is
// active, no MSHR holds its token, and every pending llcAccess naming
// it runs at or after its issue cycle.
func (s *System) checkIssueCycles(cycle uint64) error {
	ahead := make(map[uint64]uint64) // token -> issue cycle past the clock
	for i := range s.waiters {
		w := &s.waiters[i]
		if w.state == waiterFree || w.issue <= cycle {
			continue
		}
		if w.state != waiterActive {
			return fmt.Errorf("sim: restore: waiter %d holds its data before its issue cycle %d (clock %d)", i, w.issue, cycle)
		}
		ahead[waiterTok(int32(i), w.gen)] = w.issue
	}
	if len(ahead) == 0 {
		return nil
	}
	for m := range s.llcMSHRs.All() {
		for _, tok := range m.Waiters {
			if issue, ok := ahead[tok]; ok {
				return fmt.Errorf("sim: restore: a waiter issued at cycle %d, past the clock %d, waits on an MSHR", issue, cycle)
			}
		}
	}
	return s.eng.EachPending(s.llcAccessP, func(at, tok, _ uint64) error {
		if issue, ok := ahead[tok]; ok && at < issue {
			return fmt.Errorf("sim: restore: a waiter issued at cycle %d reaches the LLC at cycle %d", issue, at)
		}
		return nil
	})
}

func writeAccess(w *snapshot.Writer, a mem.Access) {
	w.U64(uint64(a.PC))
	w.U64(uint64(a.Addr))
	w.U8(uint8(a.Type))
	w.U32(a.Work)
	w.U32(a.Chain)
}

func readAccess(r *snapshot.Reader) (mem.Access, error) {
	var a mem.Access
	a.PC = mem.PC(r.U64())
	a.Addr = mem.Addr(r.U64())
	t := r.U8()
	if r.Err() != nil {
		return a, r.Err()
	}
	if t > uint8(mem.Store) {
		return a, fmt.Errorf("sim: restore: bad access type %d", t)
	}
	a.Type = mem.AccessType(t)
	a.Work = r.U32()
	a.Chain = r.U32()
	return a, r.Err()
}

func writeStatsSnap(w *snapshot.Writer, sn snap) {
	w.U64(sn.cycles)
	w.Any(sn.dram)
	w.Any(sn.ctrl)
	w.Any(sn.llc)
	w.Any(sn.noc)
	w.Any(sn.prof)
	w.Any(sn.cnt)
}

func readStatsSnap(r *snapshot.Reader, sn *snap) error {
	sn.cycles = r.U64()
	r.AnyInto(&sn.dram)
	r.AnyInto(&sn.ctrl)
	r.AnyInto(&sn.llc)
	r.AnyInto(&sn.noc)
	r.AnyInto(&sn.prof)
	r.AnyInto(&sn.cnt)
	return r.Err()
}

func writeProfile(w *snapshot.Writer, p *Profile) {
	w.Section("profile")
	w.U32(uint32(p.regionShift))
	w.Any(p.ProfileCounters)
	readRegions := slices.Sorted(p.readGens.Keys())
	w.U32(uint32(len(readRegions)))
	for _, region := range readRegions {
		g := p.readGens.Find(region)
		w.U64(uint64(region))
		w.U64(g.pattern)
		w.U64(g.reads)
	}
	writeRegions := slices.Sorted(p.writeGens.Keys())
	w.U32(uint32(len(writeRegions)))
	for _, region := range writeRegions {
		g := p.writeGens.Find(region)
		w.U64(uint64(region))
		w.U64(g.dirtied)
		w.U64(g.writebacks)
		w.Bool(g.closed)
	}
}

func readProfile(r *snapshot.Reader, p *Profile) error {
	r.Section("profile")
	shift := r.U32()
	if r.Err() != nil {
		return r.Err()
	}
	if uint(shift) != p.regionShift {
		return fmt.Errorf("sim: restore: profile region shift %d, have %d", shift, p.regionShift)
	}
	r.AnyInto(&p.ProfileCounters)
	nRead := r.Len(8 * 3)
	if r.Err() != nil {
		return r.Err()
	}
	p.readGens = addrmap.Map[mem.RegionAddr, readGen]{}
	for i := 0; i < nRead; i++ {
		region := mem.RegionAddr(r.U64())
		g := readGen{pattern: r.U64(), reads: r.U64()}
		if r.Err() != nil {
			return r.Err()
		}
		slot, err := restoreRegion(&p.readGens, region, "read generation")
		if err != nil {
			return err
		}
		*slot = g
	}
	nWrite := r.Len(8*3 + 1)
	if r.Err() != nil {
		return r.Err()
	}
	p.writeGens = addrmap.Map[mem.RegionAddr, writeGen]{}
	for i := 0; i < nWrite; i++ {
		region := mem.RegionAddr(r.U64())
		g := writeGen{dirtied: r.U64(), writebacks: r.U64(), closed: r.Bool()}
		if r.Err() != nil {
			return r.Err()
		}
		slot, err := restoreRegion(&p.writeGens, region, "write epoch")
		if err != nil {
			return err
		}
		*slot = g
	}
	return r.Err()
}

// restoreRegion adds a decoded region to a per-region table, rejecting
// the reserved key and a region the checkpoint lists twice.
func restoreRegion[V any](m *addrmap.Map[mem.RegionAddr, V], region mem.RegionAddr, what string) (*V, error) {
	if region == ^mem.RegionAddr(0) {
		return nil, fmt.Errorf("sim: restore: %s for reserved region %#x", what, uint64(region))
	}
	v, dup := m.Upsert(region)
	if dup {
		return nil, fmt.Errorf("sim: restore: duplicate %s for region %#x", what, uint64(region))
	}
	return v, nil
}
