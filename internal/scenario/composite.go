package scenario

import (
	"encoding/binary"
	"fmt"

	"bump/internal/mem"
	"bump/internal/snapshot"
	"bump/internal/workload"
)

// Timeline is the resolved, per-core form of a tenant's phase sequence:
// effective parameters per phase with durations. It is pure data with
// exported fields only, so snapshot.CanonicalDigest covers it — the
// composite's stream fingerprint is a digest of the timeline plus seed.
type Timeline struct {
	Phases []ResolvedPhase
	Repeat bool
}

// ResolvedPhase is one timeline segment with its ramps already applied.
type ResolvedPhase struct {
	Params   workload.Params
	Accesses uint64
	Tasks    uint64
}

// validate enforces the duration rules NewComposite relies on (Spec
// validation enforces the same rules earlier for spec-built timelines;
// hand-built timelines get the check here).
func (tl Timeline) validate() error {
	if len(tl.Phases) == 0 {
		return fmt.Errorf("scenario: timeline has no phases")
	}
	for i, ph := range tl.Phases {
		if ph.Accesses > 0 && ph.Tasks > 0 {
			return fmt.Errorf("scenario: timeline phase %d: Accesses and Tasks are mutually exclusive", i)
		}
		bounded := ph.Accesses > 0 || ph.Tasks > 0
		final := i == len(tl.Phases)-1
		switch {
		case tl.Repeat && !bounded:
			return fmt.Errorf("scenario: timeline phase %d: repeating timelines need bounded phases", i)
		case !tl.Repeat && !final && !bounded:
			return fmt.Errorf("scenario: timeline phase %d: only the final phase may be open-ended", i)
		case !tl.Repeat && final && bounded:
			return fmt.Errorf("scenario: timeline final phase must be open-ended (or set Repeat)")
		}
		if err := ph.Params.Validate(); err != nil {
			return fmt.Errorf("scenario: timeline phase %d: %w", i, err)
		}
	}
	return nil
}

// phaseSeedStride separates per-phase generator seeds. Each phase runs a
// *fresh* generator seeded by (composite seed, absolute phase index), so
// phases are independent deterministic sequences: a checkpoint seek can
// skip completed access-bounded phases arithmetically, and a repeated
// phase (loop 2 of a diurnal cycle) re-trains predictors on new data
// rather than replaying loop 1 verbatim.
const phaseSeedStride = 15485863 // the 1,000,000th prime

// Composite is the phase-aware workload.Stream for one core: it plays
// its timeline's phases in order (looping when Repeat), drawing each
// phase from a freshly seeded workload.Generator. The entire stream is a
// deterministic function of (Timeline, seed, draw count), which makes
// checkpointing exact: StreamPos is the draw count, and
// SeekStream rebuilds only the phase the position lands in.
type Composite struct {
	tl   Timeline
	seed int64

	cur       *workload.Generator // current phase's generator (lazily built)
	baseTasks int                 // cur's task count at construction
	idx       int                 // absolute phase index (keeps counting across loops)
	drawn     uint64              // draws within the current phase
	calls     uint64              // total draws (StreamPos)
	fp        uint64              // lazily computed stream fingerprint
}

// NewComposite builds the stream for one core. Different cores of the
// same tenant should use different seeds (workload.CoreSeed).
func NewComposite(tl Timeline, seed int64) (*Composite, error) {
	if err := tl.validate(); err != nil {
		return nil, err
	}
	return &Composite{tl: tl, seed: seed}, nil
}

// phase returns the resolved phase for the current index.
func (c *Composite) phase() ResolvedPhase {
	n := len(c.tl.Phases)
	if c.tl.Repeat {
		return c.tl.Phases[c.idx%n]
	}
	// Non-repeating timelines never advance past their (open-ended)
	// final phase, so idx < n always holds here.
	return c.tl.Phases[c.idx]
}

// phaseSeed derives the current phase's generator seed.
func (c *Composite) phaseSeed() int64 {
	return c.seed + int64(c.idx+1)*phaseSeedStride
}

// advance moves to the next phase, discarding the finished generator.
func (c *Composite) advance() {
	c.idx++
	c.drawn = 0
	c.cur = nil
	c.baseTasks = 0
}

// ensureGen lazily constructs the current phase's generator. Parameters
// were validated at construction, so failure is a programming error.
func (c *Composite) ensureGen(p ResolvedPhase) {
	if c.cur != nil {
		return
	}
	g, err := workload.NewGenerator(p.Params, c.phaseSeed())
	if err != nil {
		panic("scenario: validated phase params rejected by generator: " + err.Error())
	}
	c.cur = g
	c.baseTasks = g.Tasks()
}

// Next implements workload.Stream.
func (c *Composite) Next() mem.Access {
	for {
		p := c.phase()
		if p.Accesses > 0 && c.drawn >= p.Accesses {
			c.advance()
			continue
		}
		c.ensureGen(p)
		if p.Tasks > 0 && uint64(c.cur.Tasks()-c.baseTasks) >= p.Tasks {
			c.advance()
			continue
		}
		c.calls++
		c.drawn++
		return c.cur.Next()
	}
}

// Phase returns the absolute phase index the next draw comes from
// (loops keep counting: the first phase of loop 2 of a two-phase
// timeline is index 2). Exposed for tests and reports.
func (c *Composite) Phase() int {
	// Resolve any pending boundary so the report reflects the phase the
	// *next* access belongs to without consuming a draw.
	for {
		p := c.phase()
		if p.Accesses > 0 && c.drawn >= p.Accesses {
			c.advance()
			continue
		}
		if p.Tasks > 0 && c.cur != nil && uint64(c.cur.Tasks()-c.baseTasks) >= p.Tasks {
			c.advance()
			continue
		}
		return c.idx
	}
}

// StreamPos implements workload.Stream: total accesses drawn.
func (c *Composite) StreamPos() uint64 { return c.calls }

// SeekStream implements workload.Stream. Completed access-bounded
// phases are skipped arithmetically — their generators are never built,
// because each phase's sequence depends only on (params, phase seed) —
// so seek cost is proportional to the draws inside task-bounded phases
// and the final, partially played phase, not the whole run.
func (c *Composite) SeekStream(pos uint64) error {
	if c.calls > pos {
		return fmt.Errorf("scenario: cannot seek stream backwards (%d > %d)", c.calls, pos)
	}
	for c.calls < pos {
		p := c.phase()
		if p.Accesses > 0 {
			if rem := p.Accesses - c.drawn; c.calls+rem <= pos {
				c.calls += rem
				c.advance()
				continue
			}
		}
		c.Next()
	}
	return nil
}

// StreamFingerprint implements workload.Stream: a canonical digest of
// the resolved timeline and seed. Two composites fingerprint equal iff
// every phase parameter, duration, the repeat flag and the seed agree,
// so a checkpoint saved under one scenario can never silently resume
// under another.
func (c *Composite) StreamFingerprint() uint64 {
	if c.fp != 0 {
		return c.fp
	}
	d, err := snapshot.CanonicalDigest("scenario-composite-v1", struct {
		Timeline Timeline
		Seed     int64
	}{c.tl, c.seed})
	if err != nil {
		// Timeline is plain data; an unhashable field is a programming
		// error that must fail loudly, not degrade the restore guard.
		panic("scenario: timeline not canonically hashable: " + err.Error())
	}
	h := binary.LittleEndian.Uint64(d[:8])
	if h == 0 {
		h = 1 // keep 0 as the "not yet computed" sentinel
	}
	c.fp = h
	return h
}
