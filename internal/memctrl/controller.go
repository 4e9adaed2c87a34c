package memctrl

import (
	"fmt"

	"bump/internal/dram"
	"bump/internal/event"
	"bump/internal/mem"
)

// Policy selects the row-buffer management policy (paper Section V.A).
type Policy uint8

const (
	// OpenRow keeps rows open after an access and FR-FCFS prioritises
	// row hits (Base-open, SMS, VWQ and BuMP configurations).
	OpenRow Policy = iota
	// CloseRow precharges after every access (Base-close); banks are
	// always closed so scheduling degenerates to FCFS.
	CloseRow
)

func (p Policy) String() string {
	if p == OpenRow {
		return "open-row"
	}
	return "close-row"
}

// Config parameterises the controller.
type Config struct {
	Policy     Policy
	Interleave Interleave
	// RegionShift is the log2 region size for RegionInterleave.
	RegionShift uint
	// QueueDepth bounds the FR-FCFS scheduling window per channel
	// (Table II: 64-entry transaction/command queues).
	QueueDepth int
	// WriteHighWatermark starts a write drain when the write queue
	// reaches this occupancy; WriteLowWatermark stops it.
	WriteHighWatermark int
	WriteLowWatermark  int
	// ClockRatio is CPU cycles per DRAM command-clock cycle
	// (2.5GHz / 800MHz ≈ 3).
	ClockRatio uint64
	// MaxRowHitStreak caps consecutive row-hit-first picks per channel
	// before the scheduler reverts to oldest-first once, bounding the
	// unfairness open-row FR-FCFS can cause (the Section VI discussion
	// of fairness-aware policies). 0 disables the cap.
	MaxRowHitStreak int
}

// DefaultConfig returns the paper's controller configuration for the given
// policy/interleave combination.
func DefaultConfig(p Policy, il Interleave) Config {
	return Config{
		Policy:             p,
		Interleave:         il,
		RegionShift:        mem.DefaultRegionShift,
		QueueDepth:         64,
		WriteHighWatermark: 48,
		WriteLowWatermark:  16,
		ClockRatio:         3,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.QueueDepth <= 0 {
		return fmt.Errorf("memctrl: queue depth must be positive")
	}
	if c.ClockRatio == 0 {
		return fmt.Errorf("memctrl: clock ratio must be positive")
	}
	if c.WriteLowWatermark < 0 || c.WriteHighWatermark <= c.WriteLowWatermark {
		return fmt.Errorf("memctrl: watermarks %d/%d invalid", c.WriteHighWatermark, c.WriteLowWatermark)
	}
	return nil
}

// Completion reports a finished DRAM transaction to the owner (the LLC).
type Completion struct {
	Req     mem.Request
	Done    uint64 // CPU cycle of data completion
	Outcome dram.RowOutcome
}

// Stats aggregates controller-level counters.
type Stats struct {
	Reads           uint64
	Writes          uint64
	ReadQueueDelay  uint64 // total CPU cycles reads waited before issue
	WriteQueueDelay uint64
	WriteDrains     uint64
	// MaxQueue tracks the deepest read-queue occupancy observed.
	MaxQueue int
}

// txn is one pooled in-flight transaction. Slots live in the
// controller's slab from Enqueue until completion delivery (or issue,
// when no Handler is registered); next is the free-list link.
type txn struct {
	req mem.Request
	loc dram.Loc
	arr uint64 // arrival (CPU cycles)
	// outcome is filled at issue time and carried to the completion event.
	outcome dram.RowOutcome
	next    int32
}

type channelQueue struct {
	reads    []int32 // txn slab indices, arrival order
	writes   []int32
	draining bool
	// hitStreak counts consecutive row-hit-first picks (for
	// MaxRowHitStreak).
	hitStreak int
	// decideFree is the next CPU cycle this channel may issue a command.
	decideFree uint64
	kickArmed  bool
}

// Controller is the processor-side memory controller front end.
type Controller struct {
	cfg    Config
	mapper *Mapper
	dram   *dram.DRAM
	eng    *event.Engine
	// kickP runs a channel's next scheduling decision (payload: the
	// channel); completeP delivers a finished transaction (payload: its
	// slab slot).
	kickP, completeP event.Port
	queues           []channelQueue
	stats            Stats
	// burstSlot is one burst time in CPU cycles (TBurst × ClockRatio):
	// how long a channel's command pipeline stays busy after each burst.
	burstSlot uint64

	txns    []txn
	freeTxn int32

	// Handler receives every completion. Must be set before use.
	Handler func(Completion)
}

// New wires a controller to a DRAM device and an event engine, on which
// it registers its ports under receiver reference ref.
func New(cfg Config, d *dram.DRAM, eng *event.Engine, ref uint32) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	dcfg := d.Config()
	mapper, err := NewMapper(cfg.Interleave, dcfg, cfg.RegionShift)
	if err != nil {
		return nil, err
	}
	c := &Controller{
		cfg:       cfg,
		mapper:    mapper,
		dram:      d,
		eng:       eng,
		queues:    make([]channelQueue, dcfg.Channels),
		burstSlot: uint64(dcfg.Timing.TBurst) * cfg.ClockRatio,
		freeTxn:   -1,
	}
	c.kickP = eng.Port("memctrl.kick", ref, func(ch, _ uint64) {
		c.queues[ch].kickArmed = false
		c.issue(int(ch))
	})
	c.completeP = eng.Port("memctrl.complete", ref, func(idx, _ uint64) { c.complete(int32(idx)) })
	return c, nil
}

func (c *Controller) allocTxn() int32 {
	if c.freeTxn >= 0 {
		idx := c.freeTxn
		c.freeTxn = c.txns[idx].next
		return idx
	}
	c.txns = append(c.txns, txn{})
	return int32(len(c.txns) - 1)
}

func (c *Controller) releaseTxn(idx int32) {
	c.txns[idx].next = c.freeTxn
	c.freeTxn = idx
}

// Mapper exposes the address mapper (the Ideal oracle uses it).
func (c *Controller) Mapper() *Mapper { return c.mapper }

// Stats returns a copy of the counters.
func (c *Controller) Stats() Stats { return c.stats }

// SetMaxRowHitStreak rebinds the fairness cap mid-run. The cap is
// consulted only at scheduler pick time, so rebinding at an event
// boundary is exact: the simulator builds the controller with the
// canonical (zero) cap and binds the configured value at the run's bind
// cycle, which lets runs that differ only in the cap share trunk state
// up to it.
func (c *Controller) SetMaxRowHitStreak(n int) { c.cfg.MaxRowHitStreak = n }

// QueueLen returns the total queued transactions (reads+writes) across
// channels; the simulator uses it for backpressure decisions.
func (c *Controller) QueueLen() int {
	n := 0
	for i := range c.queues {
		n += len(c.queues[i].reads) + len(c.queues[i].writes)
	}
	return n
}

// Enqueue accepts a transaction. The queue is unbounded (overflow models
// the LLC's miss queue backing up) but the FR-FCFS window only examines
// the first QueueDepth entries.
func (c *Controller) Enqueue(req mem.Request) {
	loc := c.mapper.Map(req.Addr.Block())
	q := &c.queues[loc.Channel]
	idx := c.allocTxn()
	t := &c.txns[idx]
	t.req, t.loc, t.arr = req, loc, c.eng.Now()
	if req.Op == mem.MemWrite {
		q.writes = append(q.writes, idx)
	} else {
		q.reads = append(q.reads, idx)
		if len(q.reads) > c.stats.MaxQueue {
			c.stats.MaxQueue = len(q.reads)
		}
	}
	c.kick(loc.Channel)
}

// kick arms the channel's next scheduling decision. Decisions are always
// asynchronous (at least the current cycle's end), so requests enqueued
// together are all visible to one FR-FCFS pick.
func (c *Controller) kick(ch int) {
	q := &c.queues[ch]
	if q.kickArmed {
		return
	}
	q.kickArmed = true
	at := c.eng.Now()
	if at < q.decideFree {
		at = q.decideFree
	}
	c.eng.Post(at, c.kickP, uint64(ch), 0)
}

// pickFRFCFS returns the index of the transaction to issue from list under
// FR-FCFS: the oldest row hit within the scheduling window, else the
// oldest. A row-hit streak cap (if configured) periodically forces the
// oldest transaction for fairness. Returns -1 for an empty list.
func (c *Controller) pickFRFCFS(q *channelQueue, list []int32) int {
	if len(list) == 0 {
		return -1
	}
	window := len(list)
	if window > c.cfg.QueueDepth {
		window = c.cfg.QueueDepth
	}
	if c.cfg.Policy == OpenRow {
		if c.cfg.MaxRowHitStreak > 0 && q.hitStreak >= c.cfg.MaxRowHitStreak {
			q.hitStreak = 0
			return 0
		}
		for i := 0; i < window; i++ {
			if c.dram.Outcome(c.txns[list[i]].loc) == dram.RowHit {
				q.hitStreak++
				return i
			}
		}
	}
	q.hitStreak = 0
	return 0
}

func (c *Controller) issue(ch int) {
	q := &c.queues[ch]
	now := c.eng.Now()

	// Write drain hysteresis.
	if q.draining {
		if len(q.writes) <= c.cfg.WriteLowWatermark {
			q.draining = false
		}
	} else if len(q.writes) >= c.cfg.WriteHighWatermark {
		q.draining = true
		c.stats.WriteDrains++
	}

	var list *[]int32
	switch {
	case q.draining && len(q.writes) > 0:
		list = &q.writes
	case len(q.reads) > 0:
		list = &q.reads
	case len(q.writes) > 0:
		list = &q.writes
	default:
		return // idle; next Enqueue kicks us
	}

	i := c.pickFRFCFS(q, *list)
	idx := (*list)[i]
	*list = append((*list)[:i], (*list)[i+1:]...)
	t := &c.txns[idx]

	ratio := c.cfg.ClockRatio
	memNow := int64(now / ratio)
	doneMem, outcome := c.dram.Access(t.req.Op, t.loc, memNow, c.cfg.Policy == CloseRow)
	done := uint64(doneMem)*ratio + (ratio - 1)

	if t.req.Op == mem.MemWrite {
		c.stats.Writes++
		c.stats.WriteQueueDelay += now - t.arr
	} else {
		c.stats.Reads++
		c.stats.ReadQueueDelay += now - t.arr
	}

	// The channel can issue its next command once this burst's slot on
	// the command pipeline passes (one burst time).
	q.decideFree = now + c.burstSlot

	if c.Handler != nil {
		t.outcome = outcome
		c.eng.Post(done, c.completeP, uint64(idx), 0)
	} else {
		c.releaseTxn(idx)
	}

	if len(q.reads)+len(q.writes) > 0 {
		c.kick(ch)
	}
}

// complete delivers a finished transaction to the Handler. The slot is
// released before the callback so re-entrant Enqueues can reuse it.
func (c *Controller) complete(idx int32) {
	t := &c.txns[idx]
	cp := Completion{Req: t.req, Done: c.eng.Now(), Outcome: t.outcome}
	c.releaseTxn(idx)
	c.Handler(cp)
}
