package memctrl

import (
	"fmt"
	"slices"

	"bump/internal/dram"
	"bump/internal/mem"
	"bump/internal/snapshot"
)

// SnapshotTo serializes the controller: the transaction slab (preserved
// index-for-index, because pending completion events address slots by
// index), the free list in pop order, the per-channel queues and
// scheduler state, and the counters. Free slots carry no payload, so
// semantically equal controllers encode identically.
func (c *Controller) SnapshotTo(w *snapshot.Writer) {
	w.Section("memctrl")
	w.U32(uint32(len(c.queues)))
	w.U32(uint32(len(c.txns)))

	free := make([]bool, len(c.txns))
	var freeOrder []int32
	for idx := c.freeTxn; idx >= 0; idx = c.txns[idx].next {
		free[idx] = true
		freeOrder = append(freeOrder, idx)
	}
	for i := range c.txns {
		w.Bool(free[i])
		if free[i] {
			continue
		}
		t := &c.txns[i]
		writeRequest(w, t.req)
		w.U32(uint32(t.loc.Channel))
		w.U32(uint32(t.loc.Rank))
		w.U32(uint32(t.loc.Bank))
		w.U64(t.loc.Row)
		w.U64(t.arr)
		w.U8(uint8(t.outcome))
	}
	w.U32(uint32(len(freeOrder)))
	for _, idx := range freeOrder {
		w.U32(uint32(idx))
	}

	for i := range c.queues {
		q := &c.queues[i]
		w.U32(uint32(len(q.reads)))
		for _, idx := range q.reads {
			w.U32(uint32(idx))
		}
		w.U32(uint32(len(q.writes)))
		for _, idx := range q.writes {
			w.U32(uint32(idx))
		}
		w.Bool(q.draining)
		w.I64(int64(q.hitStreak))
		w.U64(q.decideFree)
		w.Bool(q.kickArmed)
	}
	w.Any(c.stats)
}

// RestoreFrom replaces the controller's state with a snapshot's.
func (c *Controller) RestoreFrom(r *snapshot.Reader) error {
	r.Section("memctrl")
	nq, nt := r.U32(), r.U32()
	if r.Err() != nil {
		return r.Err()
	}
	if int(nq) != len(c.queues) {
		return fmt.Errorf("memctrl: snapshot has %d channels, controller has %d", nq, len(c.queues))
	}
	if uint64(nt) > uint64(r.Remaining()) { // each slot is >= 1 byte
		return fmt.Errorf("memctrl: transaction slab length %d exceeds snapshot", nt)
	}

	dcfg := c.dram.Config()
	txns := make([]txn, nt)
	free := make([]bool, nt)
	for i := range txns {
		isFree := r.Bool()
		if r.Err() != nil {
			return r.Err()
		}
		free[i] = isFree
		txns[i].next = -1
		if isFree {
			continue
		}
		req, err := readRequest(r)
		if err != nil {
			return err
		}
		loc := dram.Loc{
			Channel: int(r.U32()),
			Rank:    int(r.U32()),
			Bank:    int(r.U32()),
			Row:     r.U64(),
		}
		if r.Err() != nil {
			return r.Err()
		}
		if loc.Channel >= dcfg.Channels || loc.Rank >= dcfg.RanksPerChannel || loc.Bank >= dcfg.BanksPerRank {
			return fmt.Errorf("memctrl: transaction %d location %+v outside organisation", i, loc)
		}
		txns[i].req, txns[i].loc = req, loc
		txns[i].arr = r.U64()
		out := r.U8()
		if out > uint8(dram.RowConflict) {
			return fmt.Errorf("memctrl: bad row outcome %d", out)
		}
		txns[i].outcome = dram.RowOutcome(out)
	}

	nFree := r.Len(4)
	if r.Err() != nil {
		return r.Err()
	}
	freeTxn := int32(-1)
	var tail int32 = -1
	linked := make([]bool, len(txns))
	for i := 0; i < nFree; i++ {
		idx := r.U32()
		if r.Err() != nil {
			return r.Err()
		}
		if int(idx) >= len(txns) || !free[idx] || linked[idx] {
			return fmt.Errorf("memctrl: bad free-list index %d", idx)
		}
		linked[idx] = true
		if tail < 0 {
			freeTxn = int32(idx)
		} else {
			txns[tail].next = int32(idx)
		}
		tail = int32(idx)
	}
	nMarkedFree := 0
	for _, f := range free {
		if f {
			nMarkedFree++
		}
	}
	if nFree != nMarkedFree {
		return fmt.Errorf("memctrl: free list covers %d slots, %d marked free", nFree, nMarkedFree)
	}

	queues := make([]channelQueue, len(c.queues))
	readIdxList := func() ([]int32, error) {
		n := r.Len(4)
		if r.Err() != nil {
			return nil, r.Err()
		}
		out := make([]int32, n)
		for i := range out {
			idx := r.U32()
			if r.Err() != nil {
				return nil, r.Err()
			}
			if int(idx) >= len(txns) || free[idx] {
				return nil, fmt.Errorf("memctrl: queue references transaction %d (free or out of range)", idx)
			}
			out[i] = int32(idx)
		}
		return out, nil
	}
	for i := range queues {
		var err error
		if queues[i].reads, err = readIdxList(); err != nil {
			return err
		}
		if queues[i].writes, err = readIdxList(); err != nil {
			return err
		}
		queues[i].draining = r.Bool()
		queues[i].hitStreak = int(r.I64())
		queues[i].decideFree = r.U64()
		queues[i].kickArmed = r.Bool()
	}
	r.AnyInto(&c.stats)
	if err := r.Err(); err != nil {
		return err
	}

	// The engine is restored first, so the pending kicks and completions
	// are known: they must be exactly the ones this controller runs. An
	// armed channel has one pending kick, and no other channel has one.
	kicked := make([]bool, len(queues))
	if err := c.eng.EachPending(c.kickP, func(_, ch, _ uint64) error {
		if ch >= uint64(len(queues)) || !queues[ch].kickArmed || kicked[ch] {
			return fmt.Errorf("memctrl: pending kick on channel %d, which has no kick armed", ch)
		}
		kicked[ch] = true
		return nil
	}); err != nil {
		return err
	}
	for ch := range queues {
		if queues[ch].kickArmed && !kicked[ch] {
			return fmt.Errorf("memctrl: channel %d is armed with no kick pending", ch)
		}
	}
	// A slot is free, queued or completing: exactly one of the three.
	held := free
	for i := range queues {
		for _, idx := range slices.Concat(queues[i].reads, queues[i].writes) {
			if held[idx] {
				return fmt.Errorf("memctrl: transaction %d queued twice", idx)
			}
			held[idx] = true
		}
	}
	if err := c.eng.EachPending(c.completeP, func(_, idx, _ uint64) error {
		if idx >= uint64(len(txns)) || held[idx] {
			return fmt.Errorf("memctrl: pending completion of transaction %d, which is outside the slab, free, queued or already completing", idx)
		}
		held[idx] = true
		return nil
	}); err != nil {
		return err
	}
	if idx := slices.Index(held, false); idx >= 0 {
		return fmt.Errorf("memctrl: transaction %d is neither free, queued nor completing", idx)
	}

	c.txns = txns
	c.freeTxn = freeTxn
	c.queues = queues
	return nil
}

func writeRequest(w *snapshot.Writer, req mem.Request) {
	w.U8(uint8(req.Op))
	w.U8(uint8(req.Kind))
	w.U64(uint64(req.Addr))
	w.U64(uint64(req.PC))
	w.I64(int64(req.Core))
	w.Bool(req.Bulk)
	w.U64(req.BulkGroup)
	w.U64(req.Issue)
}

func readRequest(r *snapshot.Reader) (mem.Request, error) {
	var req mem.Request
	op, kind := r.U8(), r.U8()
	if r.Err() != nil {
		return req, r.Err()
	}
	if op > uint8(mem.MemWrite) || kind > uint8(mem.ReadPrefetch) {
		return req, fmt.Errorf("memctrl: bad request op/kind %d/%d", op, kind)
	}
	req.Op, req.Kind = mem.MemOp(op), mem.ReadKind(kind)
	req.Addr = mem.Addr(r.U64())
	req.PC = mem.PC(r.U64())
	req.Core = int(r.I64())
	req.Bulk = r.Bool()
	req.BulkGroup = r.U64()
	req.Issue = r.U64()
	return req, r.Err()
}
