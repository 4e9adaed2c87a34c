package event

import (
	"fmt"
	"sort"

	"bump/internal/snapshot"
)

// liveOrder returns the indices of all pending events in canonical
// dispatch-independent order: wheel events by cycle then FIFO position,
// followed by overflow events sorted by (at, seq). Two engines holding
// the same pending-event multiset serialize identically regardless of
// slab layout or heap history.
func (e *Engine) liveOrder() []int32 {
	order := make([]int32, 0, e.wheelCount+len(e.overflow))
	if e.wheelCount > 0 {
		for k := uint64(0); k < wheelSize; k++ {
			for idx := e.buckets[(e.now+k)&wheelMask].head; idx != nilIdx; idx = e.nodes[idx].next {
				order = append(order, idx)
			}
		}
	}
	ovf := append([]int32(nil), e.overflow...)
	sort.Slice(ovf, func(i, j int) bool { return e.heapLess(ovf[i], ovf[j]) })
	return append(order, ovf...)
}

// Snapshot serializes the engine: clock, sequence counter, executed
// count, the handler names of the pending events' ports in
// first-appearance order, and every pending event as (at, seq, payload,
// handler-name index, receiver reference).
func (e *Engine) Snapshot(w *snapshot.Writer) {
	w.Section("engine")
	w.U64(e.now)
	w.U64(e.seq)
	w.U64(e.Executed)

	order := e.liveOrder()
	names := make([]string, 0, 8)
	nameIdx := make(map[string]uint32, 8)
	for _, idx := range order {
		name := e.ports[e.nodes[idx].port].name
		if _, seen := nameIdx[name]; !seen {
			nameIdx[name] = uint32(len(names))
			names = append(names, name)
		}
	}
	w.U32(uint32(len(names)))
	for _, name := range names {
		w.String(name)
	}

	w.U32(uint32(len(order)))
	for _, idx := range order {
		n := &e.nodes[idx]
		p := &e.ports[n.port]
		w.U64(n.at)
		w.U64(n.seq)
		w.U64(n.a0)
		w.U64(n.a1)
		w.U32(nameIdx[p.name])
		w.U32(p.ref)
	}
}

// Restore replaces the engine's clock, counters and pending events with
// the snapshot's; its ports stay as registered. Each event must name a
// port of this engine by handler name and receiver reference, else
// Restore fails: no event can reach a handler bound to another
// receiver.
func (e *Engine) Restore(r *snapshot.Reader) error {
	r.Section("engine")
	now := r.U64()
	seq := r.U64()
	executed := r.U64()

	names := make([]string, r.Len(5)) // string: u32 len + >=1 byte
	for i := range names {
		names[i] = r.String()
	}
	nEvents := r.Len(8*4 + 4 + 4)
	if r.Err() != nil {
		return r.Err()
	}

	// Reset the engine before loading: restore is wholesale replacement.
	e.now = now
	e.seq = seq
	e.Executed = executed
	e.nodes = e.nodes[:0]
	e.free = nilIdx
	e.wheelCount = 0
	e.overflow = e.overflow[:0]
	for i := range e.buckets {
		e.buckets[i] = bucket{head: nilIdx, tail: nilIdx}
	}

	for i := 0; i < nEvents; i++ {
		at := r.U64()
		evSeq := r.U64()
		a0 := r.U64()
		a1 := r.U64()
		nameIdx := r.U32()
		ref := r.U32()
		if r.Err() != nil {
			return r.Err()
		}
		if int(nameIdx) >= len(names) {
			return fmt.Errorf("event: handler index %d out of range", nameIdx)
		}
		p, ok := e.lookup(names[nameIdx], ref)
		if !ok {
			return fmt.Errorf("event: snapshot schedules %s on receiver %d, which has no port here", names[nameIdx], ref)
		}
		if at < now {
			return fmt.Errorf("event: pending event at cycle %d predates clock %d", at, now)
		}
		if evSeq > seq {
			return fmt.Errorf("event: event sequence %d beyond counter %d", evSeq, seq)
		}
		idx := e.alloc()
		e.nodes[idx] = node{at: at, seq: evSeq, a0: a0, a1: a1, port: p, next: nilIdx}
		// Inserting in snapshot order reproduces each bucket's FIFO
		// chain exactly; overflow events re-heapify by (at, seq), which
		// is a total order, so pop order is preserved too.
		e.insert(idx)
	}
	return r.Err()
}

// EachPending calls fn with the time and payload of every event pending
// on port p, in canonical order, and returns the first error fn
// returns. A component restored after the engine uses it to refuse
// pending events it could not run.
func (e *Engine) EachPending(p Port, fn func(at, a0, a1 uint64) error) error {
	for _, idx := range e.liveOrder() {
		if n := &e.nodes[idx]; n.port == p {
			if err := fn(n.at, n.a0, n.a1); err != nil {
				return err
			}
		}
	}
	return nil
}
