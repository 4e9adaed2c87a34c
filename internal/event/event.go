// Package event provides the discrete-event engine that drives the
// simulator. A component registers a port on the engine for each of
// its handlers and the receiver it binds — a handler name, a receiver
// reference and the bound function (Engine.Port) — and schedules events
// on that port with Post. The engine runs events in time order (FIFO
// within a cycle, in scheduling order, so component interactions are
// deterministic).
//
// The scheduler is a bucketed timing wheel: a power-of-two ring of
// per-cycle FIFO buckets covers the near horizon (the common case —
// core, NOC, LLC and DRAM latencies are small constants), and a typed
// min-heap holds the overflow of far-future events. An event record is
// a 40-byte node holding no pointers — time, sequence number, two
// payload words, port index and a link — recycled through a free list,
// so steady-state scheduling performs no allocation and the garbage
// collector never scans the slab. Because a port carries its handler's
// name and receiver reference, a checkpoint names every pending event's
// port itself (Snapshot), and a restore resolves each one to a port the
// restoring engine registered or fails (Restore).
package event

import "fmt"

// wheelBits sizes the timing wheel. The horizon must comfortably exceed
// the longest common scheduling delta (worst-case DRAM transaction
// latency including refresh is well under 2k CPU cycles); rarer events
// land in the overflow heap, which is correct at any distance.
const (
	wheelBits = 12
	wheelSize = 1 << wheelBits
	wheelMask = wheelSize - 1
)

// Port schedules one handler bound to one receiver; Engine.Port
// registers it. It is an index into the engine's port table, so an
// event record stores it without a pointer.
type Port uint32

// port is one registered event target: the handler's name and receiver
// reference, which a checkpoint records, and the bound handler.
type port struct {
	name string
	ref  uint32
	fn   func(a0, a1 uint64)
}

const nilIdx = -1

// node is one pooled event record. Nodes live in the engine's slab and
// link into a bucket FIFO (wheel) or sit in the overflow heap; next
// doubles as the free-list link.
type node struct {
	at   uint64
	seq  uint64
	a0   uint64
	a1   uint64
	port Port
	next int32
}

type bucket struct{ head, tail int32 }

// Engine is a discrete-event scheduler over a 64-bit CPU-cycle clock.
type Engine struct {
	now uint64
	seq uint64
	// Executed counts dispatched events (throughput metric; also useful
	// for run-away detection in tests).
	Executed uint64

	ports []port

	nodes []node
	free  int32 // free-list head into nodes

	buckets    [wheelSize]bucket
	wheelCount int // events currently in the wheel

	// overflow holds node indices of events at or beyond now+wheelSize,
	// heap-ordered by (at, seq).
	overflow []int32
}

// New returns an engine with the clock at zero and no ports.
func New() *Engine {
	e := &Engine{free: nilIdx}
	for i := range e.buckets {
		e.buckets[i] = bucket{head: nilIdx, tail: nilIdx}
	}
	return e
}

// Port registers fn as handler name bound to the receiver its owner
// calls ref, and returns the port that schedules it. A checkpoint
// records each pending event's port as this (name, ref) pair, so both
// must be stable across builds of the same system. Registering one
// pair twice panics.
func (e *Engine) Port(name string, ref uint32, fn func(a0, a1 uint64)) Port {
	if _, dup := e.lookup(name, ref); dup {
		panic(fmt.Sprintf("event: port %s on receiver %d registered twice", name, ref))
	}
	e.ports = append(e.ports, port{name: name, ref: ref, fn: fn})
	return Port(len(e.ports) - 1)
}

// lookup returns the port registered as (name, ref).
func (e *Engine) lookup(name string, ref uint32) (Port, bool) {
	for i := range e.ports {
		if p := &e.ports[i]; p.name == name && p.ref == ref {
			return Port(i), true
		}
	}
	return 0, false
}

// Now returns the current cycle.
func (e *Engine) Now() uint64 { return e.now }

// Pending returns the number of scheduled events.
func (e *Engine) Pending() int { return e.wheelCount + len(e.overflow) }

// Post schedules port p's handler with payload (a0, a1) at absolute
// cycle t. Scheduling in the past runs the event at the current cycle
// (never before: time is monotonic).
func (e *Engine) Post(t uint64, p Port, a0, a1 uint64) {
	if t < e.now {
		t = e.now
	}
	idx := e.alloc()
	n := &e.nodes[idx]
	e.seq++
	n.at, n.seq, n.a0, n.a1, n.port, n.next = t, e.seq, a0, a1, p, nilIdx
	e.insert(idx)
}

func (e *Engine) alloc() int32 {
	if e.free != nilIdx {
		idx := e.free
		e.free = e.nodes[idx].next
		return idx
	}
	e.nodes = append(e.nodes, node{})
	return int32(len(e.nodes) - 1)
}

func (e *Engine) release(idx int32) {
	e.nodes[idx].next = e.free
	e.free = idx
}

// insert files a node into the wheel (within the horizon) or the
// overflow heap. Invariant: the wheel holds exactly the events with
// at - now < wheelSize, so each bucket contains events of a single
// absolute cycle, appended in scheduling order.
func (e *Engine) insert(idx int32) {
	n := &e.nodes[idx]
	if n.at-e.now < wheelSize {
		b := &e.buckets[n.at&wheelMask]
		if b.tail == nilIdx {
			b.head = idx
		} else {
			e.nodes[b.tail].next = idx
		}
		b.tail = idx
		e.wheelCount++
		return
	}
	e.heapPush(idx)
}

// migrate moves overflow events that entered the horizon into the wheel.
// It must run every time now advances, before any dispatch or new
// insertion, so bucket FIFO order stays global scheduling order: events
// migrating out of the heap were scheduled earlier (smaller seq) than any
// wheel insertion that could target the same cycle afterwards, and the
// heap pops equal-cycle events in seq order.
func (e *Engine) migrate() {
	for len(e.overflow) > 0 {
		top := e.overflow[0]
		if e.nodes[top].at-e.now >= wheelSize {
			return
		}
		e.heapPop()
		e.insert(top)
	}
}

// next returns the index of the earliest pending event, or nilIdx. The
// wheel invariant makes the scan exact: if any wheel event exists it is
// strictly earlier than every overflow event, and scanning buckets from
// now upward visits cycles in increasing order.
func (e *Engine) next() int32 {
	if e.wheelCount > 0 {
		for k := uint64(0); k < wheelSize; k++ {
			if idx := e.buckets[(e.now+k)&wheelMask].head; idx != nilIdx {
				return idx
			}
		}
		panic("event: wheel count positive but no bucket occupied")
	}
	if len(e.overflow) > 0 {
		return e.overflow[0]
	}
	return nilIdx
}

// dispatch removes event idx (which must be the earliest: a bucket head
// or the overflow top), advances the clock, and runs its handler.
func (e *Engine) dispatch(idx int32) {
	n := &e.nodes[idx]
	b := &e.buckets[n.at&wheelMask]
	if b.head == idx {
		b.head = n.next
		if b.head == nilIdx {
			b.tail = nilIdx
		}
		e.wheelCount--
	} else {
		e.heapPop()
	}
	e.now = n.at
	e.migrate()
	p, a0, a1 := n.port, n.a0, n.a1
	e.release(idx)
	e.Executed++
	e.ports[p].fn(a0, a1)
}

// Run dispatches events until the queue is empty or the clock would pass
// `until`; it returns the number of events dispatched. Events scheduled at
// exactly `until` still run.
func (e *Engine) Run(until uint64) uint64 {
	var n uint64
	for {
		idx := e.next()
		if idx == nilIdx || e.nodes[idx].at > until {
			break
		}
		e.dispatch(idx)
		n++
	}
	// All events at or before `until` have run; the clock stands at
	// exactly `until` (remaining events are strictly later).
	if e.now < until {
		e.now = until
		e.migrate()
	}
	return n
}

// ---- overflow heap (typed, index-based, ordered by (at, seq)) ---------

func (e *Engine) heapLess(i, j int32) bool {
	a, b := &e.nodes[i], &e.nodes[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (e *Engine) heapPush(idx int32) {
	e.overflow = append(e.overflow, idx)
	i := len(e.overflow) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.heapLess(e.overflow[i], e.overflow[parent]) {
			break
		}
		e.overflow[i], e.overflow[parent] = e.overflow[parent], e.overflow[i]
		i = parent
	}
}

func (e *Engine) heapPop() int32 {
	h := e.overflow
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	e.overflow = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		if l >= last {
			break
		}
		c := l
		if r < last && e.heapLess(e.overflow[r], e.overflow[l]) {
			c = r
		}
		if !e.heapLess(e.overflow[c], e.overflow[i]) {
			break
		}
		e.overflow[i], e.overflow[c] = e.overflow[c], e.overflow[i]
		i = c
	}
	return top
}
