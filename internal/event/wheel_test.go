package event

import (
	"container/heap"
	"math/rand"
	"testing"
)

// ---- reference scheduler ----------------------------------------------
//
// refEngine is a straight container/heap implementation of the engine's
// documented contract — time order, FIFO within a cycle by scheduling
// order, past times clamped to now — used as the oracle for the
// differential tests below.

type refItem struct {
	at  uint64
	seq uint64
	fn  func()
}

type refQueue []refItem

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x interface{}) { *q = append(*q, x.(refItem)) }
func (q *refQueue) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

type refEngine struct {
	now uint64
	seq uint64
	q   refQueue
}

func (e *refEngine) At(t uint64, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	heap.Push(&e.q, refItem{at: t, seq: e.seq, fn: fn})
}

func (e *refEngine) Drain() {
	for len(e.q) > 0 {
		it := heap.Pop(&e.q).(refItem)
		e.now = it.at
		it.fn()
	}
}

// ---- wheel/overflow boundary tests ------------------------------------

// TestWheelOverflowFIFO pins same-cycle FIFO order across the
// wheel/overflow boundary: an event scheduled beyond the horizon (into
// the overflow heap) must still run before a same-cycle event scheduled
// later but directly into the wheel.
func TestWheelOverflowFIFO(t *testing.T) {
	c := newClosures()
	far := uint64(2 * wheelSize)
	var got []int
	c.At(far, func() { got = append(got, 1) }) // overflow at now=0
	// From within the horizon, schedule a second event at the same
	// far-future cycle — this one lands in the wheel.
	c.At(far-10, func() { c.At(far, func() { got = append(got, 2) }) })
	c.Drain()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("dispatch order = %v, want [1 2]", got)
	}
	if c.e.Now() != far {
		t.Errorf("Now = %d, want %d", c.e.Now(), far)
	}
}

// TestWheelWrapAround exercises bucket reuse across several full laps of
// the ring.
func TestWheelWrapAround(t *testing.T) {
	c := newClosures()
	const laps = 5
	var fired []uint64
	record := func() { fired = append(fired, c.e.Now()) }
	// All these cycles map to the same bucket (congruent mod wheelSize).
	for lap := uint64(1); lap <= laps; lap++ {
		c.At(lap*wheelSize, record)
	}
	// Neighbouring buckets on different laps, scheduled out of order.
	c.At(3*wheelSize+1, record)
	c.At(wheelSize-1, record)
	c.Drain()
	want := []uint64{wheelSize - 1, wheelSize, 2 * wheelSize, 3 * wheelSize,
		3*wheelSize + 1, 4 * wheelSize, 5 * wheelSize}
	if len(fired) != len(want) {
		t.Fatalf("fired %d events, want %d", len(fired), len(want))
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Errorf("fired[%d] = %d, want %d", i, fired[i], want[i])
		}
	}
}

// TestRunBoundaryAcrossHorizon pins Run(until) semantics when the next
// events sit beyond the wheel horizon: events at exactly `until` run, the
// clock lands exactly on `until`, and later events stay pending.
func TestRunBoundaryAcrossHorizon(t *testing.T) {
	c := newClosures()
	e := c.e
	fired := 0
	c.At(wheelSize+500, func() { fired++ })
	c.At(wheelSize+500, func() { fired++ }) // same cycle, FIFO
	c.At(3*wheelSize, func() { fired++ })
	if n := e.Run(wheelSize + 500); n != 2 || fired != 2 {
		t.Errorf("Run dispatched %d (fired %d), want 2", n, fired)
	}
	if e.Now() != wheelSize+500 {
		t.Errorf("Now = %d, want %d", e.Now(), wheelSize+500)
	}
	if e.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", e.Pending())
	}
	// The clock jump brought the far event inside the horizon; it must
	// still fire at its own time, not before.
	if n := e.Run(3*wheelSize - 1); n != 0 {
		t.Errorf("early Run dispatched %d, want 0", n)
	}
	if n := e.Run(3 * wheelSize); n != 1 || fired != 3 {
		t.Errorf("final Run dispatched %d (fired %d), want 1", n, fired)
	}
}

// TestPastSchedulingFromOverflowDispatch schedules into the past from a
// handler that was itself dispatched out of the overflow heap.
func TestPastSchedulingFromOverflowDispatch(t *testing.T) {
	c := newClosures()
	var at uint64
	c.At(2*wheelSize, func() {
		c.At(10, func() { at = c.e.Now() }) // in the past: clamps to now
	})
	c.Drain()
	if at != 2*wheelSize {
		t.Errorf("clamped event fired at %d, want %d", at, uint64(2*wheelSize))
	}
}

// TestPostPayload checks the port path end to end: each port's receiver
// and both payload words arrive intact, in FIFO order across ports.
func TestPostPayload(t *testing.T) {
	type rec struct {
		port   string
		a0, a1 uint64
	}
	var recv []rec
	c := newClosures()
	e := c.e
	p := e.Port("event.test.payload", 7, func(a0, a1 uint64) {
		recv = append(recv, rec{"payload", a0, a1})
	})
	e.Post(5, p, 1, 100)
	c.At(5, func() { recv = append(recv, rec{"closure", 2, 200}) })
	e.Post(e.Now()+5, p, 3, 300)
	c.Drain()
	want := []rec{{"payload", 1, 100}, {"closure", 2, 200}, {"payload", 3, 300}}
	if len(recv) != len(want) {
		t.Fatalf("received %d events, want %d", len(recv), len(want))
	}
	for i := range want {
		if recv[i] != want[i] {
			t.Errorf("recv[%d] = %+v, want %+v", i, recv[i], want[i])
		}
	}
}

// ---- randomized differential test -------------------------------------

// scenario drives an engine-shaped scheduler through a deterministic but
// random-looking cascade: every dispatched event appends its id and may
// schedule children at deltas spanning the wheel, the horizon boundary
// and the deep overflow range. The trace (id, time) must be identical
// between the timing-wheel engine and the reference heap.
type scheduler interface {
	At(t uint64, fn func())
}

func runScenario(seed int64, sched scheduler, now func() uint64, drain func()) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	var trace []uint64
	nextID := uint64(0)
	var spawn func(depth int) func()
	spawn = func(depth int) func() {
		id := nextID
		nextID++
		// Pre-draw this event's behaviour so it depends only on the
		// scheduling sequence, not on dispatch interleaving.
		kids := rng.Intn(3)
		deltas := make([]uint64, kids)
		for i := range deltas {
			switch rng.Intn(4) {
			case 0: // same cycle / near past (clamps)
				deltas[i] = 0
			case 1: // inside the wheel
				deltas[i] = uint64(rng.Intn(wheelSize - 1))
			case 2: // straddling the horizon
				deltas[i] = wheelSize - 2 + uint64(rng.Intn(5))
			default: // deep overflow
				deltas[i] = wheelSize + uint64(rng.Intn(3*wheelSize))
			}
		}
		return func() {
			trace = append(trace, id, now())
			if depth <= 0 {
				return
			}
			for _, d := range deltas {
				sched.At(now()+d, spawn(depth-1))
			}
		}
	}
	for i := 0; i < 40; i++ {
		sched.At(uint64(rng.Intn(4*wheelSize)), spawn(3))
	}
	drain()
	return trace
}

func TestDifferentialAgainstReferenceHeap(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		c := newClosures()
		gotTrace := runScenario(seed, c, c.e.Now, c.Drain)

		r := &refEngine{}
		wantTrace := runScenario(seed, r, func() uint64 { return r.now }, r.Drain)

		if len(gotTrace) != len(wantTrace) {
			t.Fatalf("seed %d: trace lengths differ: wheel %d vs heap %d",
				seed, len(gotTrace), len(wantTrace))
		}
		for i := range gotTrace {
			if gotTrace[i] != wantTrace[i] {
				t.Fatalf("seed %d: traces diverge at %d: wheel %d vs heap %d",
					seed, i, gotTrace[i], wantTrace[i])
			}
		}
		if c.e.Pending() != 0 {
			t.Errorf("seed %d: %d events left pending", seed, c.e.Pending())
		}
	}
}
