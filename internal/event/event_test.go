package event

import (
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"
)

// closures schedules func() callbacks on one port, each event's payload
// naming its callback, so the engine's ordering contract can be tested
// with closures.
type closures struct {
	e    *Engine
	p    Port
	fns  map[uint64]func()
	next uint64
	// last is the latest cycle any callback was scheduled at.
	last uint64
}

func newClosures() *closures {
	c := &closures{e: New(), fns: make(map[uint64]func())}
	c.p = c.e.Port("event.test.closure", 0, func(id, _ uint64) {
		fn := c.fns[id]
		delete(c.fns, id)
		fn()
	})
	return c
}

// At schedules fn at absolute cycle t; a past t runs at the current
// cycle.
func (c *closures) At(t uint64, fn func()) {
	c.next++
	c.fns[c.next] = fn
	c.last = max(c.last, t, c.e.Now())
	c.e.Post(t, c.p, c.next, 0)
}

// After schedules fn d cycles from now.
func (c *closures) After(d uint64, fn func()) { c.At(c.e.Now()+d, fn) }

// Drain dispatches every pending event, callbacks scheduled on the way
// included, and leaves the clock at the last one's cycle. Events posted
// past every callback on another port never run: Drain panics.
func (c *closures) Drain() {
	for c.e.Pending() > 0 {
		if c.e.Run(c.last) == 0 {
			panic("closures: an event is pending after every callback")
		}
	}
}

func TestOrdering(t *testing.T) {
	c := newClosures()
	var got []int
	c.At(10, func() { got = append(got, 1) })
	c.At(5, func() { got = append(got, 0) })
	c.At(10, func() { got = append(got, 2) }) // same cycle: FIFO
	c.Drain()
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Errorf("order = %v", got)
	}
	if c.e.Now() != 10 {
		t.Errorf("Now = %d", c.e.Now())
	}
}

func TestPastSchedulingClamps(t *testing.T) {
	c := newClosures()
	var at uint64
	c.At(100, func() {
		c.At(50, func() { at = c.e.Now() }) // in the past: must run at 100, not 50
	})
	c.Drain()
	if at != 100 || c.e.Now() != 100 {
		t.Errorf("clamped event ran at %d, Now = %d, want 100", at, c.e.Now())
	}
}

func TestAfter(t *testing.T) {
	c := newClosures()
	var at uint64
	c.At(7, func() {
		c.After(3, func() { at = c.e.Now() })
	})
	c.Drain()
	if at != 10 {
		t.Errorf("After fired at %d, want 10", at)
	}
}

func TestRunUntil(t *testing.T) {
	c := newClosures()
	fired := 0
	for _, at := range []uint64{1, 2, 3, 10, 20} {
		c.At(at, func() { fired++ })
	}
	n := c.e.Run(5)
	if n != 3 || fired != 3 {
		t.Errorf("Run(5) dispatched %d (fired %d), want 3", n, fired)
	}
	if c.e.Pending() != 2 {
		t.Errorf("Pending = %d", c.e.Pending())
	}
	// Boundary: events at exactly `until` run.
	n = c.e.Run(10)
	if n != 1 || fired != 4 {
		t.Errorf("Run(10) dispatched %d", n)
	}
}

func TestRunAdvancesClockWhenEmpty(t *testing.T) {
	e := New()
	e.Run(1000)
	if e.Now() != 1000 {
		t.Errorf("Now = %d, want 1000 after empty Run", e.Now())
	}
}

func TestCascade(t *testing.T) {
	// An event chain scheduled from within events must all execute.
	c := newClosures()
	depth := 0
	var step func()
	step = func() {
		depth++
		if depth < 100 {
			c.After(1, step)
		}
	}
	c.At(0, step)
	c.Drain()
	if depth != 100 {
		t.Errorf("depth = %d", depth)
	}
	if c.e.Executed != 100 {
		t.Errorf("Executed = %d", c.e.Executed)
	}
}

// Property: events always dispatch in non-decreasing time order regardless
// of the scheduling order.
func TestTimeMonotonicProperty(t *testing.T) {
	f := func(times []uint16) bool {
		c := newClosures()
		var fired []uint64
		for _, at := range times {
			at := uint64(at)
			c.At(at, func() { fired = append(fired, at) })
		}
		c.Drain()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(times)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestNodeHoldsNoPointers pins the event record: 40 bytes of plain
// words, so the garbage collector never scans the slab.
func TestNodeHoldsNoPointers(t *testing.T) {
	if size := unsafe.Sizeof(node{}); size != 40 {
		t.Errorf("node is %d bytes, want 40", size)
	}
	typ := reflect.TypeOf(node{})
	want := map[string]reflect.Kind{
		"at": reflect.Uint64, "seq": reflect.Uint64, "a0": reflect.Uint64,
		"a1": reflect.Uint64, "port": reflect.Uint32, "next": reflect.Int32,
	}
	if typ.NumField() != len(want) {
		t.Errorf("node has %d fields, want %d", typ.NumField(), len(want))
	}
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if kind, ok := want[f.Name]; !ok || f.Type.Kind() != kind {
			t.Errorf("node field %s is a %v, want one of %v", f.Name, f.Type.Kind(), want)
		}
	}
}

func TestPortDuplicatePanics(t *testing.T) {
	e := New()
	e.Port("event.test.dup", 0, func(uint64, uint64) {})
	e.Port("event.test.dup", 1, func(uint64, uint64) {}) // another receiver: fine
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	e.Port("event.test.dup", 0, func(uint64, uint64) {})
}
