package event

import (
	"math/rand"
	"runtime"
	"testing"
)

// replayMix is the simulator's measured handler mix, in percent of
// dispatched events.
var replayMix = [...]struct {
	name  string
	share int
}{
	{"sim.coreAdvance", 28},
	{"memctrl.kick", 20},
	{"memctrl.complete", 20},
	{"sim.llcAccess", 15},
	{"sim.deliver", 15},
	{"sim.chainDone", 2},
}

type replayStep struct {
	handler uint8
	delta   uint8
}

// replay drives an engine through a seeded, cyclic schedule: every
// dispatched event posts the schedule's next step, so the number of
// pending events stays where it started.
type replay struct {
	e *Engine
	// ports stand in for replayMix's handlers, index for index: six
	// distinct functions, so dispatch makes indirect calls to six
	// targets as the simulator does.
	ports [len(replayMix)]Port
	steps []replayStep
	next  int
}

// newReplay draws a schedule of handlers in replayMix's proportions and
// deltas of 0 to 200 cycles, one in eight of them 0, then posts
// `pending` events from it.
func newReplay(seed int64, pending int) *replay {
	rng := rand.New(rand.NewSource(seed))
	r := &replay{e: New(), steps: make([]replayStep, 1<<16)}
	r.ports = [...]Port{
		r.e.Port(replayMix[0].name, 0, func(_, _ uint64) { r.fire() }),
		r.e.Port(replayMix[1].name, 0, func(_, _ uint64) { r.fire() }),
		r.e.Port(replayMix[2].name, 0, func(_, _ uint64) { r.fire() }),
		r.e.Port(replayMix[3].name, 0, func(_, _ uint64) { r.fire() }),
		r.e.Port(replayMix[4].name, 0, func(_, _ uint64) { r.fire() }),
		r.e.Port(replayMix[5].name, 0, func(_, _ uint64) { r.fire() }),
	}
	for i := range r.steps {
		pick, h := rng.Intn(100), 0
		for pick >= replayMix[h].share {
			pick -= replayMix[h].share
			h++
		}
		delta := 0
		if rng.Intn(8) != 0 {
			delta = 1 + rng.Intn(200)
		}
		r.steps[i] = replayStep{handler: uint8(h), delta: uint8(delta)}
	}
	for range pending {
		r.fire()
	}
	return r
}

func (r *replay) fire() {
	st := r.steps[r.next]
	r.next = (r.next + 1) & (len(r.steps) - 1)
	r.e.Post(r.e.Now()+uint64(st.delta), r.ports[st.handler], uint64(r.next), 0)
}

// BenchmarkEngine times the engine alone on the simulator's handler mix
// with 100 events pending, reporting ns/event and allocs/event: the
// scheduling cost a simulated event pays before its component does any
// work. Each iteration runs the clock forward one wheel turn, as the
// simulator's run loop does in strides.
func BenchmarkEngine(b *testing.B) {
	r := newReplay(1, 100)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var events uint64
	for b.Loop() {
		events += r.e.Run(r.e.Now() + wheelSize)
	}
	runtime.ReadMemStats(&after)
	if r.e.Pending() != 100 {
		b.Fatalf("%d events pending, want 100", r.e.Pending())
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(events), "allocs/event")
}
