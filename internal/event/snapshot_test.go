package event

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"bump/internal/snapshot"
)

// recorder is the test receiver: its two ports append each event's
// first payload word to fired. A chain event reschedules itself up to
// min(a1, 3) more times, so a restored schedule keeps posting.
type recorder struct {
	e      *Engine
	record Port
	chain  Port
	fired  []uint64
}

// newRecorder registers a recorder's ports on e for receiver ref.
func newRecorder(e *Engine, ref uint32) *recorder {
	rec := &recorder{e: e}
	rec.record = e.Port("event.test.record", ref, func(a0, _ uint64) {
		rec.fired = append(rec.fired, a0)
	})
	rec.chain = e.Port("event.test.chain", ref, func(a0, a1 uint64) {
		rec.fired = append(rec.fired, a0)
		if a1 > 0 {
			e.Post(e.Now()+3, rec.chain, a0+100, min(a1, 3)-1)
		}
	})
	return rec
}

// drain runs rec's engine until nothing is pending.
func (rec *recorder) drain() {
	for rec.e.Pending() > 0 {
		rec.e.Run(rec.e.Now() + wheelSize)
	}
}

func snapEngine(t *testing.T, e *Engine) []byte {
	t.Helper()
	w := snapshot.NewWriter()
	e.Snapshot(w)
	var buf bytes.Buffer
	if err := w.Flush(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func restoreEngine(data []byte, e *Engine) error {
	r, err := snapshot.NewReader(bytes.NewReader(data))
	if err != nil {
		return err
	}
	if err := e.Restore(r); err != nil {
		return err
	}
	return r.Finish()
}

// TestEngineSnapshotRoundTrip runs a randomized schedule split at an
// arbitrary point: the restored engine must dispatch the exact same
// remaining sequence as the uninterrupted one.
func TestEngineSnapshotRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		build := func() (*recorder, *rand.Rand) {
			rec := newRecorder(New(), 0)
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 500; i++ {
				at := uint64(rng.Intn(3 * wheelSize))
				if rng.Intn(4) == 0 {
					rec.e.Post(at, rec.chain, uint64(i), uint64(rng.Intn(3)))
				} else {
					rec.e.Post(at, rec.record, uint64(i), 0)
				}
			}
			return rec, rng
		}

		// Reference: run to completion in one go.
		ref, _ := build()
		ref.drain()

		// Split run: same schedule, snapshot mid-flight, restore, drain.
		a, rng := build()
		a.e.Run(uint64(rng.Intn(2 * wheelSize)))
		b := newRecorder(New(), 0)
		if err := restoreEngine(snapEngine(t, a.e), b.e); err != nil {
			t.Fatal(err)
		}
		if b.e.Now() != a.e.Now() || b.e.Pending() != a.e.Pending() || b.e.Executed != a.e.Executed {
			t.Fatalf("seed %d: restored clock/pending/executed mismatch", seed)
		}
		b.drain()

		got := append(append([]uint64(nil), a.fired...), b.fired...)
		if len(got) != len(ref.fired) {
			t.Fatalf("seed %d: %d events fired, want %d", seed, len(got), len(ref.fired))
		}
		for i := range got {
			if got[i] != ref.fired[i] {
				t.Fatalf("seed %d: event %d = %d, want %d", seed, i, got[i], ref.fired[i])
			}
		}
		if b.e.Executed != ref.e.Executed {
			t.Fatalf("seed %d: executed %d, want %d", seed, b.e.Executed, ref.e.Executed)
		}
	}
}

// TestEngineSnapshotCanonical: a restored engine re-serializes to the
// exact bytes it was restored from (slab/heap layout differences never
// leak into the encoding).
func TestEngineSnapshotCanonical(t *testing.T) {
	rec := newRecorder(New(), 0)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		rec.e.Post(uint64(rng.Intn(4*wheelSize)), rec.record, uint64(i), 0)
	}
	rec.e.Run(wheelSize / 2)

	data := snapEngine(t, rec.e)
	rec2 := newRecorder(New(), 0)
	if err := restoreEngine(data, rec2.e); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, snapEngine(t, rec2.e)) {
		t.Fatal("restored engine serializes to different bytes")
	}
}

// TestRestoreRejectsUnknownHandler: an event whose port the restoring
// engine has not registered, by handler name or by receiver, is refused.
func TestRestoreRejectsUnknownHandler(t *testing.T) {
	rec := newRecorder(New(), 3)
	rec.e.Post(5, rec.record, 1, 0)
	data := snapEngine(t, rec.e)

	if err := restoreEngine(data, newRecorder(New(), 3).e); err != nil {
		t.Fatalf("engine with the port refused the snapshot: %v", err)
	}
	if err := restoreEngine(data, newRecorder(New(), 4).e); err == nil {
		t.Error("engine with the handler on another receiver accepted the snapshot")
	}
	other := New()
	other.Port("event.test.other", 3, func(uint64, uint64) {})
	if err := restoreEngine(data, other); err == nil {
		t.Error("engine without the handler accepted the snapshot")
	}
}

// TestSnapshotRejectsClosures: a closure never crosses a checkpoint. A
// snapshot records a callback scheduled through a port only as the
// port's (name, ref), so an engine that has not registered that port
// refuses the event, and one that has runs its own bound function with
// the event's payload, never the snapshotted engine's callback.
func TestSnapshotRejectsClosures(t *testing.T) {
	c := newClosures()
	ran := false
	c.At(10, func() { ran = true })
	data := snapEngine(t, c.e)

	if err := restoreEngine(data, New()); err == nil {
		t.Error("engine without the closure port accepted a pending closure event")
	}
	if err := restoreEngine(data, newRecorder(New(), 0).e); err == nil {
		t.Error("engine with other handlers on the closure's receiver accepted a pending closure event")
	}

	e := New()
	var got []uint64
	e.Port("event.test.closure", 0, func(id, _ uint64) { got = append(got, id) })
	if err := restoreEngine(data, e); err != nil {
		t.Fatalf("engine with the closure port refused the snapshot: %v", err)
	}
	e.Run(10)
	if ran || len(got) != 1 || got[0] != 1 {
		t.Fatalf("restored event ran the snapshotted callback %v, the restoring port with %v; want only the port, with [1]", ran, got)
	}
}

// fuzzSeedEngine is a valid engine section: record and chain events on
// receivers 0 and 1, in the wheel and beyond its horizon, after the
// first cycle's events ran. It stays small: the fuzzer minimizes every
// new input in time quadratic in its length.
func fuzzSeedEngine() []byte {
	e := New()
	r0, r1 := newRecorder(e, 0), newRecorder(e, 1)
	e.Post(10, r0.record, 1, 0)
	e.Post(10, r1.chain, 2, 2)
	e.Post(20, r1.record, 3, 0)
	e.Post(wheelSize+5, r0.chain, 4, 1)
	e.Post(3*wheelSize, r1.record, 5, 0)
	e.Run(12)
	w := snapshot.NewWriter()
	e.Snapshot(w)
	return w.Body()
}

// FuzzEngineRestore reads arbitrary bytes as an engine section, with no
// CRC in front of the decoder, into an engine whose ports are the
// record and chain handlers on receivers 0 and 1. Every input must
// either be refused or restore and then run every event to completion.
func FuzzEngineRestore(f *testing.F) {
	seed := fuzzSeedEngine()
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		e := New()
		newRecorder(e, 0)
		newRecorder(e, 1)
		if err := e.Restore(snapshot.NewBodyReader(data)); err != nil {
			return
		}
		pending := e.Pending()
		if n := e.Run(math.MaxUint64); n < uint64(pending) || e.Pending() != 0 {
			t.Fatalf("ran %d of %d restored events, %d still pending", n, pending, e.Pending())
		}
	})
}
