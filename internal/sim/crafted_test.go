package sim

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"bump/internal/snapshot"
)

// craftedEvent is one pending event of a checkpoint's engine section.
type craftedEvent struct {
	at, seq, a0, a1 uint64
	name            string
	ref             uint32
}

// craftedEngine is a checkpoint's engine section, decoded so a test can
// patch it: clock, counters and pending events in canonical order.
type craftedEngine struct {
	now, seq, executed uint64
	events             []craftedEvent
}

// splitEngine decodes the engine section of checkpoint body, returning
// it with the bytes before and after it.
func splitEngine(t *testing.T, body []byte) (head []byte, eng craftedEngine, tail []byte) {
	t.Helper()
	r := snapshot.NewBodyReader(body)
	r.Section("meta")
	r.Bytes()      // structural digest
	r.U8()         // mechanism
	_ = r.String() // workload
	r.I64()        // seed
	r.U32()        // cores
	r.U64()        // cycle
	_ = r.String() // trajectory prefix
	start := len(body) - r.Remaining()
	r.Section("engine")
	eng.now, eng.seq, eng.executed = r.U64(), r.U64(), r.U64()
	names := make([]string, r.U32())
	for i := range names {
		names[i] = r.String()
	}
	eng.events = make([]craftedEvent, r.U32())
	for i := range eng.events {
		ev := &eng.events[i]
		ev.at, ev.seq, ev.a0, ev.a1 = r.U64(), r.U64(), r.U64(), r.U64()
		ev.name = names[r.U32()]
		ev.ref = r.U32()
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	return body[:start], eng, body[len(body)-r.Remaining():]
}

// encode writes the engine section as the engine does: handler names in
// first-appearance order, then each event.
func (e craftedEngine) encode() []byte {
	w := snapshot.NewWriter()
	w.Section("engine")
	w.U64(e.now)
	w.U64(e.seq)
	w.U64(e.executed)
	var names []string
	index := make(map[string]uint32)
	for _, ev := range e.events {
		if _, ok := index[ev.name]; !ok {
			index[ev.name] = uint32(len(names))
			names = append(names, ev.name)
		}
	}
	w.U32(uint32(len(names)))
	for _, name := range names {
		w.String(name)
	}
	w.U32(uint32(len(e.events)))
	for _, ev := range e.events {
		w.U64(ev.at)
		w.U64(ev.seq)
		w.U64(ev.a0)
		w.U64(ev.a1)
		w.U32(index[ev.name])
		w.U32(ev.ref)
	}
	return w.Body()
}

// craftedSplit runs the fuzz configuration to cycle 2,500, inside its
// measurement window, so a latency sample taken after a restore lands
// in the distribution.
func craftedSplit(t *testing.T) *System {
	t.Helper()
	s, err := New(fuzzRestoreConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunWithHooks(Hooks{
		Interval: 250,
		Cancel:   func() bool { return s.Engine().Now() >= 2_500 },
	}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("split run: %v", err)
	}
	return s
}

func checkpointBody(t *testing.T, s *System) []byte {
	t.Helper()
	w := snapshot.NewWriter()
	if err := s.writeState(w); err != nil {
		t.Fatal(err)
	}
	return bytes.Clone(w.Body())
}

// frame wraps a checkpoint body in the snapshot container, with its CRC.
func frame(t *testing.T, body []byte) []byte {
	t.Helper()
	w := snapshot.NewWriter()
	for _, b := range body {
		w.U8(b)
	}
	var buf bytes.Buffer
	if err := w.Flush(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// patchFirstEvent returns the split checkpoint with its earliest
// pending event replaced by handler name on receiver ref with payload
// a0.
func patchFirstEvent(name string, ref uint32, a0 uint64) func(*testing.T) []byte {
	return func(t *testing.T) []byte {
		body := checkpointBody(t, craftedSplit(t))
		head, eng, tail := splitEngine(t, body)
		ev := &eng.events[0]
		ev.name, ev.ref, ev.a0 = name, ref, a0
		return frame(t, bytes.Join([][]byte{head, eng.encode(), tail}, nil))
	}
}

// freeTxnSlot returns a free slot of the memory controller's transaction
// slab, read from the memctrl section of checkpoint body.
func freeTxnSlot(t *testing.T, body []byte) uint64 {
	t.Helper()
	w := snapshot.NewWriter()
	w.Section("memctrl")
	at := bytes.Index(body, w.Body())
	if at < 0 {
		t.Fatal("checkpoint has no memctrl section")
	}
	r := snapshot.NewBodyReader(body[at:])
	r.Section("memctrl")
	r.U32() // channels
	n := r.U32()
	for i := uint32(0); i < n && r.Err() == nil; i++ {
		if r.Bool() {
			return uint64(i)
		}
		// A live slot: its request (43 bytes), DRAM location (20),
		// arrival cycle (8) and row outcome (1).
		for range 43 + 20 + 8 + 1 {
			r.U8()
		}
	}
	t.Fatalf("no free transaction slot among %d (%v)", n, r.Err())
	return 0
}

// TestRestoreRefusesCraftedCheckpoints restores CRC-valid checkpoints
// of a split run whose engine or system section names state no
// component can run: a handler on another component's receiver, a
// completion of a transaction slot outside the slab or free, a kick of
// a channel that does not exist, a live transaction whose completion is
// missing (its load would never return), and a load waiter whose issue
// cycle lies past the clock (its latency sample would wrap). Each must
// be refused by Restore; a run of one that is accepted panics or
// silently loses work.
func TestRestoreRefusesCraftedCheckpoints(t *testing.T) {
	// The test's own decoder and encoder must round-trip a valid
	// checkpoint byte for byte.
	body := checkpointBody(t, craftedSplit(t))
	head, eng, tail := splitEngine(t, body)
	if !bytes.Equal(bytes.Join([][]byte{head, eng.encode(), tail}, nil), body) {
		t.Fatal("re-encoded engine section differs from the engine's")
	}

	cases := []struct {
		name  string
		craft func(*testing.T) []byte
	}{
		{"coreAdvance-on-memctrl", patchFirstEvent("sim.coreAdvance", objRefMemctrl, 0)},
		{"chainDone-on-system", patchFirstEvent("sim.chainDone", objRefSystem, 1)},
		{"llcAccess-on-core", patchFirstEvent("sim.llcAccess", objRefCoreBase, 1)},
		{"deliver-on-memctrl", patchFirstEvent("sim.deliver", objRefMemctrl, 1)},
		{"kick-on-system", patchFirstEvent("memctrl.kick", objRefSystem, 0)},
		{"complete-on-core", patchFirstEvent("memctrl.complete", objRefCoreBase, 0)},
		{"complete-outside-slab", patchFirstEvent("memctrl.complete", objRefMemctrl, 1<<20)},
		{"complete-free-slot", func(t *testing.T) []byte {
			body := checkpointBody(t, craftedSplit(t))
			return patchFirstEvent("memctrl.complete", objRefMemctrl, freeTxnSlot(t, body))(t)
		}},
		{"kick-channel-out-of-range", patchFirstEvent("memctrl.kick", objRefMemctrl, 64)},
		{"completion-dropped", func(t *testing.T) []byte {
			head, eng, tail := splitEngine(t, checkpointBody(t, craftedSplit(t)))
			for i, ev := range eng.events {
				if ev.name == "memctrl.complete" {
					eng.events = slices.Delete(eng.events, i, i+1)
					return frame(t, bytes.Join([][]byte{head, eng.encode(), tail}, nil))
				}
			}
			t.Fatal("split run has no pending completion")
			return nil
		}},
		{"waiter-issued-after-clock", func(t *testing.T) []byte {
			s := craftedSplit(t)
			for i := range s.waiters {
				if w := &s.waiters[i]; w.state != waiterFree && w.load {
					w.issue = s.Engine().Now() + 1<<20
					return frame(t, checkpointBody(t, s))
				}
			}
			t.Fatal("split run holds no load waiter")
			return nil
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := tc.craft(t)
			s, err := New(fuzzRestoreConfig())
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Restore(bytes.NewReader(data)); err != nil {
				t.Logf("refused: %v", err)
				return
			}
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("Restore accepted the checkpoint and the run panicked: %v", p)
				}
			}()
			_, err = s.RunWithHooks(Hooks{})
			t.Fatalf("Restore accepted the checkpoint (the run returned %v)", err)
		})
	}
}
