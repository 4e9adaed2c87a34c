// Package streamtest is the reusable conformance harness for
// workload.Stream implementations. Every stream type (the generator and
// the scenario composite) runs the same table-driven checks of the
// checkpointing contract: seek-then-draw must equal an uninterrupted
// draw at randomized split points, fingerprints must be stable across
// fresh instances and unaffected by drawing, distinct sequences must
// fingerprint differently (the restore-time foreign-checkpoint guard),
// and backward seeks must be rejected.
package streamtest

import (
	"math/rand"
	"testing"

	"bump/internal/workload"
)

// Case describes one stream type (or one configuration of it) under
// conformance test.
type Case struct {
	// Name labels the subtest.
	Name string
	// New returns a fresh stream of the case's fixed configuration.
	// Every call must yield an identically configured, unconsumed
	// stream at position 0.
	New func() (workload.Stream, error)
	// Other returns a stream carrying a *different* access sequence
	// (different seed or parameters): its fingerprint must not
	// collide with New's. Leave nil to skip the foreign-fingerprint
	// check.
	Other func() (workload.Stream, error)
}

// The seek checks draw splits random split points in [1, maxSplit] and
// compare tail accesses after each seek.
const (
	maxSplit = 20000
	splits   = 5
	tail     = 2000
)

// Run executes the conformance suite for every case.
func Run(t *testing.T, cases []Case) {
	for _, c := range cases {
		t.Run(c.Name, func(t *testing.T) { runCase(t, c) })
	}
}

func runCase(t *testing.T, c Case) {
	// Deterministic per-case randomness: the split points vary across
	// cases but never across runs, so a failure always reproduces.
	rng := rand.New(rand.NewSource(int64(len(c.Name)) + hashName(c.Name)))

	fresh := func() workload.Stream {
		t.Helper()
		s, err := c.New()
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		return s
	}

	// Fingerprint stability: fresh instances agree, and consuming the
	// stream never changes its identity.
	s1, s2 := fresh(), fresh()
	fp := s1.StreamFingerprint()
	if fp == 0 {
		t.Error("fingerprint must be non-zero")
	}
	if got := s2.StreamFingerprint(); got != fp {
		t.Errorf("fresh instances fingerprint differently: %#x vs %#x", got, fp)
	}
	if s1.StreamPos() != 0 {
		t.Errorf("fresh stream at position %d, want 0", s1.StreamPos())
	}
	for i := 0; i < 64; i++ {
		s1.Next()
	}
	if got := s1.StreamFingerprint(); got != fp {
		t.Errorf("drawing changed the fingerprint: %#x vs %#x", got, fp)
	}
	if got := s1.StreamPos(); got != 64 {
		t.Errorf("position after 64 draws = %d", got)
	}

	// Foreign fingerprints: a different sequence must not collide —
	// this inequality is the restore-time guard against resuming a
	// checkpoint under another sequence.
	if c.Other != nil {
		o, err := c.Other()
		if err != nil {
			t.Fatalf("Other: %v", err)
		}
		if got := o.StreamFingerprint(); got == fp {
			t.Errorf("foreign stream shares fingerprint %#x", got)
		}
	}

	// Seek-then-draw equals uninterrupted draw at randomized splits.
	for i := 0; i < splits; i++ {
		split := 1 + uint64(rng.Int63n(maxSplit))
		ref := fresh()
		for j := uint64(0); j < split; j++ {
			ref.Next()
		}
		seeked := fresh()
		if err := seeked.SeekStream(split); err != nil {
			t.Fatalf("split %d: SeekStream: %v", split, err)
		}
		if got := seeked.StreamPos(); got != split {
			t.Fatalf("split %d: position after seek = %d", split, got)
		}
		for j := 0; j < tail; j++ {
			want := ref.Next()
			if got := seeked.Next(); got != want {
				t.Fatalf("split %d: draw %d after seek diverges:\n got %+v\nwant %+v", split, j, got, want)
			}
		}
		if got, want := seeked.StreamPos(), split+tail; got != want {
			t.Fatalf("split %d: position after tail = %d, want %d", split, got, want)
		}

		// Backward seeks must be rejected, not silently rewound.
		if err := seeked.SeekStream(split); err == nil {
			t.Fatalf("split %d: backward seek accepted", split)
		}
	}
}

// hashName folds a case name into a seed (FNV-1a).
func hashName(name string) int64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 0x100000001b3
	}
	return int64(h & 0x7fffffff)
}
