package scenario

import (
	"testing"
	"testing/quick"

	"bump/internal/workload"
	"bump/internal/workload/streamtest"
)

func rp(t *testing.T, preset string, accesses, tasks uint64) ResolvedPhase {
	t.Helper()
	p, ok := workload.ByName(preset)
	if !ok {
		t.Fatalf("unknown preset %s", preset)
	}
	return ResolvedPhase{Params: p, Accesses: accesses, Tasks: tasks}
}

func mustComposite(t *testing.T, tl Timeline, seed int64) *Composite {
	t.Helper()
	c, err := NewComposite(tl, seed)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestScenarioCompositeDeterminism: a composite stream is a pure
// function of (timeline, seed) — equal inputs replay bit-identically,
// different seeds diverge.
func TestScenarioCompositeDeterminism(t *testing.T) {
	tl := Timeline{Repeat: true, Phases: []ResolvedPhase{
		rp(t, "data-serving", 3000, 0),
		rp(t, "media-streaming", 0, 150), // task-bounded middle phase
		rp(t, "web-search", 2000, 0),
	}}
	a := mustComposite(t, tl, 42)
	b := mustComposite(t, tl, 42)
	for i := 0; i < 30000; i++ {
		if x, y := a.Next(), b.Next(); x != y {
			t.Fatalf("identical composites diverge at draw %d", i)
		}
	}
	c := mustComposite(t, tl, 43)
	a2 := mustComposite(t, tl, 42)
	same := true
	for i := 0; i < 200; i++ {
		if a2.Next() != c.Next() {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produce the same composite stream")
	}
}

// TestScenarioPhaseBoundaryDeterminism: access-bounded phase boundaries
// land at fixed draw positions regardless of seed — re-seeding a
// scenario moves the content of every phase but never its schedule.
func TestScenarioPhaseBoundaryDeterminism(t *testing.T) {
	tl := Timeline{Repeat: true, Phases: []ResolvedPhase{
		rp(t, "data-serving", 2500, 0),
		rp(t, "web-serving", 1500, 0),
	}}
	boundaries := func(seed int64, draws int) []uint64 {
		c := mustComposite(t, tl, seed)
		var out []uint64
		last := c.Phase()
		for i := 0; i < draws; i++ {
			c.Next()
			if p := c.Phase(); p != last {
				out = append(out, c.StreamPos())
				last = p
			}
		}
		return out
	}
	a := boundaries(1, 20000)
	b := boundaries(999, 20000)
	if len(a) == 0 {
		t.Fatal("no phase boundaries crossed")
	}
	if len(a) != len(b) {
		t.Fatalf("boundary counts differ across seeds: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("boundary %d at draw %d for seed 1 but %d for seed 999", i, a[i], b[i])
		}
		if want := uint64(0); a[i]%4000 != 2500 && a[i]%4000 != want {
			t.Fatalf("boundary %d at draw %d, not on the 2500/4000 schedule", i, a[i])
		}
	}
}

// TestScenarioAccessConservation: splitting an access-bounded phase
// into consecutive sub-phases of the same total conserves the position
// at which downstream phases begin (the phase *schedule* is additive,
// whatever the phase contents do).
func TestScenarioAccessConservation(t *testing.T) {
	marker := rp(t, "web-search", 0, 0) // open-ended final phase
	startOfMarker := func(pre []ResolvedPhase, markerIdx int) uint64 {
		tl := Timeline{Phases: append(append([]ResolvedPhase{}, pre...), marker)}
		c := mustComposite(t, tl, 7)
		for c.Phase() != markerIdx {
			c.Next()
		}
		return c.StreamPos()
	}

	whole := startOfMarker([]ResolvedPhase{rp(t, "data-serving", 6000, 0)}, 1)
	split := startOfMarker([]ResolvedPhase{
		rp(t, "data-serving", 2500, 0),
		rp(t, "data-serving", 3500, 0),
	}, 2)
	if whole != 6000 || split != 6000 {
		t.Fatalf("marker phase starts at %d (whole) / %d (split), want 6000", whole, split)
	}

	// The same property over randomized splits (testing/quick).
	prop := func(d1, d2 uint16) bool {
		a, b := uint64(d1%5000)+1, uint64(d2%5000)+1
		got := startOfMarker([]ResolvedPhase{
			rp(t, "media-streaming", a, 0),
			rp(t, "data-serving", b, 0),
		}, 2)
		return got == a+b
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// TestScenarioRenormalizationInvariance: scaling every task weight of a
// phase's inline parameters by one power-of-two constant leaves the
// composite stream bit-identical (the generator renormalises weights;
// exact in IEEE arithmetic for power-of-two factors).
func TestScenarioRenormalizationInvariance(t *testing.T) {
	scale := func(p workload.Params, k float64) workload.Params {
		p.ScanWeight *= k
		p.ChaseWeight *= k
		p.WriteBurstWeight *= k
		p.SparseWriteWeight *= k
		return p
	}
	mk := func(k float64) *Composite {
		ds, _ := workload.ByName("data-serving")
		ws, _ := workload.ByName("web-serving")
		tl := Timeline{Repeat: true, Phases: []ResolvedPhase{
			{Params: scale(ds, k), Accesses: 2000},
			{Params: scale(ws, k), Accesses: 3000},
		}}
		return mustComposite(t, tl, 21)
	}
	a, b := mk(1), mk(8)
	for i := 0; i < 15000; i++ {
		if x, y := a.Next(), b.Next(); x != y {
			t.Fatalf("weight-scaled composite diverges at draw %d", i)
		}
	}
}

// TestScenarioTaskBoundedPhase: a task-bounded phase ends after the
// configured number of fresh tasks, at a deterministic draw position.
func TestScenarioTaskBoundedPhase(t *testing.T) {
	tl := Timeline{Repeat: true, Phases: []ResolvedPhase{
		rp(t, "web-search", 0, 50),
		rp(t, "data-serving", 1000, 0),
	}}
	end := func(seed int64) uint64 {
		c := mustComposite(t, tl, seed)
		for c.Phase() == 0 {
			c.Next()
		}
		return c.StreamPos()
	}
	e1, e1b, e2 := end(5), end(5), end(6)
	if e1 == 0 {
		t.Fatal("task-bounded phase never ended")
	}
	if e1 != e1b {
		t.Fatalf("task boundary not deterministic: %d vs %d", e1, e1b)
	}
	// Different seeds draw different task mixes, so the boundary
	// position (unlike an access-bounded one) generally moves.
	if e2 == 0 {
		t.Fatal("task-bounded phase never ended for seed 6")
	}
}

// TestScenarioStreamConformance runs the shared stream-conformance
// harness over composites whose split points cross several phase
// boundaries — exercising both the draw-replay and the phase-skip paths
// of SeekStream.
func TestScenarioStreamConformance(t *testing.T) {
	access := Timeline{Repeat: true, Phases: []ResolvedPhase{
		rp(t, "data-serving", 3000, 0),
		rp(t, "media-streaming", 2000, 0),
	}}
	mixed := Timeline{Phases: []ResolvedPhase{
		rp(t, "web-search", 0, 120),
		rp(t, "online-analytics", 4000, 0),
		rp(t, "web-serving", 0, 0), // open-ended tail
	}}
	caseOf := func(name string, tl Timeline, seed, otherSeed int64) streamtest.Case {
		return streamtest.Case{
			Name:  name,
			New:   func() (workload.Stream, error) { return NewComposite(tl, seed) },
			Other: func() (workload.Stream, error) { return NewComposite(tl, otherSeed) },
		}
	}
	streamtest.Run(t, []streamtest.Case{
		caseOf("composite/access-bounded-repeat", access, 42, 43),
		caseOf("composite/task-bounded-mixed", mixed, 7, 8),
	})

	// Different timelines must also fingerprint apart (not just
	// different seeds).
	a := mustComposite(t, access, 1)
	b := mustComposite(t, mixed, 1)
	if a.StreamFingerprint() == b.StreamFingerprint() {
		t.Fatal("distinct timelines share a fingerprint")
	}
	shifted := access
	shifted.Phases = append([]ResolvedPhase{}, access.Phases...)
	shifted.Phases[0].Accesses++
	c := mustComposite(t, shifted, 1)
	if a.StreamFingerprint() == c.StreamFingerprint() {
		t.Fatal("duration tweak did not change the fingerprint")
	}
}

// TestScenarioSeekSkipsCompletedPhases: seeking far into a repeating
// access-bounded timeline must not construct (or draw) the skipped
// phases — observable through cost: the seek below touches at most one
// phase's worth of draws. Guarded indirectly by equivalence here and by
// the conformance harness above; this test pins the position math at
// exact phase boundaries.
func TestScenarioSeekSkipsCompletedPhases(t *testing.T) {
	tl := Timeline{Repeat: true, Phases: []ResolvedPhase{
		rp(t, "data-serving", 1000, 0),
		rp(t, "web-search", 500, 0),
	}}
	for _, pos := range []uint64{1000, 1500, 3000, 3001, 2999} {
		ref := mustComposite(t, tl, 3)
		for i := uint64(0); i < pos; i++ {
			ref.Next()
		}
		seeked := mustComposite(t, tl, 3)
		if err := seeked.SeekStream(pos); err != nil {
			t.Fatalf("seek %d: %v", pos, err)
		}
		if seeked.StreamPos() != pos {
			t.Fatalf("seek %d landed at %d", pos, seeked.StreamPos())
		}
		for i := 0; i < 800; i++ {
			if x, y := ref.Next(), seeked.Next(); x != y {
				t.Fatalf("seek %d: draw %d diverges", pos, i)
			}
		}
	}
}
