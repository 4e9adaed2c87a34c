package workload_test

import (
	"testing"

	"bump/internal/workload"
	"bump/internal/workload/streamtest"
)

// TestSeekableConformance runs the shared stream-conformance harness
// over the generator (two presets at the workload extremes). The
// scenario composite runs the same harness from internal/scenario.
func TestSeekableConformance(t *testing.T) {
	genCase := func(name string, p workload.Params, seed, otherSeed int64) streamtest.Case {
		return streamtest.Case{
			Name: name,
			New: func() (workload.Stream, error) {
				return workload.NewGenerator(p, seed)
			},
			Other: func() (workload.Stream, error) {
				return workload.NewGenerator(p, otherSeed)
			},
		}
	}
	streamtest.Run(t, []streamtest.Case{
		genCase("generator/web-search", workload.WebSearch(), 42, 43),
		genCase("generator/software-testing", workload.SoftwareTesting(), 1, 2),
	})
}

// TestGeneratorFingerprintSeparatesParams: tweaked parameters under the
// same preset name must not fingerprint equal.
func TestGeneratorFingerprintSeparatesParams(t *testing.T) {
	base, err := workload.NewGenerator(workload.WebSearch(), 1)
	if err != nil {
		t.Fatal(err)
	}
	p := workload.WebSearch()
	p.ChaseWeight *= 1.5 // same Name, different sequence
	tweaked, err := workload.NewGenerator(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if base.StreamFingerprint() == tweaked.StreamFingerprint() {
		t.Fatal("tweaked params fingerprint equal to the preset")
	}
}

// TestPresetInvariants pins the documented invariants of the six
// presets: positive task-weight sum, ordered chase and coverage bounds,
// coverage within (0, 1], positive PC pools and open-task counts, and a
// footprint large enough to be DRAM-resident.
func TestPresetInvariants(t *testing.T) {
	all := workload.All()
	if len(all) != 6 {
		t.Fatalf("preset catalogue has %d entries, want 6", len(all))
	}
	for _, p := range all {
		t.Run(p.Name, func(t *testing.T) {
			if err := p.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
			if sum := p.ScanWeight + p.ChaseWeight + p.WriteBurstWeight + p.SparseWriteWeight; sum <= 0 {
				t.Errorf("task weights sum %v, want > 0", sum)
			}
			if p.ChaseLenMin > p.ChaseLenMax {
				t.Errorf("ChaseLenMin %d > ChaseLenMax %d", p.ChaseLenMin, p.ChaseLenMax)
			}
			if p.CoverageMin <= 0 || p.CoverageMin > p.CoverageMax || p.CoverageMax > 1 {
				t.Errorf("coverage bounds [%v, %v] violate 0 < min <= max <= 1", p.CoverageMin, p.CoverageMax)
			}
			if p.ScanRegionsMin <= 0 || p.ScanRegionsMin > p.ScanRegionsMax {
				t.Errorf("scan region bounds [%d, %d] invalid", p.ScanRegionsMin, p.ScanRegionsMax)
			}
			if p.WorkMin > p.WorkMax || p.ChaseWorkMin > p.ChaseWorkMax {
				t.Errorf("work gap bounds inverted: [%d,%d] / [%d,%d]", p.WorkMin, p.WorkMax, p.ChaseWorkMin, p.ChaseWorkMax)
			}
			if p.OpenTasks <= 0 || p.ScanPCs <= 0 || p.ChasePCs <= 0 || p.WritePCs <= 0 {
				t.Error("OpenTasks and PC pools must be positive")
			}
			if p.FootprintBlocks < 1<<16 {
				t.Errorf("footprint %d blocks too small to be DRAM-resident", p.FootprintBlocks)
			}
			if p.PhaseTasks > 0 && p.PhasePool <= 1 {
				t.Errorf("phasing enabled (PhaseTasks %d) with trivial PhasePool %d", p.PhaseTasks, p.PhasePool)
			}
		})
	}
}

// TestWeightRenormalizationInvariance: the generator normalises task
// weights, so scaling all four by one constant must leave the stream
// bit-identical (the scenario layer's WriteScale ramp relies on exactly
// this renormalisation).
func TestWeightRenormalizationInvariance(t *testing.T) {
	// Power-of-two factors scale the weights exactly in IEEE arithmetic,
	// so the normalised ratios are bit-identical, not merely close.
	for _, k := range []float64{0.25, 4, 16} {
		p := workload.DataServing()
		q := p
		q.ScanWeight *= k
		q.ChaseWeight *= k
		q.WriteBurstWeight *= k
		q.SparseWriteWeight *= k
		a, err := workload.NewGenerator(p, 11)
		if err != nil {
			t.Fatal(err)
		}
		b, err := workload.NewGenerator(q, 11)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20000; i++ {
			if x, y := a.Next(), b.Next(); x != y {
				t.Fatalf("k=%v: streams diverge at access %d: %+v vs %+v", k, i, x, y)
			}
		}
	}
}
