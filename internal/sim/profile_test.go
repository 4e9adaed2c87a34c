package sim

import (
	"bytes"
	"testing"

	"bump/internal/workload"
)

// TestProfilerIsPureObserver: attaching the region-density profiler
// changes nothing but Result.Profile. For every golden configuration,
// and a base-open run without its prefetcher (the characterisation
// setup), the profiled and the unprofiled run report byte-identical
// Result JSON once Profile is zeroed, and the unprofiled Profile is
// zero.
func TestProfilerIsPureObserver(t *testing.T) {
	raw := smallConfig(BaseOpen, workload.MediaStreaming(), 5)
	raw.DisablePrefetcher = true
	cases := append(goldenCases(), goldenCase{"base-open-raw-media-streaming", raw})
	for _, gc := range cases {
		t.Run(gc.name, func(t *testing.T) {
			on, off := gc.cfg, gc.cfg
			on.Profile, off.Profile = true, false
			profiled, err := RunOne(on)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := RunOne(off)
			if err != nil {
				t.Fatal(err)
			}
			if plain.Profile != (ProfileCounters{}) {
				t.Fatalf("unprofiled run reports a profile: %+v", plain.Profile)
			}
			if profiled.Profile.Accesses() == 0 {
				t.Fatal("profiled run recorded no DRAM accesses")
			}
			profiled.Profile = ProfileCounters{}
			if got, want := marshalResult(t, profiled), marshalResult(t, plain); !bytes.Equal(got, want) {
				t.Fatalf("the profiler changed the run.\nprofiled:\n%s\nunprofiled:\n%s", got, want)
			}
		})
	}
}
