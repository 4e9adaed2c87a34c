package sim

import (
	"fmt"
	"testing"

	"bump/internal/workload"
)

// TestCalibrationReport prints the per-workload calibration summary used
// to populate EXPERIMENTS.md. It asserts only broad shape invariants; run
// with -v to see the numbers.
func TestCalibrationReport(t *testing.T) {
	if testing.Short() {
		t.Skip("full-window calibration is slow")
	}
	for _, w := range workload.All() {
		open := DefaultConfig(BaseOpen, w)
		open.Profile = true
		ro, err := RunOne(open)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := RunOne(DefaultConfig(BuMP, w))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Printf("%-18s base: hit=%4.1f%% highR=%4.1f%% highW=%4.1f%% wrFrac=%4.1f%% storeRd=%4.1f%% ideal=%4.1f%% | bump: hit=%4.1f%% cov=%4.1f%% ovf=%4.1f%% wcov=%4.1f%% dEPA=%+5.1f%% dIPC=%+5.1f%%\n",
			w.Name,
			100*ro.RowHitRatio(), 100*ro.Profile.HighDensityReadFraction(), 100*ro.Profile.HighDensityWriteFraction(),
			100*float64(ro.Profile.Writes)/float64(ro.Profile.Accesses()),
			100*float64(ro.Profile.StoreReads)/float64(ro.Profile.Reads()),
			100*ro.Profile.IdealHitRatio(),
			100*rb.RowHitRatio(), 100*rb.ReadCoverage(), 100*rb.ReadOverfetch(), 100*rb.WriteCoverage(),
			100*(rb.EPATotal/ro.EPATotal-1), 100*(rb.IPC()/ro.IPC()-1))
		if rb.RowHitRatio() <= ro.RowHitRatio() {
			t.Errorf("%s: BuMP must improve row-buffer locality", w.Name)
		}
		if rb.EPATotal >= ro.EPATotal {
			t.Errorf("%s: BuMP must reduce energy per access", w.Name)
		}
	}
}
