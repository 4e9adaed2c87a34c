package figures

import (
	"strings"
	"testing"

	"bump/internal/workload"
)

// fastOpts keeps figure tests quick: two contrasting workloads and short
// windows.
func fastOpts() Options {
	return Options{
		Seed:          7,
		WarmupCycles:  250_000,
		MeasureCycles: 500_000,
		Workloads:     []workload.Params{workload.WebSearch(), workload.DataServing()},
	}
}

func TestRunnerCaches(t *testing.T) {
	r := NewRunner(fastOpts())
	a := r.Run(0, workload.WebSearch()) // BaseClose
	b := r.Run(0, workload.WebSearch())
	if a.DRAM != b.DRAM {
		t.Error("cached result must be identical")
	}
	if len(r.cache) != 1 {
		t.Errorf("cache size = %d, want 1", len(r.cache))
	}
}

func wantColumns(t *testing.T, s string, cols ...string) {
	t.Helper()
	for _, c := range cols {
		if !strings.Contains(s, c) {
			t.Errorf("missing column/value %q in:\n%s", c, s)
		}
	}
}

func TestFig2Shape(t *testing.T) {
	r := NewRunner(fastOpts())
	s := r.Fig2().String()
	wantColumns(t, s, "Base", "SMS", "VWQ", "Ideal", "web-search", "data-serving")
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 5 { // title, header, sep, 2 workloads
		t.Errorf("Fig2 rows = %d:\n%s", len(lines), s)
	}
}

func TestFig3SumsToOne(t *testing.T) {
	r := NewRunner(fastOpts())
	p := r.RunProfile(workload.WebSearch()).Profile
	if p.Accesses() == 0 {
		t.Fatal("characterisation run recorded no DRAM accesses")
	}
	tot := p.LoadReads + p.StoreReads + p.Writes
	if tot != p.Accesses() {
		t.Errorf("mix components %d != accesses %d", tot, p.Accesses())
	}
}

func TestFig8And9And10Render(t *testing.T) {
	r := NewRunner(fastOpts())
	wantColumns(t, r.Fig8().String(), "full-region", "bump", "rd-predicted", "wr-predicted")
	wantColumns(t, r.Fig9().String(), "base-close", "base-open", "activation", "burst/IO")
	wantColumns(t, r.Fig10().String(), "Base-open", "Full-region", "BuMP")
}

func TestFig13IncludesAllSystemsAndIdeal(t *testing.T) {
	r := NewRunner(fastOpts())
	s := r.Fig13().String()
	wantColumns(t, s, "base-close", "base-open", "sms", "vwq", "sms+vwq", "full-region", "bump", "ideal")
}

func TestTable1AndTable4(t *testing.T) {
	r := NewRunner(fastOpts())
	wantColumns(t, r.Table1().String(), "late-modified", "web-search")
	wantColumns(t, r.Table4().String(), "row-hit", "data-serving")
}

func TestFig1EnergyFractions(t *testing.T) {
	r := NewRunner(fastOpts())
	s := r.Fig1().String()
	wantColumns(t, s, "cores", "memory", "mem-ACT", "mem-BKG")
}

func TestFig12Overheads(t *testing.T) {
	r := NewRunner(fastOpts())
	s := r.Fig12().String()
	wantColumns(t, s, "LLC-traffic", "NOC-energy")
}

func TestThresholdHelper(t *testing.T) {
	if threshold(10, 50) != 8 {
		t.Errorf("1KB@50%% = %d, want 8", threshold(10, 50))
	}
	if threshold(9, 25) != 2 {
		t.Errorf("512B@25%% = %d, want 2", threshold(9, 25))
	}
	if threshold(9, 1) != 1 {
		t.Error("threshold floors at 1")
	}
	if threshold(11, 100) != 32 {
		t.Errorf("2KB@100%% = %d, want 32", threshold(11, 100))
	}
}

func TestFig11SmallGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("design-space grid is slow")
	}
	opts := fastOpts()
	opts.Workloads = []workload.Params{workload.WebSearch()}
	opts.MeasureCycles = 300_000
	r := NewRunner(opts)
	s := r.Fig11().String()
	wantColumns(t, s, "512B", "1024B", "2048B", "thr-50%")
}
