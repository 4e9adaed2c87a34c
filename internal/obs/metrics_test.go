package obs

import (
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestConcurrentUpdates hammers one histogram, and the state a
// collector reads at scrape time, from many goroutines while they
// scrape; run under -race this is the data-race gate, and the final
// counts must be exact (no lost updates).
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	var ops atomic.Uint64
	r.Collect(func(g *Gather) {
		g.Counter("bump_test_ops_total", "ops", float64(ops.Load()))
	})
	h := r.Histogram("bump_test_latency_seconds", "latency", []float64{0.01, 0.1, 1})

	const goroutines = 16
	const perG = 1000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < perG; k++ {
				ops.Add(1)
				h.Observe(float64(k%3) * 0.05)
				if k%100 == 0 {
					var sb strings.Builder
					if err := r.WriteText(&sb); err != nil {
						t.Error(err)
					}
				}
			}
		}(i)
	}
	wg.Wait()

	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if want := "bump_test_ops_total " + strconv.Itoa(goroutines*perG) + "\n"; !strings.Contains(sb.String(), want) {
		t.Fatalf("final scrape missing %q:\n%s", want, sb.String())
	}
	if got := h.Count(); got != goroutines*perG {
		t.Fatalf("histogram count = %d, want %d", got, goroutines*perG)
	}
}

// TestHistogramBucketBoundaries pins the le semantics: a value equal to
// an upper bound lands in that bucket (cumulative counts include it),
// values beyond the last bound land only in +Inf.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("bump_test_hist", "", []float64{1, 2, 5})

	for _, v := range []float64{0, 1, 1.5, 2, 2.0001, 5, 100} {
		h.Observe(v)
	}
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`bump_test_hist_bucket{le="1"} 2`,    // 0, 1
		`bump_test_hist_bucket{le="2"} 4`,    // + 1.5, 2
		`bump_test_hist_bucket{le="5"} 6`,    // + 2.0001, 5
		`bump_test_hist_bucket{le="+Inf"} 7`, // + 100
		`bump_test_hist_count 7`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if h.Sum() != 111.5001 {
		t.Errorf("sum = %v, want 111.5001", h.Sum())
	}
}

// TestExpositionGolden pins the full text exposition byte-for-byte:
// family ordering (sorted by name, histograms and collector families
// interleaved), HELP/TYPE headers, label rendering, histogram series
// shape, and samples of one name from two collectors merged under one
// header.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("bump_phase_seconds", "Phase latency.", []float64{0.1, 1}, "phase", "warmup")
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(3)
	r.Collect(func(g *Gather) {
		g.Counter("bump_jobs_total", "Jobs submitted.", 3, "state", "done")
		g.Counter("bump_jobs_total", "Jobs submitted.", 1, "state", "failed")
		g.Gauge("bump_queue_depth", "Queued jobs.", 2)
	})
	r.Collect(func(g *Gather) {
		g.Gauge("bump_workers_alive", "Live workers.", 3)
		g.Counter("bump_jobs_total", "Jobs submitted.", 9, "state", "routed")
	})

	const want = `# HELP bump_jobs_total Jobs submitted.
# TYPE bump_jobs_total counter
bump_jobs_total{state="done"} 3
bump_jobs_total{state="failed"} 1
bump_jobs_total{state="routed"} 9
# HELP bump_phase_seconds Phase latency.
# TYPE bump_phase_seconds histogram
bump_phase_seconds_bucket{phase="warmup",le="0.1"} 1
bump_phase_seconds_bucket{phase="warmup",le="1"} 2
bump_phase_seconds_bucket{phase="warmup",le="+Inf"} 3
bump_phase_seconds_sum{phase="warmup"} 3.55
bump_phase_seconds_count{phase="warmup"} 3
# HELP bump_queue_depth Queued jobs.
# TYPE bump_queue_depth gauge
bump_queue_depth 2
# HELP bump_workers_alive Live workers.
# TYPE bump_workers_alive gauge
bump_workers_alive 3
`
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", sb.String(), want)
	}
}

// TestRegistrationConflict pins the conflict rules: registering a
// histogram twice under one name and label set returns the same one,
// and collector samples that collide with a registered histogram, or
// with an earlier sample of a different kind, are dropped and counted,
// never emitted.
func TestRegistrationConflict(t *testing.T) {
	r := NewRegistry()
	a := r.Histogram("bump_conflict_seconds", "", nil)
	b := r.Histogram("bump_conflict_seconds", "", nil)
	if a != b {
		t.Error("same name+labels returned distinct histograms")
	}

	r.Collect(func(g *Gather) {
		g.Gauge("bump_conflict_seconds", "", 1) // a histogram's name: dropped
		g.Counter("bump_ok_total", "", 2)
		g.Gauge("bump_ok_total", "", 3) // an earlier counter's name: dropped
	})
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if strings.Contains(out, "bump_conflict_seconds 1") || strings.Contains(out, "bump_ok_total 3") {
		t.Errorf("conflicting collector sample was emitted:\n%s", out)
	}
	if !strings.Contains(out, "# TYPE bump_conflict_seconds histogram\n") {
		t.Errorf("histogram family lost its type:\n%s", out)
	}
	if !strings.Contains(out, "bump_ok_total 2") {
		t.Errorf("clean collector sample missing:\n%s", out)
	}
	if r.Conflicts() != 2 {
		t.Errorf("Conflicts() = %d, want 2", r.Conflicts())
	}
}

// TestLabelEscaping pins label-value escaping of backslash, quote and
// newline, on collector samples and on histogram series.
func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	const path = "a\\b\"c\nd"
	r.Collect(func(g *Gather) { g.Counter("bump_esc_total", "", 1, "path", path) })
	r.Histogram("bump_esc_seconds", "", []float64{1}, "path", path).Observe(0.5)
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`bump_esc_total{path="a\\b\"c\nd"} 1`,
		`bump_esc_seconds_bucket{path="a\\b\"c\nd",le="1"} 1`,
		`bump_esc_seconds_count{path="a\\b\"c\nd"} 1`,
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("escaped label missing %q:\n%s", want, sb.String())
		}
	}
}
